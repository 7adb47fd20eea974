#!/usr/bin/env python3
"""dmsiplan benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 24 --trace 0

Workloads are `plan`, `verify-simulate` and `oracle-sweep` (BENCHMARK.json
says why each exists), or `all` to run the three in turn.  Inputs come from
`--seed`.  Set-up runs before the measured passes and again between them,
at least SETUP_REPEATS times and for SETUP_SHARE of the run, and its median
is reported; a set-up the program fails ends the run with exit code 1.
The workload's op list is then run in whole passes, at least MIN_PASSES and
as many as fit in `--seconds`.  Every output of the first pass is checked in
full, outside the timed interval; later passes must reproduce it exactly.

Times in the end-to-end metrics are scaled to the host's nominal speed by
a fixed piece of reference work timed between ops (see host_speed.py); each
op's figure is its median over the passes.  The unscaled figures are in the
metadata line as `raw_ops_per_s` and `raw_setup_s`.

With `--trace 0` the last stdout line holds the end-to-end metrics.  With
`--trace 1` passes run untraced for half the time, then once more with
wrappers around the program's public functions, each op recorded right
after an unrecorded call of it; the last line holds the per-layer totals
of that traced pass and the tracing overhead between the pairs, and the
spans are written to perfbench/.work/.  The line before the last holds run
metadata and the latency breakdown per kind of op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import host_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_REPEATS = 5
SETUP_SHARE = 0.1
MIN_PASSES = 2
# host-speed samples: after every SAMPLE_EVERY_S of op time, samples that
# take SAMPLE_SHARE of it; a chunk of ops between two such groups takes the
# SAMPLE_WINDOW groups either side of it; set-up, SETUP_SAMPLE_S either side
SAMPLE_EVERY_S = 0.01
SAMPLE_SHARE = 0.05
SAMPLE_WINDOW = 2
SETUP_SAMPLE_S = 0.05
# percentiles a `.tail` may take: the highest with at least MIN_BEYOND
# samples beyond it, up to the workload's tail_cap
LADDER = (50, 75, 90, 95, 99)
MIN_BEYOND = 10


@dataclass
class Pass:
    wall_s: float = 0.0
    calls: int = 0
    seconds_by_op: list[float] = field(default_factory=list)
    scale_by_op: list[float] = field(default_factory=list)  # see `host_scales`
    untraced_s: float = 0.0  # traced passes: the untraced twin calls
    kinds: list[str | None] = field(default_factory=list)  # None: not a latency sample
    fingerprints: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def scaled_by_op(self) -> list[float]:
        return [t * s for t, s in zip(self.seconds_by_op, self.scale_by_op)]


def host_scales(groups: list[list[float]], chunk_sizes: list[int]) -> list[float]:
    """Per op, NOMINAL_S over the mean host-speed sample near it.

    Group c of samples was taken just before chunk c of ops and group c + 1
    just after it.  The host switches between a fast and a slow state every
    few milliseconds, and the share of time it spends slow drifts, so the
    mean of the nearby samples tracks how slow it was; their median would
    jump between the two states instead."""
    scales = []
    for c, size in enumerate(chunk_sizes):
        near = [t for g in groups[max(0, c + 1 - SAMPLE_WINDOW) : c + 1 + SAMPLE_WINDOW] for t in g]
        scales += [host_speed.NOMINAL_S / statistics.fmean(near)] * size
    return scales


def run_pass(workload, ops: int, reference: Pass | None = None, tracer=None) -> Pass:
    """Ops 0 .. ops-1 in a closed loop: the next call starts only after the
    last one returned and was checked.  Without a reference pass every
    output is checked in full; with one, each output must match the
    reference's exactly, since the program is deterministic for a given
    input.  Host-speed samples are taken before the first op and after
    every SAMPLE_EVERY_S of op time.

    With a tracer (its wrappers installed), each op is called twice in a
    row: first with the tracer idle, so the wrappers only pass the call on,
    then recorded.  The pair's times, taken moments apart, give the tracing
    overhead."""
    result = Pass()
    pass_start = time.perf_counter()
    groups = [host_speed.samples_for(SAMPLE_SHARE * SAMPLE_EVERY_S)]
    chunk_sizes = [0]
    chunk_s = 0.0
    for i in range(ops):
        op = workload.op(i)
        for call in range(2 if tracer else 1):
            recording = tracer is not None and call == 1
            if recording:
                tracer.op = i
            start = time.perf_counter()
            try:
                output, problem = op.call(), None
            except Exception as exc:  # an uncaught exception is a failed op
                output, problem = None, f"{op.kind} op {i}: uncaught {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if recording:
                tracer.op = None
            result.calls += 1
            if tracer is not None and not recording:
                result.untraced_s += elapsed
            try:
                fingerprint = op.fingerprint(output)
                if problem is None:
                    if reference is None:
                        problem = op.check(output)
                    elif fingerprint != reference.fingerprints[i]:
                        problem = f"{op.kind} op {i}: output differs from the first pass"
            except Exception as exc:  # a missing or malformed output
                fingerprint = ""
                problem = problem or f"{op.kind} op {i}: bad output: {type(exc).__name__}: {exc}"
            if problem is not None:
                result.failures.append(problem)
            if tracer is None or recording:
                result.seconds_by_op.append(elapsed)
        result.kinds.append(op.kind if op.timed_latency else None)
        result.fingerprints.append(fingerprint)
        chunk_sizes[-1] += 1
        chunk_s += result.seconds_by_op[-1]
        if chunk_s >= SAMPLE_EVERY_S or i == ops - 1:
            groups.append(host_speed.samples_for(SAMPLE_SHARE * chunk_s))
            chunk_sizes.append(0)
            chunk_s = 0.0
    result.scale_by_op = host_scales(groups, chunk_sizes[:-1])
    result.wall_s = time.perf_counter() - pass_start
    return result


@dataclass
class Measurement:
    passes: list[Pass]
    latencies_ms: dict[str, list[float]]  # per op kind, each op's median scaled time
    busy_s: float  # summed median scaled time of every op
    raw_busy_s: float  # the same, unscaled

    @property
    def ops(self) -> int:
        return len(self.passes[0].seconds_by_op)


def measure(workload, seconds: float, between_passes=lambda: None) -> Measurement:
    """Whole passes over the workload's fixed op list, at least MIN_PASSES
    and then as many more as fit in `seconds`.

    Other tenants of a shared host slow all code down, by a share that
    drifts over seconds to minutes, so each op's time is scaled to the
    host's nominal speed by the host-speed samples taken around it, and an
    op's figure is its median over the passes."""
    ops = workload.ops_per_pass()
    start = time.perf_counter()
    passes = [run_pass(workload, ops)]
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + passes[-1].wall_s <= seconds
    ):
        between_passes()
        passes.append(run_pass(workload, ops, reference=passes[0]))
    latencies: dict[str, list[float]] = {}
    busy_s = raw_busy_s = 0.0
    scaled = [p.scaled_by_op for p in passes]
    for i, kind in enumerate(passes[0].kinds):
        op_s = statistics.median(s[i] for s in scaled)
        busy_s += op_s
        raw_busy_s += statistics.median(p.seconds_by_op[i] for p in passes)
        if kind is not None:
            latencies.setdefault(kind, []).append(op_s * 1000)
    return Measurement(passes, latencies, busy_s, raw_busy_s)


def tail(values: list[float], cap: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) at the highest allowed percentile."""
    ordered = sorted(values)
    n = len(ordered)
    best = (100.0, ordered[-1], 0)
    for p in LADDER:
        if p > cap:
            break
        index = math.ceil(p / 100 * n) - 1
        if n - 1 - index >= MIN_BEYOND:
            best = (p, ordered[index], n - 1 - index)
    return best


def latency_summary(values: list[float], cap: float) -> dict:
    p, value, beyond = tail(values, cap)
    return {
        "p50": statistics.median(values),
        "tail": value,
        "tail_percentile": p,
        "beyond_tail": beyond,
        "samples": len(values),
        "unit": "ms",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_sha() -> str:
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dmsiplan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def declared_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: extra {sorted(set(values) - set(units))}, "
            f"missing {sorted(set(units) - set(values))}"
        )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (result object for the last line, metadata)."""
    import tracing  # these import dmsiplan, so only once src/ is on sys.path
    import workloads

    workload = workloads.WORKLOADS[name](WORK, seed)
    setup_s: list[float] = []  # scaled to the host's nominal speed
    raw_setup_s: list[float] = []

    def set_up() -> None:
        before = host_speed.samples_for(SETUP_SAMPLE_S)
        start = time.perf_counter()
        workload.setup()
        raw_setup_s.append(time.perf_counter() - start)
        near = before + host_speed.samples_for(SETUP_SAMPLE_S)
        setup_s.append(raw_setup_s[-1] * host_speed.NOMINAL_S / statistics.fmean(near))

    def set_up_again() -> None:
        # later set-ups run between passes, so that their median samples the
        # host's speed across the run, not in one moment; a cheap set-up runs
        # more often, since a few milliseconds are easily skewed
        if not trace and (
            len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SHARE * seconds
        ):
            set_up()

    set_up()
    units = declared_units()
    meta: dict = {"setup_runs_s": setup_s, "raw_setup_runs_s": raw_setup_s}
    # the traced run measures half as long untraced, then replays those ops
    # once more under the tracer
    run = measure(workload, seconds / 2 if trace else seconds, between_passes=set_up_again)
    while not trace and len(setup_s) < SETUP_REPEATS:
        set_up()
    passes = list(run.passes)
    latencies = run.latencies_ms
    if not trace:
        samples = [v for values in latencies.values() for v in values]
        values = {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": run.ops / run.busy_s,
            "success_rate": 1
            - sum(len(p.failures) for p in passes) / sum(p.calls for p in passes),
            "peak_rss_mb": peak_rss_mb(),
            "op_ms.p50": statistics.median(samples),
            "op_ms.tail": tail(samples, workload.tail_cap)[1],
        }
        metrics = with_units(values, units["end_to_end"])
        meta["op_ms"] = latency_summary(samples, workload.tail_cap)
        meta["raw_ops_per_s"] = run.ops / run.raw_busy_s
        meta["raw_setup_s"] = statistics.median(raw_setup_s)
    else:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = run_pass(workload, run.ops, reference=run.passes[0], tracer=tracer)
        passes.append(traced)
        spans_path = WORK / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        values = tracing.layer_metrics(tracer.spans)
        traced_s = sum(traced.seconds_by_op)
        values["trace.overhead"] = traced_s / traced.untraced_s - 1
        metrics = with_units(values, units["per_layer"])
        meta["spans"] = str(spans_path.relative_to(ROOT))
        meta["span_count"] = len(tracer.spans)
        meta["untraced_ops_per_s"] = run.ops / traced.untraced_s
        meta["traced_ops_per_s"] = run.ops / traced_s

    attempted = sum(p.calls for p in passes)
    failed = sum(len(p.failures) for p in passes)
    meta.update(
        {
            "ops_per_pass": run.ops,
            "pass_s": [p.wall_s for p in passes],
            "error_rate": failed / attempted,
            **{
                f"{kind}_ms": latency_summary(v, workload.tail_cap)
                for kind, v in latencies.items()
            },
            **workload.meta(),
            "failures": [f for p in passes for f in p.failures][:10],
        }
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, meta


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=["plan", "verify-simulate", "oracle-sweep", "all"]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dmsiplan" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import dmsiplan

    import_s = time.perf_counter() - start
    if Path(dmsiplan.__file__).resolve().parent != SRC / "dmsiplan":
        print(f"perfbench: imported dmsiplan from {dmsiplan.__file__}", file=sys.stderr)
        return 2

    names = (
        ["plan", "verify-simulate", "oracle-sweep"] if args.workload == "all" else [args.workload]
    )
    base = {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "import_s": import_s,
        "clients": 1,
        "loop": "closed",
    }
    import workloads

    results = {}
    for name in names:
        try:
            result, meta = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except workloads.SetupError as exc:
            print(f"perfbench: {name}: set-up failed: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"meta": {"workload": name, **base, **meta}}))
        for failure in meta["failures"]:
            print(f"perfbench: {name}: {failure}", file=sys.stderr)
        if len(names) > 1:
            print(json.dumps({"workload": name, **result}))
        results[name] = result
    if len(names) > 1:
        # peak_rss_mb of a later workload includes the earlier ones: one process
        results = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    else:
        results = results[names[0]]
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
