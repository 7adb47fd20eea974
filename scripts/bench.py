#!/usr/bin/env python3
"""Parent-against-change checks for the dmsiplan CLI.

    python3 scripts/bench.py --outputs REF [--count N]
    python3 scripts/bench.py --against REF --workload W [--pairs N] [--seconds S] [--seed S0]

`--outputs REF` extracts the `src/` tree of git commit REF with `git archive`
into a temporary directory and runs the same command corpus against it and
against this checkout's `src/`, in one subprocess per tree.  The corpus
takes the first `--count` instances (all 520 by default) of perfbench's
`plan` corpus for seeds 1 and 2.  On each it runs `plan --output`, then
`verify`, `simulate --payload-seed 1` and `transform` on the written plan,
then each `MALFORMED` and `KNOWN_DEFECTS` mutation of perfbench's workloads
on that plan.  It does the same on the first `--count` (all 8 by default)
of perfbench's `verify-simulate` instances for the same seeds (n 24-28,
every 4th planned over GF(2^12), so 16-bit lanes are compared), with
`simulate --payload-seed 1` to 4.  perfbench is imported read-only from
this checkout, so both trees see the same corpus and mutations.  Files are
named relative to the tree's own working directory, so messages that quote
a path match.

Exit code, stdout, stderr and, for `plan`, the written bytes are compared
command by command.  Every command that differs is listed with what
differs, and the script exits 1 if any does, 0 otherwise.

`--against REF` times REF against this checkout with perfbench.  It builds
two trees in a temporary directory, each holding this checkout's
`perfbench/` and `BENCHMARK.json`: one with REF's `src/` (from `git
archive`), one with this checkout's `src/` as it is on disk.  Pair i (from
0) runs `perfbench/run.py --workload W --seed S0+i --seconds S` once in each
tree, one process at a time, REF first in even pairs and the checkout first
in odd ones.  It prints every end-to-end metric of `BENCHMARK.json` per
pair, then per metric each side's median [q1, q3] over the pairs and in how
many pairs the checkout was better (ties count for neither).  It exits 1 as
soon as a run fails or reads `"correct": false`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus  # noqa: E402  (perfbench's corpus needs only the standard library)

SEEDS = (1, 2)
PAYLOAD_SEED = "1"
VS_PAYLOAD_SEEDS = ("1", "2", "3", "4")
FIELDS = ("exit", "stdout", "stderr", "plan")
_BUILT = shutil.ignore_patterns("__pycache__", ".work")  # left behind by runs, not source


def _digest(data: str | bytes | None) -> str | None:
    if data is None:
        return None
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def run_corpus(count: int) -> dict:
    """Run the command corpus in the current directory against the
    `dmsiplan` on sys.path; one record of digests per command."""
    import workloads

    import dmsiplan.cli as cli

    def run(label: str, argv: list[str], plan: Path | None = None) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses bad arguments this way
                code = exc.code
            except Exception as exc:  # a crash is an outcome to compare too
                code = f"uncaught {type(exc).__name__}"
        written = plan.read_bytes() if plan is not None and plan.is_file() else None
        records[label] = {
            "exit": code,
            "stdout": _digest(out.getvalue()),
            "stderr": _digest(err.getvalue()),
            "plan": _digest(written),
        }

    def run_plan(name: str, doc: dict, options: list[str], payload_seeds: tuple[str, ...]) -> None:
        """plan, then the commands that read the plan it wrote."""
        source.write_text(corpus.dump(doc))
        plan.unlink(missing_ok=True)
        run(f"{name}: plan", ["plan", str(source), "--output", str(plan), *options], plan)
        if not plan.is_file():
            return
        run(f"{name}: verify", ["verify", str(source), str(plan)])
        for payload_seed in payload_seeds:
            simulate = ["simulate", str(source), str(plan), "--payload-seed", payload_seed]
            run(f"{name}: simulate {payload_seed}", simulate)
        run(f"{name}: transform", ["transform", str(source), str(plan)])
        for label, command, mutate, _ in mutations:
            bad = mutate(json.loads(plan.read_text()))
            mutated.write_text(bad if isinstance(bad, str) else corpus.dump(bad))
            run(f"{name}: {label}", [command, str(source), str(mutated)])

    records: dict[str, dict] = {}
    source, plan, mutated = Path("instance.json"), Path("plan.json"), Path("malformed.json")
    mutations = workloads.MALFORMED + workloads.KNOWN_DEFECTS
    for seed in SEEDS:
        for i, doc in enumerate(corpus.plan_instances(seed, count)):
            run_plan(f"seed {seed} instance {i}", doc, [], (PAYLOAD_SEED,))
    for seed in SEEDS:
        for i, (doc, degree) in enumerate(corpus.vs_instances(seed, min(count, corpus.VS_PLANS))):
            options = [] if degree is None else ["--field-degree", str(degree)]
            run_plan(f"seed {seed} verify-simulate plan {i}", doc, options, VS_PAYLOAD_SEEDS)
    return {"dmsiplan": cli.__file__, "records": records}


def _tree_outputs(src: Path, work: Path, count: int) -> dict:
    """run_corpus in a subprocess that imports `dmsiplan` from `src`."""
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, str(Path(__file__).resolve()), "--corpus-run", "--count", str(count)]
    proc = subprocess.run(argv, cwd=work, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: the corpus run on {src} exited {proc.returncode}")
    result = json.loads(proc.stdout)
    if not Path(result["dmsiplan"]).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: the corpus run on {src} imported {result['dmsiplan']}")
    return result["records"]


def _extract_src(ref: str, tree: Path) -> None:
    """REF's `src/` under `tree`, from `git archive`."""
    argv = ["git", "-C", str(ROOT), "archive", ref, "src"]
    archive = subprocess.run(argv, stdout=subprocess.PIPE)
    if archive.returncode != 0:
        raise SystemExit(f"error: git archive {ref} failed")
    tree.mkdir()
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)


def compare_outputs(ref: str, count: int) -> int:
    """Print the commands whose outcomes differ between REF and this checkout."""
    with tempfile.TemporaryDirectory(prefix="dmsiplan-outputs-") as tmp:
        tmp = Path(tmp)
        _extract_src(ref, tmp / "ref")
        before = _tree_outputs(tmp / "ref" / "src", tmp / "ref-run", count)
        after = _tree_outputs(ROOT / "src", tmp / "checkout-run", count)
    labels = list(before) + [label for label in after if label not in before]
    missing = dict.fromkeys(FIELDS, "missing")
    differ = 0
    for label in labels:
        a, b = before.get(label, missing), after.get(label, missing)
        fields = [f for f in FIELDS if a[f] != b[f]]
        if fields:
            differ += 1
            print(f"differs: {label} ({', '.join(fields)}; exit {a['exit']} -> {b['exit']})")
    print(f"{differ} of {len(labels)} commands differ between {ref} and the checkout")
    return 1 if differ else 0


def _perfbench(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    """One perfbench run in `tree`: its end-to-end metrics by name, and the
    digest of the source it ran; exits 1 if the run fails or is not correct."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if result.get("correct") is not True:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: perfbench on {tree.name}, seed {seed}, exited "
                         f"{proc.returncode} with correct: {result.get('correct')}")
    source = json.loads(lines[0])["meta"]["src_sha256"]
    return {name: metric["value"] for name, metric in result["metrics"].items()}, source


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare_timings(ref: str, workload: str, pairs: int, seconds: float | None, seed: int) -> int:
    """Alternating perfbench runs of REF and this checkout, of `seconds` each
    (BENCHMARK.json's run_seconds if None); prints every end-to-end metric
    per pair and per side."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    higher = {metric["name"]: metric["better"] == "higher" for metric in spec["end_to_end"]}
    seconds = spec["run_seconds"] if seconds is None else seconds
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="dmsiplan-against-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        _extract_src(ref, trees["parent"])
        shutil.copytree(ROOT / "src", trees["change"] / "src", ignore=_BUILT)
        for tree in trees.values():
            shutil.copytree(ROOT / "perfbench", tree / "perfbench", ignore=_BUILT)
            shutil.copy(ROOT / "BENCHMARK.json", tree)
        sources = {}
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                metrics, sources[side] = _perfbench(trees[side], workload, seed + i, seconds)
                runs[side].append(metrics)
            print(f"pair {i + 1}, seed {seed + i}, {order[0]} first:")
            before, after = runs["parent"][-1], runs["change"][-1]
            for name in before:
                print(f"  {name}: {before[name]:.6g} -> {after[name]:.6g}")
            sys.stdout.flush()  # a pair at a time: a run of ten pairs takes minutes
    print(f"{ref} (src {sources['parent']}) -> checkout (src {sources['change']}), "
          f"{workload}, {pairs} pairs of {seconds:g} s, seeds {seed}-{seed + pairs - 1}:")
    for name in runs["parent"][0]:
        before = [metrics[name] for metrics in runs["parent"]]
        after = [metrics[name] for metrics in runs["change"]]
        sign = 1 if higher[name.rsplit("/", 1)[-1]] else -1
        better = sum(sign * (b - a) > 0 for a, b in zip(before, after))
        (q1, m, q3), (r1, n, r3) = _quartiles(before), _quartiles(after)
        print(f"  {name}: {m:.6g} [{q1:.6g}, {q3:.6g}] -> {n:.6g} [{r1:.6g}, {r3:.6g}], "
              f"change better in {better}/{pairs}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--outputs", metavar="REF",
                        help="git commit to compare this checkout's CLI outputs with")
    parser.add_argument("--count", type=int, default=corpus.PLAN_POOL, metavar="N",
                        help=f"instances per corpus seed (default: all {corpus.PLAN_POOL} "
                             f"plan and {corpus.VS_PLANS} verify-simulate instances)")
    parser.add_argument("--against", metavar="REF",
                        help="git commit to time this checkout against with perfbench")
    parser.add_argument("--workload", choices=["plan", "verify-simulate", "oracle-sweep", "all"],
                        help="perfbench workload for --against")
    parser.add_argument("--pairs", type=int, default=10, metavar="N",
                        help="alternating pairs of runs (default: 10)")
    parser.add_argument("--seconds", type=float, metavar="S",
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--seed", type=int, default=1, metavar="S0",
                        help="workload seed of the first pair; pair i takes S0 + i (default: 1)")
    # internal: the per-tree subprocess that runs the corpus
    parser.add_argument("--corpus-run", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.corpus_run:
        print(json.dumps(run_corpus(args.count)))
        return 0
    if args.against is not None:
        if args.outputs is not None or args.workload is None:
            parser.error("--against REF takes --workload W and not --outputs")
        if args.pairs < 1:
            parser.error("--pairs must be at least 1")
        return compare_timings(args.against, args.workload, args.pairs, args.seconds, args.seed)
    if args.outputs is None:
        parser.error("--outputs REF is required, or --against REF with --workload W")
    return compare_outputs(args.outputs, args.count)


if __name__ == "__main__":
    raise SystemExit(main())
