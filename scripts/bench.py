#!/usr/bin/env python3
"""Parent-against-change checks for the dmsiplan CLI.

    python3 scripts/bench.py --outputs REF [--count N]

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
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
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


def compare_outputs(ref: str, count: int) -> int:
    """Print the commands whose outcomes differ between REF and this checkout."""
    with tempfile.TemporaryDirectory(prefix="dmsiplan-outputs-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", ref, "src"], stdout=subprocess.PIPE
        )
        if archive.returncode != 0:
            raise SystemExit(f"error: git archive {ref} failed")
        (tmp / "ref").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "ref")], input=archive.stdout, check=True)
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--outputs", metavar="REF",
                        help="git commit to compare this checkout's CLI outputs with")
    parser.add_argument("--count", type=int, default=corpus.PLAN_POOL, metavar="N",
                        help=f"instances per corpus seed (default: all {corpus.PLAN_POOL} "
                             f"plan and {corpus.VS_PLANS} verify-simulate instances)")
    # internal: the per-tree subprocess that runs the corpus
    parser.add_argument("--corpus-run", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.corpus_run:
        print(json.dumps(run_corpus(args.count)))
        return 0
    if args.outputs is None:
        parser.error("--outputs REF is required")
    return compare_outputs(args.outputs, args.count)


if __name__ == "__main__":
    raise SystemExit(main())
