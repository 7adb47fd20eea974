"""The three workloads: their set-up, their operations, and the check each
operation's output must pass.

An operation is one closed-loop call into the program.  Only the call is
timed; preparing its inputs and checking its outputs happen outside the
timed interval.  CLI operations go through `dmsiplan.cli.main` in-process
with stdout and stderr captured, and every program function is looked up
through its module at call time so the tracer's wrappers see the call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import corpus
import dmsiplan.assignment as assignment
import dmsiplan.cli as cli
import dmsiplan.coding as coding
import dmsiplan.gf as gf
import dmsiplan.instance as instance_mod
import dmsiplan.netflow as netflow
import dmsiplan.oracle as oracle

ORACLE_BUDGET = 10**13  # the regression sweep's budget: never the limit here
SIMULATIONS_PER_PLAN = 4


class SetupError(RuntimeError):
    """The program failed while the benchmark built its inputs."""


def digest(output: object, *files: Path) -> str:
    h = hashlib.sha256(repr(output).encode())
    for path in files:
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right
    timed_latency: bool = True  # malformed-input ops stay out of percentiles
    fingerprint: Callable[[object], str] = digest  # compared across passes


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run `dmsiplan.cli.main(argv)` with its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return code, out.getvalue()


def _rational(value: object) -> Fraction:
    return Fraction(str(value))


# ---------------------------------------------------------------- plan


class PlanWorkload:
    """`dmsiplan plan` on fresh instances with the default field."""

    name = "plan"
    tail_cap = 75

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work / "plan"
        self.work.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.docs: list[str] = []
        self.written: set[int] = set()
        self.field_degrees: set[int] = set()

    def setup(self) -> None:
        # files are written just before their first op, outside the timed
        # interval, so set-up time does not hinge on the file system
        self.docs = [corpus.dump(doc) for doc in corpus.plan_instances(self.seed)]
        self.written = set()

    def ops_per_pass(self) -> int:
        return len(self.docs)

    def op(self, i: int) -> Op:
        source = self.work / f"instance-{i:04d}.json"
        if i not in self.written:
            source.write_text(self.docs[i])
            self.written.add(i)
        out = self.work / "plan.json"
        out.unlink(missing_ok=True)  # a missing or stale plan fails the op
        argv = ["plan", str(source), "--output", str(out)]
        return Op(
            "plan",
            lambda: cli_call(argv),
            lambda r: self.check(r, source, out),
            fingerprint=lambda r: digest(r, out),
        )

    def check(self, result: tuple[int, str], source: Path, out: Path) -> str | None:
        code, _ = result
        if code != 0:
            return f"plan {source.name}: exit {code}"
        doc = json.loads(out.read_text())
        if _rational(doc["total_delay"]) != _rational(doc["closed_form_delay"]):
            return f"plan {source.name}: total {doc['total_delay']} != closed form"
        if not all(doc["decodable"]):
            return f"plan {source.name}: plan reports undecodable clients"
        problem = independent_decodability(source, doc)
        if problem:
            return f"plan {source.name}: {problem}"
        self.field_degrees.add(doc["code"]["field_degree"])
        return None

    def meta(self) -> dict:
        return {
            "n_range": list(corpus.PLAN_N_RANGE),
            "instances": len(self.docs),
            "field_degrees": sorted(self.field_degrees),
        }


def independent_decodability(source: Path, doc: dict) -> str | None:
    """Re-check the written code's rank per client from the files alone."""
    instance = instance_mod.parse_instance(source.read_text())
    matrix = assignment.AssignmentMatrix(
        rows=tuple(tuple(r) for r in doc["assignment"]), k=instance.k
    )
    code = coding.CodingMatrix(
        field=gf.Field(doc["code"]["field_degree"]),
        n=instance.n,
        rows=tuple(tuple(r) for r in doc["code"]["rows"]),
    )
    verdicts = coding.decodability_check(instance, matrix, code)
    bad = [j + 1 for j, ok in enumerate(verdicts) if not ok]
    return f"written code leaves clients {bad} short of full rank" if bad else None


# ---------------------------------------------------------------- verify-simulate


def _not_json(doc: dict) -> str:
    return "{not json"


def _bad_entry(doc: dict) -> dict:
    doc["assignment"][0][0] = 2
    return doc


def _bad_field(doc: dict) -> dict:
    doc["code"]["field_degree"] = 17
    return doc


def _wrong_total(doc: dict) -> dict:
    doc["total_delay"] = str(_rational(doc["total_delay"]) + 1)
    return doc


def _no_code(doc: dict) -> dict:
    del doc["code"]
    return doc


def _short_code(doc: dict) -> dict:
    doc["code"]["rows"].pop()
    return doc


# (name, subcommand, mutation, exit code the documented contract requires)
MALFORMED = (
    ("verify:not-json", "verify", _not_json, 2),
    ("verify:entry-2", "verify", _bad_entry, 2),
    ("verify:field-degree-17", "verify", _bad_field, 2),
    ("verify:wrong-total", "verify", _wrong_total, 3),
    ("simulate:no-code", "simulate", _no_code, 2),
    ("simulate:short-code", "simulate", _short_code, 2),
)


def _float_delays(doc: dict) -> dict:
    doc["per_packet_delay"] = [0.5]
    return doc


def _scalar_delays(doc: dict) -> dict:
    doc["per_packet_delay"] = 5
    return doc


# Inputs that crash `verify` instead of exiting 2 (a known open defect).  They
# are probed once per run, outside the timed mix: the timed mix holds only
# inputs the program handles, so a failed operation always means a change
# broke something.
KNOWN_DEFECTS = (
    ("verify:per_packet_delay=[0.5]", "verify", _float_delays, 2),
    ("verify:per_packet_delay=5", "verify", _scalar_delays, 2),
)


class VerifySimulateWorkload:
    """`verify` once and `simulate` several times per pre-built plan.

    Each round takes the next plan and runs verify, SIMULATIONS_PER_PLAN
    simulations with distinct payload seeds, and one malformed document.
    """

    name = "verify-simulate"
    tail_cap = 75

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work / "verify-simulate"
        self.work.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.plans: list[tuple[Path, Path, dict]] = []

    def setup(self) -> None:
        plans = []
        for source, degree in corpus.write_vs_corpus(self.work / "instances", self.seed):
            out = source.with_name(source.stem.replace("instance", "plan") + ".json")
            argv = ["plan", str(source), "--output", str(out)]
            if degree is not None:
                argv += ["--field-degree", str(degree)]
            try:
                code, _ = cli_call(argv)
            except Exception as exc:
                raise SetupError(f"plan {source.name}: uncaught {type(exc).__name__}: {exc}")
            if code != 0 or not out.is_file():
                raise SetupError(f"plan {source.name} exited {code}")
            plans.append((source, out, json.loads(out.read_text())))
        self.plans = plans

    def ops_per_pass(self) -> int:
        return len(self.plans) * (SIMULATIONS_PER_PLAN + 2)

    def op(self, i: int) -> Op:
        rnd, slot = divmod(i, SIMULATIONS_PER_PLAN + 2)
        source, plan, doc = self.plans[rnd]
        clients = len(doc["instance"]["clients"])
        if slot == 0:
            argv = ["verify", str(source), str(plan)]
            return Op("verify", lambda: cli_call(argv), lambda r: _verify_passed(r, plan))
        if slot <= SIMULATIONS_PER_PLAN:
            payload = self.seed * 1_000_003 + rnd * SIMULATIONS_PER_PLAN + slot
            argv = ["simulate", str(source), str(plan), "--payload-seed", str(payload)]
            return Op(
                "simulate", lambda: cli_call(argv), lambda r: _all_decoded(r, plan, clients)
            )
        label, command, mutate, expected = MALFORMED[rnd % len(MALFORMED)]
        path = self._write_mutated(doc, mutate)
        argv = [command, str(source), str(path)]
        return Op(
            "malformed",
            lambda: cli_call(argv),
            lambda r: _exit_is(r, expected, label),
            timed_latency=False,
        )

    def _write_mutated(self, doc: dict, mutate: Callable) -> Path:
        mutated = mutate(json.loads(json.dumps(doc)))
        path = self.work / "malformed.json"
        path.write_text(mutated if isinstance(mutated, str) else corpus.dump(mutated))
        return path

    def probe_known_defects(self) -> list[dict]:
        source, _, doc = self.plans[0]
        found = []
        for label, command, mutate, expected in KNOWN_DEFECTS:
            path = self._write_mutated(doc, mutate)
            try:
                code, _ = cli_call([command, str(source), str(path)])
                outcome = f"exit {code}"
            except Exception as exc:  # the defect under observation
                outcome = f"uncaught {type(exc).__name__}"
            found.append({"input": label, "expected": f"exit {expected}", "outcome": outcome})
        return found

    def meta(self) -> dict:
        return {
            "n_range": list(corpus.VS_N_RANGE),
            "plans": len(self.plans),
            "simulations_per_plan": SIMULATIONS_PER_PLAN,
            "field_degrees": sorted({doc["code"]["field_degree"] for _, _, doc in self.plans}),
            "known_defects": self.probe_known_defects(),
        }


def _verify_passed(result: tuple[int, str], plan: Path) -> str | None:
    code, out = result
    if code != 0 or "verdict: PASS" not in out:
        return f"verify {plan.name}: exit {code}, no PASS verdict"
    return None


def _all_decoded(result: tuple[int, str], plan: Path, clients: int) -> str | None:
    code, out = result
    decoded = out.count(": decoded all missing packets")
    if code != 0 or decoded != clients:
        return f"simulate {plan.name}: exit {code}, {decoded}/{clients} clients decoded"
    return None


def _exit_is(result: tuple[int, str], expected: int, label: str) -> str | None:
    code, _ = result
    return None if code == expected else f"{label}: exit {code}, expected {expected}"


# ---------------------------------------------------------------- oracle-sweep


@dataclass
class OracleItem:
    instance: object
    random_matrix: object
    surplus_matrix: object


class OracleSweepWorkload:
    """Exhaustive and closed-form cross-checks on small instances, serially."""

    name = "oracle-sweep"
    tail_cap = 99

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work / "oracle-sweep"
        self.work.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.items: list[OracleItem] = []

    def setup(self) -> None:
        path = corpus.write_oracle_corpus(self.work, self.seed)
        items = []
        for line in path.read_text().splitlines():
            doc = json.loads(line)
            inst = instance_mod.parse_instance(json.dumps(doc["instance"]))
            items.append(
                OracleItem(
                    inst,
                    _matrix(doc["random_rows"], inst.k),
                    _matrix(doc["surplus_rows"], inst.k),
                )
            )
        self.items = items

    def ops_per_pass(self) -> int:
        return len(self.items)

    def op(self, i: int) -> Op:
        item = self.items[i]
        return Op("check", lambda: oracle_check(item), lambda r: oracle_agrees(item, r))

    def meta(self) -> dict:
        return {
            "max_n": corpus.ORACLE_MAX_N,
            "max_k": corpus.ORACLE_MAX_K,
            "instances": len(self.items),
            "field_degrees": [],
        }


def _matrix(rows: list[list[int]], k: int):
    return assignment.AssignmentMatrix(rows=tuple(tuple(r) for r in rows), k=k)


def oracle_check(item: OracleItem) -> dict:
    inst = item.instance
    best = oracle.brute_force_optimum(inst, budget=ORACLE_BUDGET)
    closed = assignment.closed_form_delay(inst)
    _, star = assignment.optimal_assignment(inst)
    constructed = assignment.total_delay(star, inst.delays()).total
    solvable = netflow.is_solvable(inst, item.random_matrix)
    reduced = assignment.reduce_to_exact_weights(item.surplus_matrix, inst)
    rewrite = assignment.transform_to_optimal(reduced, inst)
    return {
        "best": best.best_total,
        "closed": closed,
        "constructed": constructed,
        "solvable": solvable,
        "reduced": reduced,
        "final": rewrite.final_total,
    }


def oracle_agrees(item: OracleItem, r: dict) -> str | None:
    inst = item.instance
    want = inst.want_counts()
    if not r["best"] == r["closed"] == r["constructed"]:
        return f"enumerated {r['best']}, closed {r['closed']}, constructed {r['constructed']}"
    weights = item.random_matrix.column_weights()
    if r["solvable"] != all(w >= need for w, need in zip(weights, want)):
        return f"max flow says {r['solvable']} against weights {weights} / needs {want}"
    if r["reduced"].column_weights() != want:
        return f"reduced weights {r['reduced'].column_weights()} != needs {want}"
    if r["final"] != r["closed"]:
        return f"rewrite ends at {r['final']}, closed form {r['closed']}"
    return None


WORKLOADS = {
    w.name: w for w in (PlanWorkload, VerifySimulateWorkload, OracleSweepWorkload)
}
