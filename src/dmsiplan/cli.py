"""Command-line front end: plan, verify, oracle, simulate, transform.

Exit codes: 0 success, 2 validation/limit failures (bad documents, budget,
a plan too large to build), 3 a check or cross-verification disagreed, 4 code
construction failure.
All file formats are JSON; rationals appear as bare ints when integral and
"p/q" strings otherwise, and packet indices are 1-based on disk.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .assignment import (
    AssignmentMatrix,
    DelayReport,
    closed_form_delay,
    optimal_assignment,
    reduce_to_exact_weights,
    total_delay,
    transform_to_optimal,
)
from .coding import (
    CodeConstructionError,
    CodingMatrix,
    construct_code,
    decodability_check,
    default_field_degree,
    run_simulation,
)
from .gf import Field
from .instance import (
    DmsiInstance,
    InstanceError,
    format_rational,
    instance_document,
    parse_instance,
    parse_rational,
)
from .netflow import sink_flows
from .oracle import DEFAULT_BUDGET, BudgetExceededError, brute_force_optimum

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DISAGREEMENT = 3
EXIT_CONSTRUCTION = 4

# m* x (n + k) cells of assignment and code.  This bounds memory, not time:
# construction grows about as n^2.6, and 5 clients holding nothing took
# 11.5 s at n = 1,000, so a plan near the limit (n about 3,160) runs minutes.
PLAN_CELL_BUDGET = 10**7


class _CommandError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def _rational_text(value: Fraction) -> str:
    """Reduced fraction, with a decimal approximation when non-integral."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator} ({float(value):.6g})"


# ---------------------------------------------------------------- plan


@dataclass(frozen=True)
class PlanBundle:
    instance: DmsiInstance
    ranking: tuple[int, ...]
    matrix: AssignmentMatrix
    report: DelayReport
    closed_form: Fraction
    code: CodingMatrix


def build_plan(
    instance: DmsiInstance, field: Field | None = None, seed: int = 0
) -> PlanBundle:
    """Optimal assignment plus a code whose construction proves every client decodes."""
    ranking, matrix = optimal_assignment(instance)
    return PlanBundle(
        instance=instance,
        ranking=ranking,
        matrix=matrix,
        report=total_delay(matrix, instance.delays()),
        closed_form=closed_form_delay(instance),
        code=construct_code(instance, matrix, field=field, seed=seed),
    )


def plan_document(bundle: PlanBundle) -> dict:
    return {
        "instance": instance_document(bundle.instance),
        "ranking": [j + 1 for j in bundle.ranking],
        "assignment": [list(row) for row in bundle.matrix.rows],
        "per_packet_delay": [format_rational(d) for d in bundle.report.per_packet],
        "total_delay": format_rational(bundle.report.total),
        "closed_form_delay": format_rational(bundle.closed_form),
        "code": {
            "field_degree": bundle.code.field.e,
            "rows": [list(row) for row in bundle.code.rows],
        },
        "decodable": [True] * bundle.instance.k,
    }


def _indented_json(value: object, pad: str = "") -> str:
    """json.dumps(value, indent=2) for a document with str keys, faster.

    With indent set, json.dumps runs its pure-Python encoder.  Here lists of
    plain ints, the bulk of a plan document, are joined in one go, and
    strings go through the C string encoder json.dumps itself uses.
    """
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{encode_basestring_ascii(key)}: {_indented_json(item, inner)}"
            for key, item in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:
            items = inner + (",\n" + inner).join(map(str, value))
        else:
            items = ",\n".join(inner + _indented_json(item, inner) for item in value)
        return "[\n" + items + "\n" + pad + "]"
    if type(value) is int:
        return str(value)
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is bool:
        return "true" if value else "false"
    return json.dumps(value)


def plan_json(bundle: PlanBundle) -> str:
    return _indented_json(plan_document(bundle)) + "\n"


def _render_matrix_table(
    matrix: AssignmentMatrix, per_packet: tuple[Fraction, ...], total: Fraction
) -> str:
    k = matrix.k
    headers = [f"C{j + 1}" for j in range(k)]
    delay_texts = [_rational_text(d) for d in per_packet]
    total_text = _rational_text(total)
    label_width = max(5, len(f"p{matrix.m}"))
    cell_width = max([2] + [len(h) for h in headers])
    delay_width = max([len("delay (s)"), len(total_text)] + [len(t) for t in delay_texts])

    def fmt_row(label: str, cells: list[str], delay: str) -> str:
        body = "  ".join(c.rjust(cell_width) for c in cells)
        return f"{label.ljust(label_width)}  {body}  {delay.rjust(delay_width)}"

    lines = [fmt_row("", headers, "delay (s)")]
    for i, row in enumerate(matrix.rows):
        cells = ["1" if a else "." for a in row]
        lines.append(fmt_row(f"p{i + 1}", cells, delay_texts[i]))
    lines.append(fmt_row("total", [""] * k, total_text))
    return "\n".join(lines)


def render_plan(bundle: PlanBundle) -> str:
    order = " >= ".join(f"C{j + 1}" for j in bundle.ranking) or "(no clients)"
    lines = [
        f"clients by delay: {order}",
        _render_matrix_table(bundle.matrix, bundle.report.per_packet, bundle.report.total),
        f"closed form: {_rational_text(bundle.closed_form)}"
        + (" (matches)" if bundle.closed_form == bundle.report.total else " (MISMATCH)"),
        f"code: GF(2^{bundle.code.field.e}), {bundle.code.m} rows; all clients decodable",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------- loading


def _load_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as err:
        raise _CommandError(EXIT_VALIDATION, f"cannot read {path}: {err}")


def _load_instance(path: str) -> DmsiInstance:
    try:
        return parse_instance(_load_text(path))
    except InstanceError as err:
        raise _CommandError(EXIT_VALIDATION, f"{path}: {err}")


def _load_json(path: str) -> object:
    try:
        return json.loads(_load_text(path))
    except json.JSONDecodeError as err:
        raise _CommandError(EXIT_VALIDATION, f"{path}: not valid JSON: {err}")


def _matrix_from_document(doc: object, k: int, path: str) -> AssignmentMatrix:
    rows = doc.get("assignment") if isinstance(doc, dict) else doc
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise _CommandError(EXIT_VALIDATION, f"{path}: expected a list of 0/1 rows")
    try:
        return AssignmentMatrix(rows=tuple(tuple(r) for r in rows), k=k)
    except ValueError as err:
        raise _CommandError(EXIT_VALIDATION, f"{path}: {err}")


_RECORDED_KEYS = ("per_packet_delay", "total_delay", "closed_form_delay")


def _load_plan(
    path: str, instance: DmsiInstance
) -> tuple[dict[str, Fraction | tuple[Fraction, ...]], AssignmentMatrix, CodingMatrix | None]:
    """A plan file's recorded rationals under _RECORDED_KEYS, its matrix, and
    its code if it records one.

    The recorded values are parsed here, with the rest of the file, so that a
    malformed one stops the command before it prints anything.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise _CommandError(EXIT_VALIDATION, f"{path}: top level must be an object")
    matrix = _matrix_from_document(doc, instance.k, path)
    recorded = {key: _recorded(doc, key, path) for key in _RECORDED_KEYS if key in doc}
    if "code" not in doc:
        return recorded, matrix, None
    code_doc = doc["code"]
    if not isinstance(code_doc, dict) or "field_degree" not in code_doc or "rows" not in code_doc:
        raise _CommandError(
            EXIT_VALIDATION, f"{path}: 'code' must hold 'field_degree' and 'rows'"
        )
    try:
        field = Field(code_doc["field_degree"])
        rows = tuple(tuple(r) for r in code_doc["rows"])
        return recorded, matrix, CodingMatrix(field=field, n=instance.n, rows=rows)
    except (TypeError, ValueError) as err:
        raise _CommandError(EXIT_VALIDATION, f"{path}: {err}")


def _recorded(doc: dict, key: str, path: str) -> Fraction | tuple[Fraction, ...]:
    """A rational recorded in a plan file; per_packet_delay holds a list of them."""
    value = doc[key]
    try:
        if key != "per_packet_delay":
            return parse_rational(value, key)
        if not isinstance(value, list):
            raise InstanceError(f"{key}: expected a list, got {value!r}")
        return tuple(parse_rational(v, key) for v in value)
    except InstanceError as err:
        raise _CommandError(EXIT_VALIDATION, f"{path}: {err}")


# ---------------------------------------------------------------- commands


def cmd_plan(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    cells = max(instance.want_counts(), default=0) * (instance.n + instance.k)
    if cells > PLAN_CELL_BUDGET:
        raise _CommandError(
            EXIT_VALIDATION, f"plan needs {cells} cells, above the limit of {PLAN_CELL_BUDGET}"
        )
    degree = default_field_degree(instance.k) if args.field_degree is None else args.field_degree
    try:
        field = Field(degree)
    except ValueError as err:
        raise _CommandError(
            EXIT_VALIDATION, f"{err} for {instance.k} clients; GF(2^16) is the largest field"
        )
    try:
        bundle = build_plan(instance, field=field, seed=args.seed)
    except CodeConstructionError as err:
        raise _CommandError(EXIT_CONSTRUCTION, str(err))
    print(render_plan(bundle))
    if args.output:
        Path(args.output).write_text(plan_json(bundle))
        print(f"plan written to {args.output}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    recorded, matrix, code = _load_plan(args.plan, instance)
    want = instance.want_counts()
    problems: list[str] = []

    weight_short = [
        j for j in range(instance.k) if matrix.column_weight(j) < want[j]
    ]
    flows = sink_flows(instance, matrix)
    flow_short = [j for j, flow in enumerate(flows) if flow < instance.n]
    for j in weight_short:
        problems.append(
            f"client C{j + 1} under-assigned: weight {matrix.column_weight(j)} < {want[j]}"
        )
    for j in flow_short:
        problems.append(f"client C{j + 1} max flow {flows[j]} < {instance.n}")
    print(
        "feasibility (column weights): "
        + ("ok" if not weight_short else f"FAIL ({len(weight_short)} clients)")
    )
    print(
        "feasibility (max flow):      "
        + ("ok" if not flow_short else f"FAIL ({len(flow_short)} clients)")
    )
    if weight_short != flow_short:
        problems.append(
            f"criteria disagree: weights flag {weight_short}, flow flags {flow_short}"
        )

    report = total_delay(matrix, instance.delays())
    if "per_packet_delay" in recorded:
        match = recorded["per_packet_delay"] == report.per_packet
        if not match:
            problems.append("per-packet delays in file do not match recomputation")
        print("per-packet delays:           " + ("ok" if match else "FAIL"))
    if "total_delay" in recorded:
        match = recorded["total_delay"] == report.total
        if not match:
            problems.append(
                f"total delay in file is {_rational_text(recorded['total_delay'])}, "
                f"recomputed {_rational_text(report.total)}"
            )
        print("total delay:                 " + ("ok" if match else "FAIL"))
    if "closed_form_delay" in recorded:
        match = recorded["closed_form_delay"] == closed_form_delay(instance)
        if not match:
            problems.append("closed-form delay in file does not match recomputation")
        print("closed-form delay:           " + ("ok" if match else "FAIL"))

    if code is not None:
        if code.m != matrix.m:
            problems.append(f"code has {code.m} rows for {matrix.m} broadcast packets")
            print("decodability:                FAIL (row count mismatch)")
        else:
            decodable = decodability_check(instance, matrix, code)
            bad = [j for j, ok in enumerate(decodable) if not ok]
            for j in bad:
                problems.append(f"client C{j + 1} cannot decode: rank below {want[j]}")
            print(
                "decodability:                "
                + ("ok" if not bad else f"FAIL (clients {[j + 1 for j in bad]})")
            )

    if problems:
        for p in problems:
            print(f"  - {p}")
        print("verdict: FAIL")
        return EXIT_DISAGREEMENT
    print("verdict: PASS")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    try:
        result = brute_force_optimum(instance, m_cap=args.m_cap, budget=args.budget)
    except (BudgetExceededError, ValueError) as err:
        raise _CommandError(EXIT_VALIDATION, str(err))
    closed = closed_form_delay(instance)
    agrees = result.best_total == closed
    print(
        f"searched m in [{result.m_range[0]}, {result.m_range[1]}]; "
        f"{result.matrices_examined} candidates examined"
    )
    print(f"enumerated minimum: {_rational_text(result.best_total)}")
    print(f"closed form:        {_rational_text(closed)}")
    print("agreement: " + ("yes" if agrees else "NO"))
    if args.output:
        out = {
            "best_total": format_rational(result.best_total),
            "best_matrix": [list(row) for row in result.best_matrix.rows],
            "matrices_examined": result.matrices_examined,
            "m_range": list(result.m_range),
            "closed_form_delay": format_rational(closed),
            "agrees": agrees,
        }
        Path(args.output).write_text(json.dumps(out, indent=2) + "\n")
    return EXIT_OK if agrees else EXIT_DISAGREEMENT


def cmd_simulate(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    # every recorded delay is read: a file that verify refuses is refused here too
    recorded, matrix, code = _load_plan(args.plan, instance)
    if code is None:
        raise _CommandError(
            EXIT_VALIDATION, f"{args.plan}: simulation needs a plan with a 'code'"
        )
    if code.m != matrix.m:
        raise _CommandError(
            EXIT_VALIDATION,
            f"{args.plan}: code has {code.m} rows for {matrix.m} broadcast packets",
        )
    sim = run_simulation(instance, matrix, code, payload_seed=args.payload_seed)
    for i in range(matrix.m):
        recipients = " ".join(
            f"C{j + 1}" for j in range(instance.k) if matrix.rows[i][j]
        )
        print(
            f"t={_rational_text(sim.clock[i])}: broadcast packet p{i + 1} delivered"
            + (f" to {recipients}" if recipients else " (no recipients)")
        )
    ok = True
    for j in range(instance.k):
        status = "decoded all missing packets" if sim.decoded_ok[j] else "DECODE FAILED"
        ok = ok and sim.decoded_ok[j]
        print(f"C{j + 1} complete at t={_rational_text(sim.completion[j])}: {status}")
    closed = closed_form_delay(instance)
    print(f"final clock: {_rational_text(sim.final_clock)}")
    print(f"closed form: {_rational_text(closed)}")
    if "total_delay" in recorded and recorded["total_delay"] != sim.final_clock:
        print(
            f"plan total {_rational_text(recorded['total_delay'])} != simulated clock "
            f"{_rational_text(sim.final_clock)}"
        )
        ok = False
    return EXIT_OK if ok else EXIT_DISAGREEMENT


def cmd_transform(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    doc = _load_json(args.matrix)
    matrix = _matrix_from_document(doc, instance.k, args.matrix)
    want = instance.want_counts()
    weights = matrix.column_weights()
    if any(weight < w for weight, w in zip(weights, want)):
        raise _CommandError(
            EXIT_VALIDATION,
            f"matrix is infeasible: column weights {weights} vs needs {want}",
        )
    if weights != want:
        if not args.auto_reduce:
            raise _CommandError(
                EXIT_VALIDATION,
                f"column weights {weights} exceed needs {want}; "
                "pass --auto-reduce to strip surplus assignments",
            )
        matrix = reduce_to_exact_weights(matrix, instance)
        print("surplus assignments removed:")
        print(_indent_matrix(matrix))
    trace = transform_to_optimal(matrix, instance)
    order = " >= ".join(f"C{j + 1}" for j in trace.ranking) or "(no clients)"
    print(f"columns in delay order: {order}")
    for step in trace.steps:
        print(f"{step.label} (total {_rational_text(step.total)}):")
        print(_indent_matrix(step.matrix))
    closed = closed_form_delay(instance)
    agrees = trace.final_total == closed
    print(
        f"final total {_rational_text(trace.final_total)}; "
        f"closed form {_rational_text(closed)}"
        + (" (matches)" if agrees else " (MISMATCH)")
    )
    return EXIT_OK if agrees else EXIT_DISAGREEMENT


def _indent_matrix(matrix: AssignmentMatrix) -> str:
    if not matrix.rows:
        return "  (no rows)"
    return "\n".join("  " + " ".join(str(a) for a in row) for row in matrix.rows)


# ---------------------------------------------------------------- entry


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmsiplan",
        description="Minimum-total-delay broadcast planning for clients with side information",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="compute the optimal assignment and a verified code")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--field-degree", type=int, metavar="E", help="use GF(2^E)")
    p.add_argument("--seed", type=int, default=0, help="code construction seed")
    p.add_argument("--output", metavar="FILE", help="write the plan JSON here")
    p.set_defaults(handler=cmd_plan)

    p = sub.add_parser("verify", help="re-derive and check a plan or scheme file")
    p.add_argument("instance")
    p.add_argument("plan")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustively confirm the closed-form minimum")
    p.add_argument("instance")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--m-cap", type=int, dest="m_cap")
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("simulate", help="broadcast a random payload and decode")
    p.add_argument("instance")
    p.add_argument("plan")
    p.add_argument("--payload-seed", type=int, default=0)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("transform", help="rewrite a matrix into the optimal one")
    p.add_argument("instance")
    p.add_argument("matrix", help="JSON rows, or any file with an 'assignment' key")
    p.add_argument("--auto-reduce", action="store_true")
    p.set_defaults(handler=cmd_transform)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _CommandError as err:
        print(f"error: {err.message}", file=sys.stderr)
        return err.code


def run() -> None:
    raise SystemExit(main())
