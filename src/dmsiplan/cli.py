"""Command-line front end: plan, verify, oracle, simulate, transform.

Exit codes: 0 success, 2 validation/limit failures (bad documents, a file
that cannot be read, decoded or written, budget, a plan too large to build),
3 a check or cross-verification disagreed, 4 code construction failure; a
run whose stdout reader closes early exits 1, silently.
All file formats are JSON; rationals appear as bare ints when integral and
"p/q" strings otherwise, and packet indices are 1-based on disk.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable

from .assignment import (
    AssignmentMatrix,
    DelayReport,
    closed_form_delay,
    optimal_assignment,
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
    check_digits,
    format_rational,
    parse_instance,
    parse_json,
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
    """Reduced fraction, with a decimal approximation when non-integral and
    within float range."""
    if value.denominator == 1:
        return str(value.numerator)
    text = f"{value.numerator}/{value.denominator}"
    try:
        return f"{text} ({float(value):.6g})"
    except OverflowError:
        return text


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


def _json_list(items: Iterable[str], pad: str) -> str:
    """A JSON list of already-written items, laid out as json.dumps(indent=2)
    lays it out when the list opens at indent `pad`."""
    inner = pad + "  "
    text = (",\n" + inner).join(items)
    return f"[\n{inner}{text}\n{pad}]" if text else "[]"


def _rational_json(value: Fraction) -> str:
    text = format_rational(value)
    return str(text) if type(text) is int else encode_basestring_ascii(text)


def plan_json(bundle: PlanBundle) -> str:
    """The plan file: what json.dumps(document, indent=2) writes, and a newline.

    With indent set, json.dumps runs its pure-Python encoder, one call per
    element.  The document's layout is fixed, so it is written here directly:
    each int list, or matrix row, in one join, and rationals through the C
    string encoder json.dumps itself uses.  The assignment repeats its rows
    (client j takes the topmost w_j), so each distinct row is written once.
    """
    instance, code, rows = bundle.instance, bundle.code, bundle.matrix.rows
    clients = _json_list(
        (
            f'{{\n        "has": {_json_list([str(x + 1) for x in sorted(c.has)], " " * 8)},'
            f'\n        "delay": {_rational_json(c.delay)}\n      }}'
            for c in instance.clients
        ),
        " " * 4,
    )
    row_texts = {row: _json_list(map(str, row), " " * 4) for row in set(rows)}
    assignment = map(row_texts.__getitem__, rows)
    code_rows = [_json_list(map(str, row), " " * 6) for row in code.rows]
    per_packet = map(_rational_json, bundle.report.per_packet)
    return (
        f'{{\n  "instance": {{\n    "n": {instance.n},\n    "clients": {clients}\n  }},'
        f'\n  "ranking": {_json_list([str(j + 1) for j in bundle.ranking], "  ")},'
        f'\n  "assignment": {_json_list(assignment, "  ")},'
        f'\n  "per_packet_delay": {_json_list(per_packet, "  ")},'
        f'\n  "total_delay": {_rational_json(bundle.report.total)},'
        f'\n  "closed_form_delay": {_rational_json(bundle.closed_form)},'
        f'\n  "code": {{\n    "field_degree": {code.field.e},'
        f'\n    "rows": {_json_list(code_rows, " " * 4)}\n  }},'
        f'\n  "decodable": {_json_list(["true"] * instance.k, "  ")}\n}}\n'
    )


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

    def fmt_row(label: str, body: str, delay: str) -> str:
        return f"{label.ljust(label_width)}  {body}  {delay.rjust(delay_width)}"

    # the matrix repeats its rows (client j takes the topmost w_j), so each
    # distinct row's cells, padded once, are joined once
    one, dot = "1".rjust(cell_width), ".".rjust(cell_width)
    bodies = {row: "  ".join([one if a else dot for a in row]) for row in set(matrix.rows)}
    lines = [fmt_row("", "  ".join(h.rjust(cell_width) for h in headers), "delay (s)")]
    for i, row in enumerate(matrix.rows):
        lines.append(fmt_row(f"p{i + 1}", bodies[row], delay_texts[i]))
    lines.append(fmt_row("total", "  ".join([" " * cell_width] * k), total_text))
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


# ---------------------------------------------------------------- files


def _read(path: str, parse: Callable[[str], object] = parse_json) -> object:
    """A file's text, parsed; a file that cannot be read, decoded or parsed exits 2."""
    try:
        return parse(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as err:
        raise _CommandError(EXIT_VALIDATION, f"cannot read {path}: {err}")
    except InstanceError as err:
        raise _CommandError(EXIT_VALIDATION, f"{path}: {err}")


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as err:
        raise _CommandError(EXIT_VALIDATION, f"cannot write {path}: {err}")


def _matrix_from_document(doc: object, instance: DmsiInstance, path: str) -> AssignmentMatrix:
    """The assignment in a plan or matrix file; its total must be printable."""
    rows = doc.get("assignment") if isinstance(doc, dict) else doc
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise _CommandError(EXIT_VALIDATION, f"{path}: expected a list of 0/1 rows")
    try:
        matrix = AssignmentMatrix(rows=tuple(tuple(r) for r in rows), k=instance.k)
        check_digits(instance, matrix.m)
    except ValueError as err:
        raise _CommandError(EXIT_VALIDATION, f"{path}: {err}")
    return matrix


def _load_plan(
    path: str, instance: DmsiInstance
) -> tuple[dict[str, Fraction | tuple[Fraction, ...]], AssignmentMatrix, CodingMatrix | None]:
    """A plan file's recorded delays by key, its matrix, and its code if it
    records one.

    The recorded delays are parsed here, with the rest of the file, so that a
    malformed one stops the command before it prints anything.
    """
    doc = _read(path)
    if not isinstance(doc, dict):
        raise _CommandError(EXIT_VALIDATION, f"{path}: top level must be an object")
    matrix = _matrix_from_document(doc, instance, path)
    recorded, code = {}, doc.get("code")
    try:
        if "per_packet_delay" in doc:
            delays = doc["per_packet_delay"]
            if not isinstance(delays, list):
                raise InstanceError(f"per_packet_delay: expected a list, got {delays!r}")
            recorded["per_packet_delay"] = tuple(
                parse_rational(v, "per_packet_delay") for v in delays
            )
        for key in ("total_delay", "closed_form_delay"):
            if key in doc:
                recorded[key] = parse_rational(doc[key], key)
        if "code" in doc:
            if not isinstance(code, dict) or not {"field_degree", "rows"} <= code.keys():
                raise ValueError("'code' must hold 'field_degree' and 'rows'")
            code = CodingMatrix(field=Field(code["field_degree"]), n=instance.n, rows=code["rows"])
    except (TypeError, ValueError) as err:
        raise _CommandError(EXIT_VALIDATION, f"{path}: {err}")
    return recorded, matrix, code


# ---------------------------------------------------------------- commands


def cmd_plan(args: argparse.Namespace) -> int:
    instance = _read(args.instance, parse_instance)
    cells = max(instance.want_counts(), default=0) * (instance.n + instance.k)
    if cells > PLAN_CELL_BUDGET:
        raise _CommandError(
            EXIT_VALIDATION, f"plan needs {cells} cells, above the limit of {PLAN_CELL_BUDGET}"
        )
    degree = default_field_degree(instance.k) if args.field_degree is None else args.field_degree
    try:
        field = Field(degree)
    except ValueError as err:
        message = str(err)
        if args.field_degree is None:  # the default degree: too many clients for any field
            message += f" for {instance.k} clients; GF(2^16) is the largest field"
        raise _CommandError(EXIT_VALIDATION, message)
    try:
        bundle = build_plan(instance, field=field, seed=args.seed)
    except CodeConstructionError as err:
        raise _CommandError(EXIT_CONSTRUCTION, str(err))
    text = render_plan(bundle)
    if args.output:  # written before anything is printed: a closed reader cannot stop it
        _write(args.output, plan_json(bundle))
        text += f"\nplan written to {args.output}"
    print(text)
    return EXIT_OK


def _status(label: str, text: str) -> str:
    """One of verify's status lines, values aligned after the label."""
    return f"{label + ':':<28} {text}"


def cmd_verify(args: argparse.Namespace) -> int:
    instance = _read(args.instance, parse_instance)
    recorded, matrix, code = _load_plan(args.plan, instance)
    want, weights = instance.want_counts(), matrix.column_weights()
    weight_short = [j for j in range(instance.k) if weights[j] < want[j]]
    flows = sink_flows(instance, matrix)
    flow_short = [j for j, flow in enumerate(flows) if flow < instance.n]
    problems = [
        f"client C{j + 1} under-assigned: weight {weights[j]} < {want[j]}"
        for j in weight_short
    ] + [f"client C{j + 1} max flow {flows[j]} < {instance.n}" for j in flow_short]
    lines = [
        _status(f"feasibility ({label})", f"FAIL ({len(short)} clients)" if short else "ok")
        for label, short in (("column weights", weight_short), ("max flow", flow_short))
    ]
    if weight_short != flow_short:
        problems.append(f"criteria disagree: weights flag {weight_short}, flow flags {flow_short}")

    report = total_delay(matrix, instance.delays())
    recorded_total = _rational_text(recorded.get("total_delay", report.total))
    for key, label, fresh, problem in (
        ("per_packet_delay", "per-packet delays", report.per_packet,
         "per-packet delays in file do not match recomputation"),
        ("total_delay", "total delay", report.total,
         f"total delay in file is {recorded_total}, recomputed {_rational_text(report.total)}"),
        ("closed_form_delay", "closed-form delay", closed_form_delay(instance),
         "closed-form delay in file does not match recomputation"),
    ):
        if key in recorded:
            match = recorded[key] == fresh
            if not match:
                problems.append(problem)
            lines.append(_status(label, "ok" if match else "FAIL"))

    if code is not None:
        if code.m != matrix.m:
            problems.append(f"code has {code.m} rows for {matrix.m} broadcast packets")
            lines.append(_status("decodability", "FAIL (row count mismatch)"))
        else:
            decodable = decodability_check(instance, matrix, code)
            bad = [j for j, ok in enumerate(decodable) if not ok]
            for j in bad:
                problems.append(f"client C{j + 1} cannot decode: rank below {want[j]}")
            lines.append(
                _status("decodability", f"FAIL (clients {[j + 1 for j in bad]})" if bad else "ok")
            )

    lines += [f"  - {p}" for p in problems]
    lines.append("verdict: " + ("FAIL" if problems else "PASS"))
    print("\n".join(lines))
    return EXIT_DISAGREEMENT if problems else EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = _read(args.instance, parse_instance)
    try:
        result = brute_force_optimum(instance, budget=args.budget)
    except BudgetExceededError as err:
        raise _CommandError(EXIT_VALIDATION, str(err))
    closed = closed_form_delay(instance)
    agrees = result.best_total == closed
    if args.output:  # written before anything is printed: a closed reader cannot stop it
        out = {
            "best_total": format_rational(result.best_total),
            "best_matrix": [list(row) for row in result.best_matrix.rows],
            "matrices_examined": result.matrices_examined,
            "m_range": list(result.m_range),
            "closed_form_delay": format_rational(closed),
            "agrees": agrees,
        }
        _write(args.output, json.dumps(out, indent=2) + "\n")
    print(
        f"searched m in [{result.m_range[0]}, {result.m_range[1]}]; "
        f"{result.matrices_examined} candidates examined\n"
        f"enumerated minimum: {_rational_text(result.best_total)}\n"
        f"closed form:        {_rational_text(closed)}\n"
        "agreement: " + ("yes" if agrees else "NO")
    )
    return EXIT_OK if agrees else EXIT_DISAGREEMENT


def cmd_simulate(args: argparse.Namespace) -> int:
    instance = _read(args.instance, parse_instance)
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
    names = [f"C{j + 1}" for j in range(instance.k)]
    lines = []
    for i, (clock, row) in enumerate(zip(sim.clock, matrix.rows)):
        recipients = " ".join(compress(names, row))
        lines.append(
            f"t={_rational_text(clock)}: broadcast packet p{i + 1} delivered"
            + (f" to {recipients}" if recipients else " (no recipients)")
        )
    ok = all(sim.decoded_ok)
    for j in range(instance.k):
        status = "decoded all missing packets" if sim.decoded_ok[j] else "DECODE FAILED"
        lines.append(f"C{j + 1} complete at t={_rational_text(sim.completion[j])}: {status}")
    lines.append(f"final clock: {_rational_text(sim.final_clock)}")
    lines.append(f"closed form: {_rational_text(closed_form_delay(instance))}")
    if "total_delay" in recorded and recorded["total_delay"] != sim.final_clock:
        lines.append(
            f"plan total {_rational_text(recorded['total_delay'])} != simulated clock "
            f"{_rational_text(sim.final_clock)}"
        )
        ok = False
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_DISAGREEMENT


def cmd_transform(args: argparse.Namespace) -> int:
    instance = _read(args.instance, parse_instance)
    matrix = _matrix_from_document(_read(args.matrix), instance, args.matrix)
    try:
        trace = transform_to_optimal(matrix, instance)
    except ValueError as err:
        raise _CommandError(EXIT_VALIDATION, f"{args.matrix}: {err}")
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

    p = sub.add_parser("oracle",
                       help="confirm the closed-form minimum by a complete search")
    p.add_argument("instance")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="exit 2 past this many search nodes plus candidates, row patterns, "
                        "or m* rows")
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
    """main as a process: its status, or 1 and no traceback when stdout's
    reader closes early."""
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early: send the rest nowhere, so the exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)


if __name__ == "__main__":
    run()
