"""End-to-end runs of every subcommand through main(), plus the exit-code
contract: 0 ok, 2 validation, 3 disagreement, 4 construction failure."""

import copy
import hashlib
import json
import os
import random
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from importlib.metadata import EntryPoint
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import dmsiplan
from conftest import (
    DEMO_DOC,
    HAND_PLAN_ROWS,
    IMPOSSIBLE_GF2_DOC,
    LONG_INT,
    LONG_NUMBER_INSTANCES,
    OPTIMAL_PLAN_ROWS,
    instance_document,
    requires_digit_limit,
)
from dmsiplan import (
    AssignmentMatrix,
    CodingMatrix,
    Field,
    closed_form_delay,
    coding,
    format_rational,
    oracle,
    parse_instance,
    total_delay,
)
from dmsiplan.cli import (
    PlanBundle,
    _build_parser,
    _rational_text,
    build_plan,
    main,
    plan_json,
    render_plan,
)


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def make_plan(tmp_path, capsys):
    """Run `plan` on the worked example; returns (instance path, plan doc path)."""
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    out = tmp_path / "plan.json"
    assert main(["plan", inst, "--output", str(out)]) == 0
    capsys.readouterr()
    return inst, out


def test_plan_prints_and_writes(tmp_path, capsys):
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    out = tmp_path / "plan.json"
    assert main(["plan", inst, "--output", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "clients by delay: C1 >= C2 >= C3 >= C4" in shown
    assert "closed form: 20 (matches)" in shown
    assert "all clients decodable" in shown
    assert f"plan written to {out}" in shown

    doc = json.loads(out.read_text())
    assert doc["instance"]["n"] == 6
    assert doc["ranking"] == [1, 2, 3, 4]
    assert doc["assignment"] == [list(row) for row in OPTIMAL_PLAN_ROWS]
    assert doc["per_packet_delay"] == [8, 8, 2, 1, 1]
    assert doc["total_delay"] == 20
    assert doc["closed_form_delay"] == 20
    assert doc["code"]["field_degree"] == 2
    assert len(doc["code"]["rows"]) == 5
    assert all(0 <= v < 4 for row in doc["code"]["rows"] for v in row)
    assert doc["decodable"] == [True] * 4


def test_plan_output_is_byte_deterministic(tmp_path, capsys):
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["plan", inst, "--output", str(first)]) == 0
    assert main(["plan", inst, "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    """main keeps one parser per process; no call may see another's arguments."""
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    demo = parse_instance(json.dumps(DEMO_DOC))
    seeded, unseeded = tmp_path / "seed3.json", tmp_path / "seed0.json"
    assert main(["plan", inst, "--seed", "3", "--output", str(seeded)]) == 0
    assert main(["plan", inst, "--output", str(unseeded)]) == 0
    assert seeded.read_text() == plan_json(build_plan(demo, seed=3))
    assert unseeded.read_text() == plan_json(build_plan(demo, seed=0))
    assert seeded.read_text() != unseeded.read_text()

    with pytest.raises(SystemExit):
        main(["plan", inst, "--seed", "three"])
    with pytest.raises(SystemExit):
        main(["verify", inst])
    assert main(["verify", inst, str(unseeded)]) == 0
    assert main(["simulate", inst, str(unseeded)]) == 0
    shown = capsys.readouterr().out
    assert "verdict: PASS" in shown
    assert shown.count("decoded all missing packets") == 4


def test_verify_passes_on_fresh_plan(tmp_path, capsys):
    inst, out = make_plan(tmp_path, capsys)
    assert main(["verify", inst, str(out)]) == 0
    shown = capsys.readouterr().out
    assert "verdict: PASS" in shown
    assert "FAIL" not in shown


def test_verify_flags_dropped_assignment_row(tmp_path, capsys):
    inst, out = make_plan(tmp_path, capsys)
    doc = json.loads(out.read_text())
    del doc["assignment"][0]
    tampered = write_json(tmp_path / "tampered.json", doc)
    assert main(["verify", inst, tampered]) == 3
    shown = capsys.readouterr().out
    assert "under-assigned" in shown
    assert "feasibility (column weights): FAIL" in shown
    assert "feasibility (max flow):      FAIL" in shown
    # C4 holds one of six packets and keeps four of the five rows it needs
    assert "client C4 max flow 5 < 6" in shown
    # both criteria must flag the same clients
    assert "criteria disagree" not in shown
    assert "verdict: FAIL" in shown


def test_verify_flags_corrupted_code_only(tmp_path, capsys):
    inst, out = make_plan(tmp_path, capsys)
    doc = json.loads(out.read_text())
    doc["code"]["rows"][0] = [0] * 6
    tampered = write_json(tmp_path / "tampered.json", doc)
    assert main(["verify", inst, tampered]) == 3
    shown = capsys.readouterr().out
    assert "feasibility (column weights): ok" in shown
    assert "cannot decode" in shown
    assert "verdict: FAIL" in shown


def test_verify_flags_recorded_total_mismatch(tmp_path, capsys):
    inst, out = make_plan(tmp_path, capsys)
    doc = json.loads(out.read_text())
    doc["total_delay"] = 21
    tampered = write_json(tmp_path / "tampered.json", doc)
    assert main(["verify", inst, tampered]) == 3
    shown = capsys.readouterr().out
    assert "total delay in file is 21, recomputed 20" in shown


def test_verify_accepts_bare_scheme_file(tmp_path, capsys):
    """A file holding only assignment rows verifies without delay or code checks."""
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    scheme = write_json(tmp_path / "scheme.json", {"assignment": [list(r) for r in HAND_PLAN_ROWS]})
    assert main(["verify", inst, scheme]) == 0
    shown = capsys.readouterr().out
    assert "verdict: PASS" in shown
    assert "decodability" not in shown


def test_oracle_command_agrees(tmp_path, capsys):
    """At the default budget."""
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    out = tmp_path / "oracle.json"
    assert main(["oracle", inst, "--output", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "searched m in [5, 11]; 147 candidates examined\n" in shown
    assert "agreement: yes" in shown
    doc = json.loads(out.read_text())
    assert doc["best_total"] == 20
    assert doc["best_matrix"] == [list(row) for row in OPTIMAL_PLAN_ROWS]
    assert doc["matrices_examined"] == 147
    assert doc["m_range"] == [5, 11]
    assert doc["agrees"] is True


def test_oracle_budget_counts_the_walks_work(tmp_path, capsys):
    """The demo's walk enters 109 nodes and scores 147 candidates."""
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    assert main(["oracle", inst, "--budget", "255"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: search nodes entered plus candidates scored exceed budget 255; raise the budget\n"
    )
    assert main(["oracle", inst, "--budget", "256"]) == 0
    assert "agreement: yes" in capsys.readouterr().out


def test_oracle_refuses_a_pattern_table_past_the_budget(tmp_path, capsys, monkeypatch):
    """24 clients that hold none of 12 packets have one candidate but would
    need 2^24 - 1 row patterns."""

    def built(*args):
        raise AssertionError("the pattern table was built")

    monkeypatch.setattr(oracle, "_row_patterns", built)
    doc = {"n": 12, "clients": [{"has": [], "delay": 1}] * 24}
    inst = write_json(tmp_path / "instance.json", doc)
    assert main(["oracle", inst]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 16777215 row patterns") and "budget" in captured.err


def test_oracle_refuses_m_star_past_the_budget(tmp_path, capsys):
    """One client that lacks 1,001 packets: the witness alone has 1,001 rows."""
    inst = write_json(tmp_path / "instance.json", {"n": 1001, "clients": [{"has": [], "delay": 1}]})
    assert main(["oracle", inst, "--budget", "1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 1001 rows for the client that misses the most packets exceed budget 1000; "
        "raise the budget\n"
    )
    assert main(["oracle", inst, "--budget", "1001"]) == 0
    assert "agreement: yes" in capsys.readouterr().out


def test_oracle_searches_past_twelve_rows(tmp_path, capsys):
    """4 clients that hold none of 12 packets: the complete search runs to
    48 rows and passes a budget of 100,000 units.  A search capped at 12
    rows would find its one candidate at once."""
    doc = {"n": 12, "clients": [{"has": [], "delay": 1}] * 4}
    inst = write_json(tmp_path / "instance.json", doc)
    assert main(["oracle", inst, "--budget", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: search nodes entered plus candidates scored exceed budget 100000; "
        "raise the budget\n"
    )


def test_simulate_round_trips(tmp_path, capsys):
    inst, out = make_plan(tmp_path, capsys)
    assert main(["simulate", inst, str(out)]) == 0
    shown = capsys.readouterr().out
    assert "final clock: 20" in shown
    assert shown.count("decoded all missing packets") == 4
    assert "DECODE FAILED" not in shown


def test_simulate_flags_corrupted_code(tmp_path, capsys):
    inst, out = make_plan(tmp_path, capsys)
    doc = json.loads(out.read_text())
    doc["code"]["rows"][0] = [0] * 6
    tampered = write_json(tmp_path / "tampered.json", doc)
    assert main(["simulate", inst, tampered]) == 3
    assert "DECODE FAILED" in capsys.readouterr().out


def test_verify_refuses_a_plan_that_is_not_json(tmp_path, capsys):
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    plan = tmp_path / "plan.json"
    plan.write_text("{not json")
    assert main(["verify", inst, str(plan)]) == 2
    assert f"error: {plan}: not valid JSON: " in capsys.readouterr().err


def test_verify_refuses_a_plan_whose_top_level_is_a_list(tmp_path, capsys):
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    plan = write_json(tmp_path / "plan.json", [list(r) for r in OPTIMAL_PLAN_ROWS])
    assert main(["verify", inst, plan]) == 2
    assert capsys.readouterr().err == f"error: {plan}: top level must be an object\n"


def test_simulate_refuses_a_plan_without_a_code(tmp_path, capsys):
    inst, out = make_plan(tmp_path, capsys)
    doc = json.loads(out.read_text())
    del doc["code"]
    plan = write_json(tmp_path / "no_code.json", doc)
    assert main(["simulate", inst, plan]) == 2
    shown = capsys.readouterr()
    assert shown.err == f"error: {plan}: simulation needs a plan with a 'code'\n"
    assert shown.out == ""


def test_transform_prints_a_step_without_rows(tmp_path, capsys):
    """A client that holds every packet needs no rows at any step."""
    inst = write_json(tmp_path / "instance.json", {"n": 1, "clients": [{"has": [1], "delay": 1}]})
    rows = write_json(tmp_path / "rows.json", [])
    assert main(["transform", inst, rows]) == 0
    assert capsys.readouterr().out == (
        "columns in delay order: C1\n"
        "initial (total 0):\n  (no rows)\n"
        "step 1 (total 0):\n  (no rows)\n"
        "step 2 (total 0):\n  (no rows)\n"
        "final total 0; closed form 0 (matches)\n"
    )


def test_fractional_totals_show_a_decimal(tmp_path, capsys):
    inst = write_json(tmp_path / "instance.json", {"n": 1, "clients": [{"has": [], "delay": "7/3"}]})
    assert main(["plan", inst]) == 0
    shown = capsys.readouterr().out
    assert "p1      1  7/3 (2.33333)" in shown
    assert "closed form: 7/3 (2.33333) (matches)" in shown
    assert _rational_text(Fraction(-1, 8)) == "-1/8 (-0.125)"
    assert _rational_text(Fraction(6, 3)) == "2"


def test_transform_walks_to_the_optimum(tmp_path, capsys):
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    rows = write_json(tmp_path / "rows.json", [list(r) for r in HAND_PLAN_ROWS])
    assert main(["transform", inst, rows]) == 0
    shown = capsys.readouterr().out
    assert "columns in delay order: C1 >= C2 >= C3 >= C4" in shown
    assert "step 5" in shown
    assert "final total 20; closed form 20 (matches)" in shown


def test_transform_strips_surplus_without_a_flag(tmp_path, capsys):
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    padded = [list(r) for r in HAND_PLAN_ROWS] + [[1, 1, 1, 1]]
    rows = write_json(tmp_path / "rows.json", padded)
    assert main(["transform", inst, rows]) == 0
    shown = capsys.readouterr().out
    assert "initial (total 32):" in shown
    assert "surplus removed (total 26):" in shown
    assert "final total 20; closed form 20 (matches)" in shown
    with pytest.raises(SystemExit) as exc:
        main(["transform", inst, rows, "--auto-reduce"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --auto-reduce" in capsys.readouterr().err


def test_transform_rejects_infeasible_matrix(tmp_path, capsys):
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    rows = write_json(tmp_path / "rows.json", [list(r) for r in HAND_PLAN_ROWS[1:]])
    assert main(["transform", inst, rows]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_malformed_instance_exits_2(tmp_path, capsys):
    bad = write_json(
        tmp_path / "bad.json",
        {"n": 2, "clients": [{"has": [], "delay": 1.5}]},
    )
    assert main(["plan", bad]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("verify", "per_packet_delay", [0.5]),
        ("verify", "per_packet_delay", 5),
        ("verify", "total_delay", 0.5),
        ("verify", "closed_form_delay", [1]),
        ("simulate", "total_delay", 0.5),
        ("simulate", "per_packet_delay", 5),
        ("simulate", "closed_form_delay", [1]),
        ("verify", "total_delay", "\u0662\u0660"),  # 20 in Arabic-Indic digits
        # a negative int is refused as "-20" is, by both commands
        ("verify", "total_delay", -20),
        ("verify", "closed_form_delay", -20),
        ("verify", "per_packet_delay", [-8, 8, 2, 1, 1]),
        ("simulate", "total_delay", -20),
        ("simulate", "closed_form_delay", -20),
        ("simulate", "per_packet_delay", [-8, 8, 2, 1, 1]),
    ],
)
def test_malformed_recorded_delay_exits_2(tmp_path, capsys, command, key, value):
    inst, out = make_plan(tmp_path, capsys)
    doc = json.loads(out.read_text())
    doc[key] = value
    tampered = write_json(tmp_path / "tampered.json", doc)
    assert main([command, inst, tampered]) == 2
    shown = capsys.readouterr()
    assert f"error: {tampered}: {key}" in shown.err
    # the value is read before anything is checked or broadcast
    assert shown.out == ""


@pytest.mark.parametrize("rows", [5, [5], "abc", {"a": 1}])
@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_code_rows_that_are_not_a_list_of_rows_exit_2(tmp_path, capsys, command, rows):
    """The code's grid is checked as the assignment's is, and named: not
    read as rows of one element, and no TypeError from Python."""
    inst, out = make_plan(tmp_path, capsys)
    doc = json.loads(out.read_text())
    doc["code"]["rows"] = rows
    tampered = write_json(tmp_path / "tampered.json", doc)
    assert main([command, inst, tampered]) == 2
    shown = capsys.readouterr()
    assert shown.err == f"error: {tampered}: expected a list of code rows\n"
    assert shown.out == ""


def test_plan_beyond_the_largest_field_exits_2(tmp_path, capsys):
    """65,537 clients need q >= 65,537, one degree past GF(2^16)."""
    doc = {"n": 1, "clients": [{"has": [], "delay": 1}] * 65_537}
    inst = write_json(tmp_path / "instance.json", doc)
    assert main(["plan", inst]) == 2
    assert capsys.readouterr().err == (
        "error: extension degree must be an int in [1, 16], got 17 "
        "for 65537 clients; GF(2^16) is the largest field\n"
    )


@pytest.mark.parametrize("degree", ["0", "17", "-3"])
def test_plan_with_a_field_degree_out_of_range_exits_2(tmp_path, capsys, degree):
    """A degree given on the command line is refused as given: the client
    count played no part in it."""
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    assert main(["plan", inst, "--field-degree", degree]) == 2
    shown = capsys.readouterr()
    assert shown.err == f"error: extension degree must be an int in [1, 16], got {degree}\n"
    assert shown.out == ""


def test_plan_over_the_cell_limit_exits_2(tmp_path, capsys, monkeypatch):
    """10^8 packets would need a 10^8 x 10^8 code; refused before any is built."""
    doc = {"n": 10**8, "clients": [{"has": [], "delay": 1}]}
    inst = write_json(tmp_path / "instance.json", doc)
    monkeypatch.setattr(dmsiplan.cli, "build_plan", lambda *a, **kw: pytest.fail("built"))
    assert main(["plan", inst]) == 2
    assert "above the limit" in capsys.readouterr().err


def test_plan_of_rows_past_the_cell_limit_exits_2(tmp_path, capsys, monkeypatch):
    """One row of 11 cells is within a limit of 100, but the m* = 10 rows
    that one client holding nothing needs are not."""
    monkeypatch.setattr(dmsiplan.cli, "PLAN_CELL_BUDGET", 100)
    monkeypatch.setattr(dmsiplan.cli, "build_plan", lambda *a, **kw: pytest.fail("built"))
    inst = write_json(tmp_path / "instance.json", {"n": 10, "clients": [{"has": [], "delay": 1}]})
    err = _exits_2_with_one_line(["plan", inst], capsys)
    assert err == "error: plan needs 110 cells, above the limit of 100\n"


@pytest.mark.parametrize("command", ["plan", "verify", "simulate"])
def test_a_row_past_the_cell_limit_exits_2(tmp_path, capsys, monkeypatch, command):
    """No client misses a packet, so a plan has no rows, yet every command
    would build n-cell values: an instance whose one row, n + k cells, passes
    the limit is refused as it is read."""
    monkeypatch.setattr(dmsiplan.cli, "PLAN_CELL_BUDGET", 1000)
    monkeypatch.setattr(dmsiplan.cli, "build_plan", lambda *a, **kw: pytest.fail("built"))
    inst = write_json(tmp_path / "instance.json", {"n": 1001, "clients": []})
    no_rows = {"assignment": [], "code": {"field_degree": 1, "rows": []}}
    plan = write_json(tmp_path / "plan.json", no_rows)
    argv = [command, inst] + ([] if command == "plan" else [plan])
    err = _exits_2_with_one_line(argv, capsys)
    assert err == f"error: {inst}: a row needs 1001 cells, above the limit of 1000\n"


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["plan", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_verify_flags_a_code_one_row_short(tmp_path, capsys):
    inst, out = make_plan(tmp_path, capsys)
    doc = json.loads(out.read_text())
    doc["code"]["rows"].pop()
    tampered = write_json(tmp_path / "tampered.json", doc)
    assert main(["verify", inst, tampered]) == 3
    shown = capsys.readouterr().out
    assert "decodability:                FAIL (row count mismatch)\n" in shown
    assert "  - code has 4 rows for 5 broadcast packets\n" in shown
    assert shown.endswith("verdict: FAIL\n")


UNREADABLE = {"not-utf8": b'{"n": 6\xff}', "nested-100000": b"[" * 100_000}


@pytest.mark.parametrize("content", sorted(UNREADABLE))
@pytest.mark.parametrize(
    "command, bad",
    [
        ("plan", "instance"),
        ("verify", "instance"),
        ("verify", "plan"),
        ("simulate", "instance"),
        ("simulate", "plan"),
        ("transform", "instance"),
        ("transform", "plan"),
    ],
)
def test_a_file_that_cannot_be_decoded_exits_2(tmp_path, capsys, command, bad, content):
    """A file that is not UTF-8, or JSON nested past the recursion limit, is
    malformed input: one error line and exit 2, not an uncaught exception."""
    inst, out = make_plan(tmp_path, capsys)
    files = {"instance": inst, "plan": str(out)}
    files[bad] = str(tmp_path / "bad.json")
    Path(files[bad]).write_bytes(UNREADABLE[content])
    argv = [command, files["instance"]] + ([files["plan"]] if command != "plan" else [])
    assert main(argv) == 2
    shown = capsys.readouterr()
    assert shown.err.startswith("error: ") and shown.err.count("\n") == 1
    assert files[bad] in shown.err
    assert shown.out == ""


@pytest.mark.parametrize("command", ["plan", "oracle"])
def test_an_unwritable_output_exits_2(tmp_path, capsys, command):
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    target = tmp_path / "missing" / "out.json"
    assert main([command, inst, "--output", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert not target.exists()


def _exits_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    shown = capsys.readouterr()
    assert shown.err.startswith("error: ") and shown.err.count("\n") == 1
    assert shown.out == ""
    return shown.err


@requires_digit_limit
@pytest.mark.parametrize("name", sorted(LONG_NUMBER_INSTANCES))
@pytest.mark.parametrize("command", ["plan", "verify", "simulate", "transform", "oracle"])
def test_an_instance_past_the_digit_limit_exits_2(tmp_path, capsys, command, name):
    """A number too long for Python to read, or a total too long to print,
    is malformed input: one error line and exit 2, not a traceback."""
    _, plan = make_plan(tmp_path, capsys)
    inst = tmp_path / "long.json"
    inst.write_text(LONG_NUMBER_INSTANCES[name])
    argv = [command, str(inst)] + ([] if command in ("plan", "oracle") else [str(plan)])
    err = _exits_2_with_one_line(argv, capsys)
    assert err.endswith("a number has more than 4300 digits\n")


@requires_digit_limit
@pytest.mark.parametrize("case", ["literal", "rows"])
@pytest.mark.parametrize("command", ["verify", "simulate", "transform"])
def test_a_plan_past_the_digit_limit_exits_2(tmp_path, capsys, command, case):
    """A 5,000-digit literal in the plan file, or more rows than packets at a
    delay of 4,300 digits, whose total then has 4,301."""
    if case == "literal":
        inst, plan = make_plan(tmp_path, capsys)
        plan.write_text(plan.read_text().replace('"total_delay": 20', f'"total_delay": {LONG_INT}'))
    else:
        doc = {"n": 1, "clients": [{"has": [], "delay": "1" + "0" * 4299}]}
        inst = write_json(tmp_path / "instance.json", doc)
        assert main(["transform", inst, write_json(tmp_path / "one.json", [[1]])]) == 0
        capsys.readouterr()
        plan = tmp_path / "plan.json"
        write_json(plan, {"assignment": [[1]] * 10})
    err = _exits_2_with_one_line([command, str(inst), str(plan)], capsys)
    assert str(plan) in err and err.endswith("a number has more than 4300 digits\n")


# an exact delay past float range (about 1.8e308), 401 digits: inside the digit limit
PAST_FLOAT_DELAY = "1" + "0" * 400 + "/3"


@pytest.mark.parametrize("command", ["plan", "verify", "simulate", "transform", "oracle"])
def test_values_past_float_range_print_exactly(tmp_path, capsys, command):
    """Such a value prints as its fraction alone, not through a float."""
    doc = {"n": 2, "clients": [{"has": [1], "delay": PAST_FLOAT_DELAY}]}
    inst = write_json(tmp_path / "instance.json", doc)
    plan = tmp_path / "plan.json"
    assert main(["plan", inst, "--output", str(plan)]) == 0
    capsys.readouterr()
    argv = [command, inst] + ([] if command in ("plan", "oracle") else [str(plan)])
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert _rational_text(Fraction(PAST_FLOAT_DELAY)) == PAST_FLOAT_DELAY


def test_a_recorded_total_past_float_range_is_a_disagreement(tmp_path, capsys):
    inst, plan = make_plan(tmp_path, capsys)
    recorded = f'"total_delay": "{PAST_FLOAT_DELAY}"'
    plan.write_text(plan.read_text().replace('"total_delay": 20', recorded))
    assert main(["verify", inst, str(plan)]) == 3
    assert f"total delay in file is {PAST_FLOAT_DELAY}, recomputed 20" in capsys.readouterr().out


def test_plan_exits_4_when_no_code_exists(tmp_path, capsys):
    """Six clients each missing a different pair of four packets: over GF(2)
    the needed pairwise-independent columns do not exist."""
    inst = write_json(tmp_path / "instance.json", IMPOSSIBLE_GF2_DOC)
    with pytest.warns(RuntimeWarning, match="field size"):
        assert main(["plan", inst, "--field-degree", "1"]) == 4
    assert "error:" in capsys.readouterr().err
    # the default field is large enough and the same instance plans fine
    assert main(["plan", inst]) == 0


# wrong types and small out-of-range ints: no mutation may allocate much
ODD_VALUES = st.one_of(
    st.integers(-2, 17),
    st.sampled_from([None, True, 0.5, "x", "3/0", "", [], {}, [[1]], [0.5], {"n": 1}]),
)


@st.composite
def mutated(draw, doc):
    """`doc` with one to three keys or items deleted or replaced."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        # descend at least one level, then on with even odds
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(keys))
            node = parent[key]
        if parent is None:
            return draw(ODD_VALUES)
        if draw(st.booleans()):
            del parent[key]
        else:  # a copy: later mutations must not edit the sampled constants
            parent[key] = copy.deepcopy(draw(ODD_VALUES))
    return doc


def reference_document(bundle):
    """The plan file's document as a dict: `plan_json` must write exactly
    json.dumps(reference_document(bundle), indent=2) and a newline."""
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


DEMO_PLAN = reference_document(build_plan(parse_instance(json.dumps(DEMO_DOC))))


@given(
    st.one_of(st.just(DEMO_DOC), mutated(DEMO_DOC)),
    st.one_of(st.just(DEMO_PLAN), mutated(DEMO_PLAN)),
)
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_mutated_documents_get_an_exit_code(tmp_path, instance_doc, plan_doc):
    """Malformed input ends in a documented exit code, never a traceback."""
    inst = write_json(tmp_path / "instance.json", instance_doc)
    plan = write_json(tmp_path / "plan.json", plan_doc)
    for argv in (
        ["plan", inst, "--output", str(tmp_path / "out.json")],
        ["verify", inst, plan],
        ["simulate", inst, plan],
        ["transform", inst, plan],
    ):
        assert main(argv) in {0, 2, 3, 4}, argv


def _seeded_instance(seed, n, k):
    rng = random.Random(seed)
    clients = [
        {
            "has": sorted(rng.sample(range(1, n + 1), rng.randint(0, n - 1))),
            "delay": f"{rng.randint(1, 16)}/{rng.randint(1, 3)}",
        }
        for _ in range(k)
    ]
    return parse_instance(json.dumps({"n": n, "clients": clients}))


# sha256 of plan_json, taken when the code was first built row by row: a
# faster kernel must draw and accept exactly the same code rows
@pytest.mark.parametrize(
    "case, degree, seed, digest",
    [
        ("demo", None, 0, "ff69c82381832d5edd60340d9ed29d1b630ddff3b31d102389376620fb8c56e4"),
        ("demo", None, 1, "7a7a2039670f184c4606067513d3b8f17368778fcefed17186c933c3b62ccad8"),
        ("demo", None, 2, "95495ce571e3b501bd06bfa38e2a575d7b5e9345f93b03d62bb4ea7bf13b9c80"),
        ((8, 10, 6), 8, 3, "adad82ba671af9fbdc1f67e11bffab7dc7125439a4069f27c003cf20bc62bd4a"),
        ((12, 8, 5), 12, 4, "34726329cc1cd8f8234b3f3e48a3f6e0af1f089b73aae4c65bd2c0df4bf5736d"),
        ((9, 14, 7), 9, 5, "6ccdb5bd8af2ba93f5c3b5e09c08da94d61b5dd93475db53450d0b89ed254c98"),
        ((16, 12, 6), 16, 6, "4f0689b9ccef90b2d8def1711e9a1b5a4f37bf4c466405831d2c18726108a480"),
        ((24, 26, 10), 12, 7, "8c0e847d1b707cd51f56f14dcd6c8ead35326b4409f2d4891edf4120140871f2"),
    ],
)
def test_seeded_plan_bytes_are_pinned(case, degree, seed, digest):
    instance = parse_instance(json.dumps(DEMO_DOC)) if case == "demo" else _seeded_instance(*case)
    field = Field(degree) if degree else None
    bundle = build_plan(instance, field=field, seed=seed)
    assert hashlib.sha256(plan_json(bundle).encode()).hexdigest() == digest


def _matches_the_reference(doc, degree=None, seed=0):
    bundle = build_plan(
        parse_instance(json.dumps(doc)), field=Field(degree) if degree else None, seed=seed
    )
    return plan_json(bundle) == json.dumps(reference_document(bundle), indent=2) + "\n"


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 0, "clients": []},
        {"n": 0, "clients": [{"has": [], "delay": 3}, {"has": [], "delay": "1/2"}]},
        {"n": 4, "clients": [{"has": [1, 2, 3, 4], "delay": 5}]},
        {"n": 3, "clients": [{"has": [2], "delay": "7/3"}, {"has": [], "delay": "0"}]},
        {"n": 2, "clients": [{"has": [1], "delay": PAST_FLOAT_DELAY}, {"has": [], "delay": 1}]},
        {"n": 3, "packet_size": 8, "clients": [{"has": [3], "bandwidth": "3/5"}]},
        {"n": 5, "clients": [{"has": [1], "delay": 2}] * 3 + [{"has": [], "delay": 9}]},
        DEMO_DOC,
    ],
)
def test_plan_writer_matches_json_dumps(doc):
    assert _matches_the_reference(doc)


# delays: ints, "p/q" strings, and one past float range (401 digits)
DELAY_VALUES = st.one_of(
    st.integers(0, 16),
    st.builds("{}/{}".format, st.integers(0, 16), st.integers(1, 4)),
    st.just(PAST_FLOAT_DELAY),
)


@st.composite
def plan_instance_docs(draw):
    """Instance documents with n and k from 0, clients that may hold every
    packet, and each delay stated directly or as packet_size / bandwidth."""
    n, k = draw(st.integers(0, 7)), draw(st.integers(0, 4))
    doc = {"n": n, "clients": []}
    if draw(st.booleans()):
        doc["packet_size"] = draw(st.sampled_from([1, "5/2", 720720]))
    for _ in range(k):
        every = list(range(1, n + 1))
        some = st.sets(st.sampled_from(every)) if n else st.just(set())
        client = {"has": sorted(draw(st.one_of(st.just(every), some)))}
        if "packet_size" in doc and draw(st.booleans()):
            client["bandwidth"] = draw(st.sampled_from([1, 3, "3/4", "7/5", 720720]))
        else:
            client["delay"] = draw(DELAY_VALUES)
        doc["clients"].append(client)
    return doc


@given(plan_instance_docs(), st.sampled_from([None, 8, 12]), st.integers(0, 3))
@example({"n": 0, "clients": []}, None, 0)
@example({"n": 6, "clients": []}, 12, 0)
@example({"n": 3, "clients": [{"has": [1, 2, 3], "delay": "5/2"}]}, None, 0)
@example({"n": 2, "clients": [{"has": [], "delay": PAST_FLOAT_DELAY}]}, 8, 1)
@example(
    {"n": 3, "packet_size": "5/2", "clients": [{"has": [1], "bandwidth": "3/4"}]}, None, 2
)
@settings(max_examples=150, deadline=None)
def test_plan_json_is_json_dumps_of_the_reference_document(doc, degree, seed):
    assert _matches_the_reference(doc, degree, seed)


def test_plan_json_matches_json_dumps_on_edge_plans():
    sated = parse_instance(json.dumps({"n": 2, "clients": [{"has": [1, 2], "delay": 3}]}))
    no_clients = parse_instance(json.dumps({"n": 3, "clients": []}))
    bandwidth = parse_instance(
        json.dumps(
            {
                "n": 3,
                "packet_size": "5/2",
                "clients": [{"has": [1], "bandwidth": "3/4"}, {"has": [], "bandwidth": 7}],
            }
        )
    )
    for instance in (sated, no_clients, bandwidth, parse_instance(json.dumps(DEMO_DOC))):
        bundle = build_plan(instance)
        assert plan_json(bundle) == json.dumps(reference_document(bundle), indent=2) + "\n"


@st.composite
def matrix_cases(draw):
    """An instance document and any 0/1 matrix with a column per client: rows
    repeated, distinct or all zero, k from 0 (and 11, for three-character
    headers).  Each row comes as a tuple, kept as it is, or as a list, which
    AssignmentMatrix turns into a new tuple, so equal rows may be one tuple
    or distinct ones."""
    n, k = draw(st.integers(0, 4)), draw(st.sampled_from([0, 1, 2, 3, 11]))
    has = st.sets(st.integers(1, n)) if n else st.just(set())
    clients = [{"has": sorted(draw(has)), "delay": draw(DELAY_VALUES)} for _ in range(k)]
    pool = draw(st.lists(st.tuples(*[st.integers(0, 1)] * k), min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from([*pool, (0,) * k]), max_size=12))
    rows = [list(row) if draw(st.booleans()) else row for row in picks]
    return {"n": n, "clients": clients}, rows


def row_by_row_table(bundle):
    """render_plan's matrix table, each row formatted cell by cell."""
    matrix = bundle.matrix
    headers = [f"C{j + 1}" for j in range(matrix.k)]
    delays = [_rational_text(d) for d in bundle.report.per_packet]
    total = _rational_text(bundle.report.total)
    label_width = max(5, len(f"p{matrix.m}"))
    cell_width = max([2] + [len(h) for h in headers])
    delay_width = max([len("delay (s)"), len(total)] + [len(t) for t in delays])

    def line(label, cells, delay):
        body = "  ".join(c.rjust(cell_width) for c in cells)
        return f"{label.ljust(label_width)}  {body}  {delay.rjust(delay_width)}"

    return [
        line("", headers, "delay (s)"),
        *(line(f"p{i + 1}", ["1" if a else "." for a in row], delays[i])
          for i, row in enumerate(matrix.rows)),
        line("total", [""] * matrix.k, total),
    ]


@given(matrix_cases(), st.sampled_from([1, 4, 12]), st.integers(0, 3))
@example(({"n": 2, "clients": []}, [(), [], ()]), 1, 0)
@example(({"n": 1, "clients": [{"has": [], "delay": "7/3"}]}, [(1,), [1], (0,), (1,)]), 4, 1)
@settings(max_examples=200, deadline=None)
def test_plan_rows_are_written_as_row_by_row(case, degree, seed):
    """plan_json and render_plan write each distinct row once; on any matrix
    they must still write what the reference document and a row-by-row
    table give."""
    doc, rows = case
    instance = parse_instance(json.dumps(doc))
    matrix = AssignmentMatrix(rows=rows, k=instance.k)
    rng, field = random.Random(seed), Field(degree)
    code = [[rng.randrange(field.q) for _ in range(instance.n)] for _ in rows]
    bundle = PlanBundle(
        instance=instance,
        ranking=tuple(rng.sample(range(instance.k), instance.k)),
        matrix=matrix,
        report=total_delay(matrix, instance.delays()),
        closed_form=closed_form_delay(instance),
        code=CodingMatrix(field=field, n=instance.n, rows=code),
    )
    assert plan_json(bundle) == json.dumps(reference_document(bundle), indent=2) + "\n"
    assert render_plan(bundle).split("\n")[1:-2] == row_by_row_table(bundle)


def _declared_console_script(name):
    """The `[project.scripts]` entry for `name` in the repository's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    return EntryPoint(name=name, value=scripts[name], group="console_scripts")


def test_readme_cli_examples_parse():
    """Every `dmsiplan` line of README's CLI block is accepted by the parser."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    examples = [shlex.split(line) for line in block.splitlines() if line.startswith("dmsiplan ")]
    assert examples, "no dmsiplan lines in README's CLI block"
    for argv in examples:
        try:
            _build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")


def test_console_script_entry_point(tmp_path):
    """Run the declared console script through the wrapper pip would install
    for it, so the entry point is checked without installing the package."""
    ep = _declared_console_script("dmsiplan")
    wrapper = tmp_path / "dmsiplan"
    wrapper.write_text(
        "import sys\n"
        f"from {ep.module} import {ep.attr}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = 'dmsiplan'\n"
        f"    sys.exit({ep.attr}())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dmsiplan.__file__).parents[1]))

    def dmsiplan_cli(*args):
        return subprocess.run(
            [sys.executable, str(wrapper), *args],
            capture_output=True, text=True, timeout=60, env=env,
        )

    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    proc = dmsiplan_cli("plan", inst)
    assert proc.returncode == 0, proc.stderr
    assert "closed form: 20 (matches)" in proc.stdout
    # main's exit code must reach the process exit status
    assert dmsiplan_cli("plan", str(tmp_path / "nope.json")).returncode == 2


def test_cli_import_loads_no_process_pool():
    """The oracle is serial, so the CLI has no use for a process pool."""
    env = dict(os.environ, PYTHONPATH=str(Path(dmsiplan.__file__).parents[1]))
    probe = (
        "import sys, dmsiplan.cli\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("module", ["dmsiplan", "dmsiplan.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, capsys, module):
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    assert main(["plan", inst]) == 0
    expected = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(Path(dmsiplan.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "plan", inst],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    assert "closed form: 20 (matches)" in expected


def test_a_reader_that_closes_after_one_line_ends_plan_quietly(tmp_path, capsys):
    """`plan` into a reader that stops after one line: exit 1, nothing on
    stderr, and the plan file written in full, since it is written before
    anything is printed.  The table (1,000 client columns over 40 rows) is
    far larger than a pipe holds, so the write meets the closed pipe."""
    n = 40
    everything = {"has": list(range(1, n + 1)), "delay": 2}
    inst = write_json(
        tmp_path / "wide.json", {"n": n, "clients": [{"has": [], "delay": 1}] + [everything] * 999}
    )
    expected = tmp_path / "expected.json"
    assert main(["plan", inst, "--output", str(expected)]) == 0
    table = capsys.readouterr().out
    assert len(table) > 10**5
    out = tmp_path / "plan.json"
    env = dict(os.environ, PYTHONPATH=str(Path(dmsiplan.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is block-buffered, as in a plain run
    proc = subprocess.Popen(
        [sys.executable, "-m", "dmsiplan", "plan", inst, "--output", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        status = proc.wait(timeout=60)
    finally:
        proc.kill()
    assert first.decode() == table.splitlines(keepends=True)[0]
    assert (status, err) == (1, b"")
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("command", ["plan", "verify", "simulate", "transform", "oracle"])
def test_a_reader_gone_before_the_run_starts_ends_it_quietly(tmp_path, capsys, command):
    """Output short enough to sit in stdout's buffer meets the closed pipe
    only when it is flushed: still exit 1 and nothing on stderr."""
    inst, out = make_plan(tmp_path, capsys)
    argv = [inst] if command in ("plan", "oracle") else [inst, str(out)]
    env = dict(os.environ, PYTHONPATH=str(Path(dmsiplan.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is block-buffered, as in a plain run
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dmsiplan", command, *argv],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60, env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.parametrize("command", ["plan", "oracle"])
def test_an_output_file_is_written_before_a_closed_reader_stops_the_run(tmp_path, capsys, command):
    """With stdout unbuffered the first print meets the closed pipe; the
    `--output` file is already written in full by then."""
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    expected, out = tmp_path / "expected.json", tmp_path / "out.json"
    assert main([command, inst, "--output", str(expected)]) == 0
    capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=str(Path(dmsiplan.__file__).parents[1]), PYTHONUNBUFFERED="1")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dmsiplan", command, inst, "--output", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60, env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("degree", ["2", "12"])
@pytest.mark.parametrize("fault", ["value flipped", "held packet added", "missing packet dropped"])
def test_simulate_fails_a_client_whose_solver_answer_is_wrong(tmp_path, capsys, degree, fault):
    """Only C1's solution is damaged: C1 fails, the others decode, exit 3."""
    inst, out = write_json(tmp_path / "instance.json", DEMO_DOC), tmp_path / "plan.json"
    assert main(["plan", inst, "--field-degree", degree, "--output", str(out)]) == 0
    assert main(["simulate", inst, str(out)]) == 0
    capsys.readouterr()
    original = coding._solve

    def solve(instance, code, j, share, received, eliminate):
        solution = original(instance, code, j, share, received, eliminate)
        if j == 0:  # C1 holds packets 1, 3, 5 and 6
            x = min(solution)
            if fault == "value flipped":
                solution[x] ^= 1
            elif fault == "held packet added":
                solution[0] = solution[x]
            else:
                del solution[x]
        return solution

    with mock.patch.object(coding, "_solve", solve):
        assert main(["simulate", inst, str(out)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[-1] for line in lines if " complete at " in line] == [
        "DECODE FAILED"] + ["decoded all missing packets"] * 3


@pytest.mark.skipif(shutil.which("dmsiplan") is None, reason="dmsiplan is not on PATH")
def test_installed_console_script(tmp_path):
    exe = shutil.which("dmsiplan")
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    proc = subprocess.run(
        [exe, "plan", inst], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "closed form: 20 (matches)" in proc.stdout
