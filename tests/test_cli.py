"""End-to-end runs of every subcommand through main(), plus the exit-code
contract: 0 ok, 2 validation, 3 disagreement, 4 construction failure."""

import copy
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dmsiplan
from conftest import DEMO_DOC, HAND_PLAN_ROWS, OPTIMAL_PLAN_ROWS, IMPOSSIBLE_GF2_DOC
from dmsiplan import Field, parse_instance
from dmsiplan.cli import _indented_json, build_plan, main, plan_document, plan_json


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
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    out = tmp_path / "oracle.json"
    assert main(["oracle", inst, "--budget", str(10**8), "--output", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "147 candidates examined" in shown
    assert "agreement: yes" in shown
    doc = json.loads(out.read_text())
    assert doc["best_total"] == 20
    assert doc["best_matrix"] == [list(row) for row in OPTIMAL_PLAN_ROWS]
    assert doc["matrices_examined"] == 147
    assert doc["m_range"] == [5, 11]
    assert doc["agrees"] is True


def test_oracle_default_budget_refuses_demo(tmp_path, capsys):
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    assert main(["oracle", inst]) == 2
    assert "budget" in capsys.readouterr().err


def test_oracle_refuses_a_huge_m_cap_at_once(tmp_path, capsys):
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    start = time.perf_counter()
    assert main(["oracle", inst, "--m-cap", str(10**8)]) == 2
    assert time.perf_counter() - start < 1
    assert "budget" in capsys.readouterr().err


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


def test_transform_walks_to_the_optimum(tmp_path, capsys):
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    rows = write_json(tmp_path / "rows.json", [list(r) for r in HAND_PLAN_ROWS])
    assert main(["transform", inst, rows]) == 0
    shown = capsys.readouterr().out
    assert "columns in delay order: C1 >= C2 >= C3 >= C4" in shown
    assert "step 5" in shown
    assert "final total 20; closed form 20 (matches)" in shown


def test_transform_needs_flag_for_surplus(tmp_path, capsys):
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    padded = [list(r) for r in HAND_PLAN_ROWS] + [[1, 1, 1, 1]]
    rows = write_json(tmp_path / "rows.json", padded)
    assert main(["transform", inst, rows]) == 2
    assert "--auto-reduce" in capsys.readouterr().err
    assert main(["transform", inst, rows, "--auto-reduce"]) == 0
    shown = capsys.readouterr().out
    assert "surplus assignments removed:" in shown
    assert "final total 20; closed form 20 (matches)" in shown


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


def test_plan_beyond_the_largest_field_exits_2(tmp_path, capsys):
    """65,537 clients need q >= 65,537, one degree past GF(2^16)."""
    doc = {"n": 1, "clients": [{"has": [], "delay": 1}] * 65_537}
    inst = write_json(tmp_path / "instance.json", doc)
    assert main(["plan", inst]) == 2
    assert "GF(2^16) is the largest field" in capsys.readouterr().err


def test_plan_over_the_cell_limit_exits_2(tmp_path, capsys, monkeypatch):
    """10^8 packets would need a 10^8 x 10^8 code; refused before any is built."""
    doc = {"n": 10**8, "clients": [{"has": [], "delay": 1}]}
    inst = write_json(tmp_path / "instance.json", doc)
    monkeypatch.setattr(dmsiplan.cli, "build_plan", lambda *a, **kw: pytest.fail("built"))
    assert main(["plan", inst]) == 2
    assert "above the limit" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["plan", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


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


DEMO_PLAN = plan_document(build_plan(parse_instance(json.dumps(DEMO_DOC))))


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
        ["transform", inst, plan, "--auto-reduce"],
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
    ],
)
def test_seeded_plan_bytes_are_pinned(case, degree, seed, digest):
    instance = parse_instance(json.dumps(DEMO_DOC)) if case == "demo" else _seeded_instance(*case)
    field = Field(degree) if degree else None
    bundle = build_plan(instance, field=field, seed=seed)
    assert hashlib.sha256(plan_json(bundle).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        {"rows": [], "code": {"field_degree": 1, "rows": []}},
        {"assignment": [[], [1, 0]], "empty": {}, "nested": [[[]], [{}]]},
        {"decodable": [True, False], "flags": [True, 1, 0, False]},
        {"delay": "7/3", "per_packet_delay": [8, "13/2", "0"], "total_delay": "41/6"},
        {"big": [2**70, -1, 0], "text": ['quote " and \\ and é', ""], "none": None},
        ["p/q", 3, [4, 5], {"k": 0}],
    ],
)
def test_plan_writer_matches_json_dumps(doc):
    assert _indented_json(doc) == json.dumps(doc, indent=2)


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
        assert plan_json(bundle) == json.dumps(plan_document(bundle), indent=2) + "\n"


def _declared_console_script(name):
    """The `[project.scripts]` entry for `name` in the repository's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    return EntryPoint(name=name, value=scripts[name], group="console_scripts")


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


@pytest.mark.skipif(shutil.which("dmsiplan") is None, reason="dmsiplan is not on PATH")
def test_installed_console_script(tmp_path):
    exe = shutil.which("dmsiplan")
    inst = write_json(tmp_path / "instance.json", DEMO_DOC)
    proc = subprocess.run(
        [exe, "plan", inst], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "closed form: 20 (matches)" in proc.stdout
