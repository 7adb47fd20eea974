"""Tests of the benchmark itself: corpus determinism, span arithmetic,
failure accounting and wrapper restoration."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import dmsiplan  # noqa: E402
import dmsiplan.cli  # noqa: E402
import dmsiplan.coding  # noqa: E402
import dmsiplan.gf  # noqa: E402
import host_speed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_DOC = {
    "n": 6,
    "clients": [
        {"has": [1, 3, 5, 6], "delay": 8},
        {"has": [1, 2, 3, 4, 5], "delay": 4},
        {"has": [3, 4, 6], "delay": 2},
        {"has": [4], "delay": 1},
    ],
}


def file_bytes(directory: Path) -> dict:
    return {
        p.relative_to(directory): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()
    }


def write_plan_files(directory: Path, seed: int, count: int) -> None:
    workload = workloads.PlanWorkload(directory, seed)
    workload.setup()
    for i in range(count):
        workload.op(i)


@pytest.mark.parametrize(
    "write",
    [
        lambda d, seed: write_plan_files(d, seed, count=40),
        lambda d, seed: corpus.write_vs_corpus(d, seed, count=8),
        lambda d, seed: corpus.write_oracle_corpus(d, seed, count=200),
    ],
    ids=["plan", "verify-simulate", "oracle-sweep"],
)
def test_same_seed_gives_byte_identical_corpus(tmp_path, write):
    write(tmp_path / "a", 7)
    write(tmp_path / "b", 7)
    write(tmp_path / "c", 8)
    first = file_bytes(tmp_path / "a")
    assert first and first == file_bytes(tmp_path / "b")
    assert first != file_bytes(tmp_path / "c")


def test_plan_corpus_keeps_stated_distribution():
    docs = corpus.plan_instances(3, count=64)
    lo, hi = corpus.PLAN_N_RANGE
    assert {doc["n"] for doc in docs} == set(range(lo, hi + 1))
    assert sum("packet_size" in doc for doc in docs) == 32
    for doc in docs:
        assert len(doc["clients"]) == max(2, doc["n"] // 2)
        sizes = sorted(len(c["has"]) for c in doc["clients"])
        assert 0 <= sizes[0] and sizes[-1] <= doc["n"]


def cost_features(doc):
    return doc["n"], sorted(doc["n"] - len(c["has"]) for c in doc["clients"])


def test_seeds_share_the_cost_mix_but_not_the_instances():
    plans = [corpus.plan_instances(seed, count=26) for seed in (3, 4)]
    assert [cost_features(d) for d in plans[0]] == [cost_features(d) for d in plans[1]]
    assert plans[0] != plans[1]
    items = [corpus.oracle_items(seed, count=64) for seed in (3, 4)]
    features = [[cost_features(item["instance"]) for item in pool] for pool in items]
    assert features[0] == features[1]
    assert items[0] != items[1]


def test_oracle_cells_cover_the_sweep_distribution():
    cells, cumulative = corpus.oracle_cells()
    assert len(cells) == len(set(cells)) == sum(
        (n + 1) ** k for n in range(7) for k in range(1, 5)
    )
    assert cumulative[-1] == pytest.approx(1.0)
    assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))


def span(span_id, name, parent, start, end):
    return tracing.Span(span_id, name, parent, 0, start, end)


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        span(0, "cli.main", None, 0.0, 10.0),
        span(1, "cli.build_plan", 0, 1.0, 9.0),
        span(2, "coding.construct_code", 1, 2.0, 6.0),
        span(3, "coding.decodability_check", 2, 2.5, 3.5),
        span(4, "coding.decodability_check", 2, 4.0, 5.0),
        span(5, "coding.decodability_check", 1, 6.5, 8.5),
        span(6, "coding.matrix_rank", 5, 7.0, 8.0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 2.0, 1: 2.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 1.0, 6: 1.0})
    layers = tracing.layer_metrics(spans)
    assert layers["coding.decodability_check.self_ms"] == pytest.approx(3000.0)
    assert layers["coding.decodability_check.calls"] == 3
    assert layers["coding.construct_code.attempts"] == 2
    assert layers["coding.construct_code.accept_ratio"] == 0.5
    assert layers["cli.main.self_ms"] == pytest.approx(2000.0)


def test_tail_takes_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 101)]
    assert run.tail(values, cap=99) == (90, 90.0, 10)
    assert run.tail(values, cap=75) == (75, 75.0, 25)
    assert run.tail(values[:5], cap=99) == (100.0, 5.0, 0)


def test_host_scales_use_the_mean_sample_near_each_chunk():
    n = host_speed.NOMINAL_S
    # group c is taken before chunk c and group c + 1 after it
    groups = [[n], [n, n], [2 * n], [2 * n, 2 * n], [2 * n]]
    scales = run.host_scales(groups, [1, 2, 1, 1])
    # chunk 0 sees groups 0-2, chunk 1 groups 0-3, chunk 2 groups 1-4, chunk 3 groups 2-4
    assert scales == pytest.approx([4 / 5, 2 / 3, 2 / 3, 3 / 5, 1 / 2])


def test_op_times_scale_by_nominal_over_the_sampled_reference(tmp_path, monkeypatch):
    monkeypatch.setattr(host_speed, "samples_for", lambda seconds: [host_speed.NOMINAL_S / 2])
    result = run.run_pass(small_plan_workload(tmp_path), 2)
    assert result.scaled_by_op == pytest.approx([2 * t for t in result.seconds_by_op])


def small_plan_workload(tmp_path):
    workload = workloads.PlanWorkload(tmp_path, seed=0)
    workload.docs = [json.dumps(SMALL_DOC)] * 2
    return workload


def test_plan_with_zeroed_client_rows_is_a_failed_op(tmp_path, monkeypatch):
    workload = small_plan_workload(tmp_path)
    assert run.run_pass(workload, 1).failures == []

    original = dmsiplan.coding.construct_code

    def zero_first_client(instance, matrix, **kwargs):
        code = original(instance, matrix, **kwargs)
        rows = tuple(
            tuple(0 for _ in row) if matrix.rows[h][0] else row
            for h, row in enumerate(code.rows)
        )
        return dmsiplan.coding.CodingMatrix(field=code.field, n=code.n, rows=rows)

    # the plan file still claims every client decodes; only the benchmark's
    # own re-check of the written code can catch it
    monkeypatch.setattr(dmsiplan.cli, "construct_code", zero_first_client)
    monkeypatch.setattr(dmsiplan.cli, "decodability_check", lambda *a: (True,) * 4)
    result = run.run_pass(workload, 1)
    assert (len(result.seconds_by_op), len(result.failures)) == (1, 1)
    assert "short of full rank" in result.failures[0]


def test_plan_op_that_writes_no_plan_is_a_failed_op(tmp_path, monkeypatch):
    workload = small_plan_workload(tmp_path)
    assert run.run_pass(workload, 1).failures == []  # leaves a plan behind
    monkeypatch.setattr(dmsiplan.cli, "main", lambda argv: 0)
    result = run.run_pass(workload, 2)
    assert len(result.failures) == 2
    assert all("bad output: FileNotFoundError" in f for f in result.failures)


def test_replayed_op_must_reproduce_the_first_pass(tmp_path, monkeypatch):
    workload = small_plan_workload(tmp_path)
    first = run.run_pass(workload, 2)
    assert first.failures == []
    assert run.run_pass(workload, 2, reference=first).failures == []
    monkeypatch.setattr(dmsiplan.cli, "render_plan", lambda bundle: "something else")
    replay = run.run_pass(workload, 2, reference=first)
    assert len(replay.failures) == 2
    assert "differs from the first pass" in replay.failures[0]


def test_malformed_documents_get_their_exit_codes(tmp_path):
    workload = workloads.VerifySimulateWorkload(tmp_path, seed=0)
    source = tmp_path / "small.json"
    source.write_text(json.dumps(SMALL_DOC))
    plan = tmp_path / "plan.json"
    assert workloads.cli_call(["plan", str(source), "--output", str(plan)])[0] == 0
    rounds = len(workloads.MALFORMED)
    workload.plans = [(source, plan, json.loads(plan.read_text()))] * rounds
    result = run.run_pass(workload, workload.ops_per_pass())
    assert result.failures == []
    assert result.kinds.count("verify") == rounds
    assert result.kinds.count(None) == rounds  # malformed ops: no latency sample
    outcomes = [d["outcome"] for d in workload.probe_known_defects()]
    assert len(outcomes) == len(workloads.KNOWN_DEFECTS)


def no_wrapper_left():
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "dmsiplan" or name.startswith("dmsiplan.")):
            continue
        for attr, value in vars(module).items():
            assert not hasattr(value, tracing.ORIGINAL), f"{name}.{attr} still wrapped"
    assert not hasattr(dmsiplan.gf.Field.__init__, tracing.ORIGINAL)


def test_traced_run_restores_every_wrapped_name(tmp_path):
    before = {
        (m, a): getattr(sys.modules[f"dmsiplan.{m}"], a) for m, a, _ in tracing.TARGETS
    }
    workload = small_plan_workload(tmp_path)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert hasattr(dmsiplan.cli.construct_code, tracing.ORIGINAL)
        result = run.run_pass(workload, 2, tracer=tracer)
    assert result.failures == []
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "cli.build_plan", "coding.construct_code", "gf.Field"} <= names
    assert {s.op for s in tracer.spans} == {0, 1}

    no_wrapper_left()
    assert dmsiplan.cli.construct_code is dmsiplan.coding.construct_code
    assert dmsiplan.construct_code is dmsiplan.coding.construct_code
    assert dmsiplan.cli.main is before[("cli", "main")]
    for (module, attr), original in before.items():
        assert getattr(sys.modules[f"dmsiplan.{module}"], attr) is original


def test_wrappers_are_removed_when_the_run_raises():
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("op blew up")
    no_wrapper_left()
