"""Acceptance gate: one test per shipped criterion, each reporting a visible
pass/fail line.  Tolerances are part of the criteria: delay arithmetic is
exact rational equality, the worked-example computation must run in under a
millisecond, and the 200-instance regression corpus must finish inside a
minute."""

import itertools
import json
import random
import time
from fractions import Fraction

from conftest import (
    HAND_PLAN_ROWS,
    OPTIMAL_PLAN_ROWS,
    KNOWN_GF4_ROWS,
    make_instance,
    random_instance,
)
from dmsiplan import (
    AssignmentMatrix,
    CodingMatrix,
    Field,
    brute_force_optimum,
    build_network,
    client_view,
    closed_form_delay,
    construct_code,
    decodability_check,
    decode,
    encode,
    is_solvable,
    max_flow,
    optimal_assignment,
    parse_rational,
    run_simulation,
    serialize_instance,
    total_delay,
    transform_to_optimal,
)
from dmsiplan.cli import main

CORPUS_SEED = 20260815
CORPUS_SIZE = 200
CORPUS_BUDGET = 10**13


def corpus():
    rng = random.Random(CORPUS_SEED)
    return [random_instance(rng) for _ in range(CORPUS_SIZE)]


def random_exact_matrix(rng, instance):
    """Exact column weights over m* plus up to two spare rows."""
    want = instance.want_counts()
    m = max(want, default=0) + rng.randint(0, 2)
    rows = [[0] * instance.k for _ in range(m)]
    for j, w in enumerate(want):
        for i in rng.sample(range(m), w):
            rows[i][j] = 1
    return AssignmentMatrix(rows=tuple(tuple(r) for r in rows), k=instance.k)


def test_criterion_1_worked_example_totals(
    demo_instance, hand_plan_matrix, optimal_plan_matrix, criterion_report
):
    ok = False
    try:
        delays = demo_instance.delays()
        a = total_delay(hand_plan_matrix, delays)
        assert a.total == Fraction(24)
        assert a.per_packet == (8, 4, 8, 2, 2)
        b = total_delay(optimal_plan_matrix, delays)
        assert b.total == Fraction(20)
        assert b.per_packet == (8, 8, 2, 1, 1)
        # timing after warm-up; best of five keeps scheduler noise out
        for matrix in (hand_plan_matrix, optimal_plan_matrix):
            runs = []
            for _ in range(5):
                t0 = time.perf_counter()
                total_delay(matrix, delays)
                runs.append(time.perf_counter() - t0)
            assert min(runs) < 1e-3
        ok = True
    finally:
        criterion_report(1, "worked-example totals", ok)


def test_criterion_2_optimal_construction(demo_instance, optimal_plan_matrix, criterion_report):
    ok = False
    try:
        ranking, matrix = optimal_assignment(demo_instance)
        assert ranking == (0, 1, 2, 3)
        assert matrix == optimal_plan_matrix
        closed = closed_form_delay(demo_instance)
        assert closed == Fraction(20)
        # wants (2, 1, 3, 5): marginal new rows per client are 2, 0, 1, 2
        assert closed == 8 * 2 + 4 * 0 + 2 * 1 + 1 * 2
        ok = True
    finally:
        criterion_report(2, "optimal construction and closed form", ok)


def test_criterion_3_theorem_regression(criterion_report):
    ok = False
    try:
        t0 = time.perf_counter()
        for instance in corpus():
            enumerated = brute_force_optimum(instance, budget=CORPUS_BUDGET)
            closed = closed_form_delay(instance)
            _, matrix = optimal_assignment(instance)
            constructed = total_delay(matrix, instance.delays()).total
            assert enumerated.best_total == closed == constructed
        assert time.perf_counter() - t0 < 60
        ok = True
    finally:
        criterion_report(3, "closed form equals enumerated minimum on corpus", ok)


def test_criterion_4_feasibility_equivalence(
    demo_instance, hand_plan_matrix, optimal_plan_matrix, criterion_report
):
    ok = False
    try:
        def weight_condition(instance, matrix):
            return all(
                matrix.column_weight(j) >= w
                for j, w in enumerate(instance.want_counts())
            )

        rng = random.Random(CORPUS_SEED + 1)
        for instance in corpus():
            m_star = max(instance.want_counts(), default=0)
            for _ in range(3):
                m = rng.randint(0, m_star + 1)
                rows = tuple(
                    tuple(rng.randint(0, 1) for _ in range(instance.k))
                    for _ in range(m)
                )
                matrix = AssignmentMatrix(rows=rows, k=instance.k)
                assert is_solvable(instance, matrix) == weight_condition(instance, matrix)

        for n, k in itertools.product(range(4), (1, 2)):
            subsets = list(
                itertools.chain.from_iterable(
                    itertools.combinations(range(n), r) for r in range(n + 1)
                )
            )
            for has_sets in itertools.product(subsets, repeat=k):
                instance = make_instance(n, [set(h) for h in has_sets], [3, 1][:k])
                for m in range(4):
                    for bits in itertools.product((0, 1), repeat=m * k):
                        rows = tuple(
                            bits[i * k : (i + 1) * k] for i in range(m)
                        )
                        matrix = AssignmentMatrix(rows=rows, k=k)
                        assert is_solvable(instance, matrix) == weight_condition(
                            instance, matrix
                        )

        for matrix in (hand_plan_matrix, optimal_plan_matrix):
            network = build_network(demo_instance, matrix)
            assert [
                max_flow(network, network.sink(j)) for j in range(4)
            ] == [6, 6, 6, 6]
        ok = True
    finally:
        criterion_report(4, "solvability matches the weight condition", ok)


def test_criterion_5_codec_soundness(demo_instance, optimal_plan_matrix, criterion_report):
    ok = False
    try:
        code = construct_code(demo_instance, optimal_plan_matrix, field=Field(2), seed=0)
        assert decodability_check(demo_instance, optimal_plan_matrix, code) == (True,) * 4

        rng = random.Random(CORPUS_SEED + 2)
        for _ in range(1000):
            payload = tuple(rng.randrange(4) for _ in range(6))
            broadcast = encode(code, payload)
            for j in range(4):
                view = client_view(demo_instance, optimal_plan_matrix, j, payload, broadcast)
                recovered = decode(view, demo_instance, optimal_plan_matrix, code)
                missing = set(range(6)) - demo_instance.clients[j].has
                assert recovered == {x: payload[x] for x in missing}

        binary_cases = [
            make_instance(2, [set(), {0}], [3, 1]),
            make_instance(3, [{0}, {1, 2}], [2, 5]),
            make_instance(4, [{0, 1}, {2, 3}], [1, 1]),
            make_instance(4, [{0, 1, 2}, {1, 2, 3}], [4, 2]),
        ]
        for instance in binary_cases:
            _, matrix = optimal_assignment(instance)
            small = construct_code(instance, matrix, field=Field(1), seed=2)
            for payload in itertools.product(range(2), repeat=instance.n):
                broadcast = encode(small, payload)
                for j in range(instance.k):
                    view = client_view(instance, matrix, j, payload, broadcast)
                    recovered = decode(view, instance, matrix, small)
                    missing = set(range(instance.n)) - instance.clients[j].has
                    assert recovered == {x: payload[x] for x in missing}

        # the pinned five-row GF(4) reference code, re-verified against this plan
        pinned = CodingMatrix(field=Field(2), n=6, rows=KNOWN_GF4_ROWS)
        assert decodability_check(demo_instance, optimal_plan_matrix, pinned) == (True,) * 4
        ok = True
    finally:
        criterion_report(5, "codec soundness", ok)


def test_criterion_6_transformation_monotonicity(
    demo_instance, hand_plan_matrix, optimal_plan_matrix, criterion_report
):
    ok = False
    try:
        trace = transform_to_optimal(hand_plan_matrix, demo_instance)
        totals = tuple(step.total for step in trace.steps)
        assert totals == (24, 24, 21, 20, 20, 20)
        assert trace.final_matrix == optimal_plan_matrix
        assert trace.final_total == Fraction(20)

        rng = random.Random(CORPUS_SEED + 3)
        checked = 0
        while checked < 100:
            instance = random_instance(rng)
            matrix = random_exact_matrix(rng, instance)
            trace = transform_to_optimal(matrix, instance)
            totals = [step.total for step in trace.steps]
            assert all(a >= b for a, b in zip(totals, totals[1:]))
            assert trace.final_total == closed_form_delay(instance)
            _, star = optimal_assignment(instance)
            assert trace.final_matrix == star.with_column_order(trace.ranking)
            checked += 1
        ok = True
    finally:
        criterion_report(6, "transformation is monotone and lands on the optimum", ok)


def test_criterion_7_determinism(tmp_path, capsys, demo_instance, criterion_report):
    ok = False
    try:
        instance_path = tmp_path / "instance.json"
        instance_path.write_text(serialize_instance(demo_instance))
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["plan", str(instance_path), "--output", str(first)]) == 0
        assert main(["plan", str(instance_path), "--output", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

        first_run = brute_force_optimum(demo_instance, budget=10**8)
        assert brute_force_optimum(demo_instance, budget=10**8) == first_run
        ok = True
    finally:
        criterion_report(7, "plans and oracle runs are deterministic", ok)


def test_criterion_8_simulation_consistency(tmp_path, capsys, criterion_report):
    ok = False
    try:
        for idx, instance in enumerate(corpus()):
            instance_path = tmp_path / f"instance_{idx}.json"
            plan_path = tmp_path / f"plan_{idx}.json"
            instance_path.write_text(serialize_instance(instance))
            assert main(["plan", str(instance_path), "--output", str(plan_path)]) == 0
            assert main(["simulate", str(instance_path), str(plan_path)]) == 0
            capsys.readouterr()

            doc = json.loads(plan_path.read_text())
            matrix = AssignmentMatrix(
                rows=tuple(tuple(r) for r in doc["assignment"]), k=instance.k
            )
            code = CodingMatrix(
                field=Field(doc["code"]["field_degree"]),
                n=instance.n,
                rows=tuple(tuple(r) for r in doc["code"]["rows"]),
            )
            sim = run_simulation(instance, matrix, code)
            assert all(sim.decoded_ok)
            assert (
                sim.final_clock
                == closed_form_delay(instance)
                == parse_rational(doc["total_delay"], "total_delay")
            )
        ok = True
    finally:
        criterion_report(8, "simulated clock equals the closed form on every plan", ok)
