"""Delay accounting, the optimal plan, the closed form, and the step-by-step
rewrite that proves it optimal."""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    HAND_PLAN_ROWS,
    OPTIMAL_PLAN_ROWS,
    instance_with_exact_matrix,
    instances,
    make_instance,
)
from dmsiplan import (
    AssignmentMatrix,
    DmsiInstance,
    closed_form_delay,
    decodability_check,
    is_feasible,
    is_solvable,
    optimal_assignment,
    parse_instance,
    reduce_to_exact_weights,
    sink_flows,
    total_delay,
    transform_to_optimal,
)
from dmsiplan import assignment
from dmsiplan.assignment import TransformStep, TransformTrace
from dmsiplan.netflow import build_network

# the worked walkthrough's intermediate matrices, in ranked column order
STEP_1_ROWS = ((1, 0, 1, 1), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 1, 1))
STEP_2_ROWS = ((1, 1, 1, 1), (1, 0, 0, 1), (0, 0, 0, 1), (0, 0, 1, 1), (0, 0, 1, 1))
STEP_3_ROWS = ((1, 1, 1, 1), (1, 0, 1, 1), (0, 0, 1, 1), (0, 0, 0, 1), (0, 0, 0, 1))


def test_handpicked_plan_delays(demo_instance, hand_plan_matrix):
    report = total_delay(hand_plan_matrix, demo_instance.delays())
    assert report.per_packet == tuple(Fraction(d) for d in (8, 4, 8, 2, 2))
    assert report.total == Fraction(24)


def test_optimal_plan_delays(demo_instance, optimal_plan_matrix):
    report = total_delay(optimal_plan_matrix, demo_instance.delays())
    assert report.per_packet == tuple(Fraction(d) for d in (8, 8, 2, 1, 1))
    assert report.total == Fraction(20)


def packet_delay(matrix, i, delays):
    """Fraction reference for one row's delay: its slowest recipient's delay,
    0 if unassigned."""
    row = matrix.rows[i]
    return max((delays[j] for j in range(matrix.k) if row[j]), default=Fraction(0))


def test_packet_delay_of_unassigned_row_is_zero():
    matrix = AssignmentMatrix(rows=((0, 0), (1, 0)), k=2)
    delays = (Fraction(3), Fraction(5))
    assert total_delay(matrix, delays).per_packet == (0, 3)
    assert (packet_delay(matrix, 0, delays), packet_delay(matrix, 1, delays)) == (0, 3)
    with pytest.raises(ValueError):
        total_delay(matrix, (Fraction(1),))


def test_total_delay_checks_the_delay_count_without_rows():
    with pytest.raises(ValueError, match="1 delays for k=3 columns"):
        total_delay(AssignmentMatrix(rows=(), k=3), [Fraction(1)])


def test_matrix_validation():
    with pytest.raises(ValueError):
        AssignmentMatrix(rows=((1, 0), (1,)), k=2)
    with pytest.raises(ValueError):
        AssignmentMatrix(rows=(), k=-1)


@pytest.mark.parametrize("bad", [True, 2, -1, 1.0])
def test_matrix_names_the_bad_entry(bad):
    with pytest.raises(ValueError, match=re.escape(f"entry (1, 1) is {bad!r}, expected 0 or 1")):
        AssignmentMatrix(rows=((1, 0), (0, bad)), k=2)


def _first_fault(rows, k):
    """The row-by-row reference: the first short or long row, or bad entry,
    in row order, as AssignmentMatrix names it; None for a valid matrix."""
    for i, row in enumerate(rows):
        if len(row) != k:
            return f"row {i} has length {len(row)}, expected k={k}"
        for j, a in enumerate(row):
            if not isinstance(a, int) or isinstance(a, bool) or a not in (0, 1):
                return f"entry ({i}, {j}) is {a!r}, expected 0 or 1"
    return None


BAD_CELLS = [True, False, 1.0, 0.0, 2, -1, "1", None]


@given(
    st.integers(0, 4).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(
                st.lists(st.sampled_from([0, 1]) | st.sampled_from(BAD_CELLS),
                         min_size=max(0, k - 1), max_size=k + 1),
                max_size=6,
            ),
        )
    )
)
@example((2, [[1, 0], [0, True], [2]]))
@example((2, [[1, 0, 1], [0, 1.0]]))
@example((3, [[0, 1, 0], [1, 1, -1], [1, False, 0]]))
@example((1, [[0], [], [2]]))
@example((0, [[], [0]]))
@settings(max_examples=300, deadline=None)
def test_matrix_names_its_first_fault_in_row_order(case):
    """The whole-matrix check falls back to the row loop: bools, floats, 2,
    -1, short and long rows, often several faults in one matrix, and the
    first in row order is named with the row loop's message."""
    k, rows = case
    expected = _first_fault(rows, k)
    if expected is None:
        assert AssignmentMatrix(rows=rows, k=k).rows == tuple(map(tuple, rows))
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            AssignmentMatrix(rows=rows, k=k)


def test_matrix_accepts_int_subclass_entries():
    class Bit(int):
        pass

    matrix = AssignmentMatrix(rows=((Bit(1), 0),), k=2)
    assert matrix.column_weights() == (1, 0)


def test_column_weights(hand_plan_matrix, optimal_plan_matrix):
    assert hand_plan_matrix.column_weights() == (2, 1, 3, 5)
    assert optimal_plan_matrix.column_weights() == (2, 1, 3, 5)


def test_column_weights_without_rows_or_columns(demo_instance):
    assert AssignmentMatrix(rows=(), k=3).column_weights() == (0, 0, 0)
    assert AssignmentMatrix(rows=(), k=0).column_weights() == ()
    assert AssignmentMatrix(rows=((), ()), k=0).column_weights() == ()
    nobody = DmsiInstance(n=4, clients=())
    assert is_feasible(AssignmentMatrix(rows=((), ()), k=0), nobody)
    assert is_feasible(AssignmentMatrix(rows=(), k=0), nobody)
    sated = make_instance(2, [{0, 1}, {0, 1}], [3, 1])
    assert is_feasible(AssignmentMatrix(rows=(), k=2), sated)
    assert not is_feasible(AssignmentMatrix(rows=(), k=4), demo_instance)


@given(instance_with_exact_matrix())
def test_column_weights_count_each_column(case):
    _, matrix = case
    assert matrix.column_weights() == tuple(
        sum(row[j] for row in matrix.rows) for j in range(matrix.k)
    )


def test_feasibility(demo_instance, hand_plan_matrix, optimal_plan_matrix):
    assert is_feasible(hand_plan_matrix, demo_instance)
    assert is_feasible(optimal_plan_matrix, demo_instance)
    short = AssignmentMatrix(rows=optimal_plan_matrix.rows[:-1], k=4)
    assert not is_feasible(short, demo_instance)
    # each column one row short in turn: only that client is under weight
    for j, w in enumerate(demo_instance.want_counts()):
        rows = [list(r) for r in hand_plan_matrix.rows]
        next(r for r in rows if r[j])[j] = 0
        matrix = AssignmentMatrix(rows=rows, k=4)
        assert matrix.column_weights()[j] == w - 1
        assert not is_feasible(matrix, demo_instance)
    with pytest.raises(ValueError):
        is_feasible(AssignmentMatrix(rows=(), k=3), demo_instance)


def test_optimal_assignment_matches_reference(demo_instance):
    ranking, matrix = optimal_assignment(demo_instance)
    assert ranking == (0, 1, 2, 3)
    assert matrix.rows == OPTIMAL_PLAN_ROWS
    assert is_feasible(matrix, demo_instance)


def test_optimal_assignment_empty_cases():
    ranking, matrix = optimal_assignment(make_instance(0, [], []))
    assert ranking == () and matrix.rows == () and matrix.k == 0
    # clients that already hold everything need no rows at all
    inst = make_instance(2, [{0, 1}, {0, 1}], [5, 3])
    ranking, matrix = optimal_assignment(inst)
    assert matrix.rows == ()
    assert closed_form_delay(inst) == 0


@given(instances(max_n=8, max_k=5))
@example(make_instance(4, [{0}, {0}, set(), {0, 1, 2, 3}], [1, 2, 3, 4]))
@settings(max_examples=200, deadline=None)
def test_optimal_assignment_is_the_staircase_row_by_row(inst):
    """Row i gives a 1 to each client missing more than i packets; equal
    rows, one per run of rows between two clients' stops, are one tuple."""
    want = inst.want_counts()
    _, matrix = optimal_assignment(inst)
    assert matrix.rows == tuple(
        tuple(1 if i < w else 0 for w in want) for i in range(max(want, default=0))
    )
    assert len(set(map(id, matrix.rows))) == len(set(matrix.rows))


def test_closed_form_term_by_term(demo_instance):
    # contributions in ranked order: 8*2, 4*0 (covered), 2*1, 1*2
    want = demo_instance.want_counts()
    delays = demo_instance.delays()
    covered = 0
    terms = []
    for j in demo_instance.delay_ranking():
        terms.append(delays[j] * max(0, want[j] - covered))
        covered = max(covered, want[j])
    assert terms == [Fraction(16), Fraction(0), Fraction(2), Fraction(2)]
    assert closed_form_delay(demo_instance) == Fraction(20) == sum(terms)


def test_closed_form_with_equal_delays():
    inst = make_instance(3, [set(), {0}, {0, 1}], [4, 4, 4])
    # all delays equal: cost is max want times the common delay
    assert closed_form_delay(inst) == 3 * 4


def _closed_form_by_fractions(instance):
    """closed_form_delay as first written, summing Fractions: the reference
    for the scaled-int version."""
    want = instance.want_counts()
    delays = instance.delays()
    covered = 0
    total = Fraction(0)
    for j in instance.delay_ranking():
        total += delays[j] * max(0, want[j] - covered)
        covered = max(covered, want[j])
    return total


@st.composite
def _delay_docs(draw):
    """A client's delay as an instance file gives it: a "p/q" delay with a
    large denominator, a bandwidth under a large packet size, or zero."""
    kind = draw(st.sampled_from(["ratio", "bandwidth", "zero"]))
    if kind == "ratio":
        return {"delay": f"{draw(st.integers(0, 10**6))}/{draw(st.integers(1, 10**9))}"}
    if kind == "bandwidth":
        return {"bandwidth": f"{draw(st.integers(1, 10**9))}/{draw(st.integers(1, 10**6))}"}
    return {"delay": draw(st.sampled_from([0, "0/7"]))}


@st.composite
def _parsed_instance_with_matrix(draw):
    """An instance parsed from a document, and any 0/1 matrix of its width."""
    n = draw(st.integers(0, 4))
    k = draw(st.integers(0, 5))
    specs: list[dict] = []
    for _ in range(k):
        if specs and draw(st.booleans()):
            specs.append(draw(st.sampled_from(specs)))  # a tie
        else:
            specs.append(draw(_delay_docs()))
    clients = [
        {"has": sorted(draw(st.frozensets(st.integers(1, n)))) if n else [], **spec}
        for spec in specs
    ]
    doc = {"n": n, "packet_size": str(draw(st.integers(1, 10**12))), "clients": clients}
    inst = parse_instance(json.dumps(doc))
    m = draw(st.integers(0, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 1)] * k), min_size=m, max_size=m))
    return inst, AssignmentMatrix(rows=tuple(rows), k=k)


@given(_parsed_instance_with_matrix())
@settings(max_examples=300)
def test_scaled_int_delays_equal_the_fraction_reference(case):
    inst, matrix = case
    delays = inst.delays()
    report = total_delay(matrix, delays)
    reference = tuple(packet_delay(matrix, i, delays) for i in range(matrix.m))
    assert report.per_packet == reference
    assert all(type(d) is Fraction for d in report.per_packet)
    assert report.total == sum(reference, Fraction(0))
    assert closed_form_delay(inst) == _closed_form_by_fractions(inst)


@given(instances())
def test_closed_form_equals_total_of_optimal(inst):
    _, matrix = optimal_assignment(inst)
    assert total_delay(matrix, inst.delays()).total == closed_form_delay(inst)


@st.composite
def _instance_with_client_order(draw):
    inst = draw(instances())
    return inst, draw(st.permutations(range(inst.k)))


@given(_instance_with_client_order())
def test_closed_form_ignores_client_order(case):
    inst, order = case
    permuted = DmsiInstance(n=inst.n, clients=tuple(inst.clients[j] for j in order))
    assert closed_form_delay(permuted) == closed_form_delay(inst)


@given(instance_with_exact_matrix())
def test_total_is_row_permutation_invariant(case):
    inst, matrix = case
    reversed_rows = AssignmentMatrix(rows=matrix.rows[::-1], k=matrix.k)
    delays = inst.delays()
    assert total_delay(matrix, delays).total == total_delay(reversed_rows, delays).total


@given(instance_with_exact_matrix())
def test_setting_an_entry_never_lowers_total(case):
    inst, matrix = case
    delays = inst.delays()
    base = total_delay(matrix, delays).total
    for i in range(matrix.m):
        for j in range(matrix.k):
            if matrix.rows[i][j] == 0:
                rows = [list(r) for r in matrix.rows]
                rows[i][j] = 1
                bumped = AssignmentMatrix(rows=tuple(tuple(r) for r in rows), k=matrix.k)
                assert total_delay(bumped, delays).total >= base


def test_transform_reproduces_walkthrough(demo_instance, hand_plan_matrix, optimal_plan_matrix):
    trace = transform_to_optimal(hand_plan_matrix, demo_instance)
    assert trace.ranking == (0, 1, 2, 3)
    totals = [step.total for step in trace.steps]
    assert totals == [Fraction(t) for t in (24, 24, 21, 20, 20, 20)]
    labels = [step.label for step in trace.steps]
    assert labels == ["initial", "step 1", "step 2", "step 3", "step 4", "step 5"]
    assert trace.steps[1].matrix.rows == STEP_1_ROWS
    assert trace.steps[2].matrix.rows == STEP_2_ROWS
    assert trace.steps[3].matrix.rows == STEP_3_ROWS
    assert trace.steps[-1].matrix == optimal_plan_matrix
    assert trace.final_total == closed_form_delay(demo_instance)


def test_transform_clears_surplus_and_rejects_underweight(demo_instance, optimal_plan_matrix):
    rows = [list(r) for r in optimal_plan_matrix.rows]
    rows[4][0] = 1  # surplus assignment for C1
    heavy = AssignmentMatrix(rows=tuple(tuple(r) for r in rows), k=4)
    trace = transform_to_optimal(heavy, demo_instance)
    assert [step.label for step in trace.steps[:2]] == ["initial", "surplus removed"]
    assert trace.ranking == (0, 1, 2, 3)
    assert trace.steps[1].matrix.column_weights() == demo_instance.want_counts()
    assert trace.steps[-1].matrix == optimal_plan_matrix
    assert trace.final_total == closed_form_delay(demo_instance)
    short = AssignmentMatrix(rows=optimal_plan_matrix.rows[:3], k=4)
    with pytest.raises(ValueError, match="column 4 has weight 3 < w=5"):
        transform_to_optimal(short, demo_instance)
    with pytest.raises(ValueError):
        transform_to_optimal(AssignmentMatrix(rows=(), k=4), demo_instance)


def test_transform_keeps_interleaved_zero_rows_out(demo_instance, hand_plan_matrix):
    rows = (
        hand_plan_matrix.rows[:2] + ((0, 0, 0, 0),) + hand_plan_matrix.rows[2:] + ((0, 0, 0, 0),)
    )
    padded = AssignmentMatrix(rows=rows, k=4)
    trace = transform_to_optimal(padded, demo_instance)
    assert trace.steps[-1].matrix.rows == OPTIMAL_PLAN_ROWS


@given(instance_with_exact_matrix())
@settings(max_examples=150)
def test_transform_is_monotone_and_lands_on_optimal(case):
    inst, matrix = case
    trace = transform_to_optimal(matrix, inst)
    totals = [step.total for step in trace.steps]
    assert all(a >= b for a, b in zip(totals, totals[1:]))
    assert len(trace.steps) == inst.k + 2
    _, optimal = optimal_assignment(inst)
    ranked = tuple(tuple(row[j] for j in trace.ranking) for row in optimal.rows)
    assert trace.steps[-1].matrix == AssignmentMatrix(rows=ranked, k=inst.k)
    assert trace.final_total == closed_form_delay(inst)


def _reference_transform(matrix, instance):
    """transform_to_optimal as it stood before its steps were made lean, the
    reference for the whole trace: a validated snapshot per step, each row
    priced as the largest Fraction delay among its recipients, the divider
    rescanned from every row at every step, and the surplus cleared by the
    rebuilding reference below."""
    ranking = instance.delay_ranking()
    delays = instance.delays()
    ranked = [delays[j] for j in ranking]
    k = instance.k
    rows = [[row[j] for j in ranking] for row in matrix.rows]
    steps = []

    def snapshot(label):
        snap = AssignmentMatrix(rows=tuple(map(tuple, rows)), k=k)
        total = sum(
            (max((d for d, a in zip(ranked, row) if a), default=Fraction(0)) for row in snap.rows),
            Fraction(0),
        )
        steps.append(TransformStep(label, snap, total))

    snapshot("initial")
    if matrix.column_weights() != instance.want_counts():
        exact = _reduce_by_rebuilding(matrix, instance)
        rows = [[row[j] for j in ranking] for row in exact.rows]
        snapshot("surplus removed")
    if k > 0:
        rows.sort(key=lambda row: 1 - row[0])
        snapshot("step 1")
    for c in range(1, k):
        u = sum(1 for row in rows if any(row[:c]))
        assert all(any(row[:c]) for row in rows[:u])
        ones_u = sum(rows[i][c] for i in range(u))
        ones_l = sum(rows[i][c] for i in range(u, len(rows)))
        for i in range(u):
            rows[i][c] = 1 if i < ones_u else 0
        if ones_l > 0:
            lift = min(ones_l, u - ones_u)
            for i in range(ones_u, ones_u + lift):
                rows[i][c] = 1
            cleared = 0
            for i in range(u, len(rows)):
                if rows[i][c] and cleared < lift:
                    rows[i][c] = 0
                    cleared += 1
            rows[u:] = sorted(rows[u:], key=lambda row: 1 - row[c])
        snapshot(f"step {c + 1}")
    while rows and not any(rows[-1]):
        rows.pop()
    snapshot(f"step {k + 1}")
    return TransformTrace(ranking=ranking, steps=tuple(steps))


@st.composite
def _parsed_instance_with_feasible_matrix(draw):
    """A parsed instance with p/q, bandwidth, zero and tied delays, some
    clients holding every packet (zero-weight columns), and a feasible matrix
    whose columns carry up to three surplus ones and whose rows may be zero."""
    n = draw(st.integers(0, 4))
    k = draw(st.integers(0, 6))
    specs: list[dict] = []
    for _ in range(k):
        if specs and draw(st.booleans()):
            specs.append(draw(st.sampled_from(specs)))  # a tie
        else:
            specs.append(draw(_delay_docs()))
    clients = []
    for spec in specs:
        held = list(range(1, n + 1)) if draw(st.integers(0, 3)) == 0 else sorted(
            draw(st.frozensets(st.integers(1, n))) if n else []
        )
        clients.append({"has": held, **spec})
    doc = {"n": n, "packet_size": str(draw(st.integers(1, 10**12))), "clients": clients}
    inst = parse_instance(json.dumps(doc))
    want = inst.want_counts()
    m = max(want, default=0) + draw(st.integers(0, 3))
    rows = [[0] * k for _ in range(m)]
    for j, w in enumerate(want):
        for i in draw(st.permutations(range(m)))[: w + draw(st.integers(0, 3))]:
            rows[i][j] = 1
    return inst, AssignmentMatrix(rows=tuple(map(tuple, rows)), k=k)


@given(_parsed_instance_with_feasible_matrix())
@example((make_instance(0, [], []), AssignmentMatrix(rows=(), k=0)))
@example((make_instance(3, [], []), AssignmentMatrix(rows=((), ()), k=0)))
@example((make_instance(2, [{0, 1}, set()], [3, 0]), AssignmentMatrix(rows=((1, 1), (0, 1), (1, 1)), k=2)))
@settings(max_examples=400)
def test_transform_trace_equals_the_reference(case):
    """Ranking, labels, every matrix and every total, step by step."""
    inst, matrix = case
    trace = transform_to_optimal(matrix, inst)
    assert trace == _reference_transform(matrix, inst)
    assert all(type(step.total) is Fraction for step in trace.steps)
    assert all(type(step.matrix) is AssignmentMatrix for step in trace.steps)


# (instance, a matrix with surplus 1s, an exact-weight matrix that costs more,
# which a patched reduction returns in place of the surplus-free one)
RAISING_REDUCTIONS = {
    # three clients of delay 1 want the one packet: two all-ones rows cost 2,
    # three single-one rows 3
    "three-single-one-rows": (
        (1, [set()] * 3, [1, 1, 1]), ((1, 1, 1),) * 2, ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ),
    # the demo's optimal matrix with C2 added to row 2, which C1 already slows
    # to 8, still costs 20; the hand plan costs 24
    "demo-hand-plan": (
        (6, [{0, 2, 4, 5}, {0, 1, 2, 3, 4}, {2, 3, 5}, {3}], [8, 4, 2, 1]),
        ((1, 1, 1, 1), (1, 1, 1, 1), *OPTIMAL_PLAN_ROWS[2:]), HAND_PLAN_ROWS,
    ),
}


@pytest.mark.parametrize("case", RAISING_REDUCTIONS.values(), ids=RAISING_REDUCTIONS)
def test_a_step_that_raises_the_total_trips_the_monotonicity_check(monkeypatch, case):
    """A reduction that raises the total must make the rewrite refuse rather
    than reach the optimum through it, though the later steps would."""
    spec, surplus_rows, exact_rows = case
    inst = make_instance(*spec)
    padded = AssignmentMatrix(rows=surplus_rows, k=inst.k)
    exact = AssignmentMatrix(rows=exact_rows, k=inst.k)
    assert total_delay(exact, inst.delays()).total > total_delay(padded, inst.delays()).total
    assert transform_to_optimal(padded, inst).final_total == closed_form_delay(inst)
    assert transform_to_optimal(exact, inst).final_total == closed_form_delay(inst)
    monkeypatch.setattr(assignment, "reduce_to_exact_weights", lambda matrix, instance: exact)
    with pytest.raises(AssertionError, match="^a rewrite step increased the total delay$"):
        transform_to_optimal(padded, inst)


def test_reduce_clears_most_expensive_rows_first():
    inst = make_instance(2, [{1}, {0}], [2, 3])  # want (1, 1)
    matrix = AssignmentMatrix(rows=((1, 1), (1, 0)), k=2)
    reduced = reduce_to_exact_weights(matrix, inst)
    # column 1 is over weight; row 1 costs max(2, 3), row 2 costs 2
    assert reduced.rows == ((0, 1), (1, 0))


def test_reduce_passes_through_exact(demo_instance, optimal_plan_matrix):
    assert reduce_to_exact_weights(optimal_plan_matrix, demo_instance) == optimal_plan_matrix


def test_reduce_rejects_underweight(demo_instance, optimal_plan_matrix):
    short = AssignmentMatrix(rows=optimal_plan_matrix.rows[:3], k=4)
    with pytest.raises(ValueError, match="infeasible"):
        reduce_to_exact_weights(short, demo_instance)


def _reduce_by_rebuilding(matrix, instance):
    """The first reduce_to_exact_weights: re-derives every row's delay from a
    freshly validated matrix before each cleared 1 (quadratic, kept as the
    reference for the incremental version)."""
    want = instance.want_counts()
    delays = instance.delays()
    rows = [list(row) for row in matrix.rows]
    for j, w in enumerate(want):
        weight = sum(row[j] for row in rows)
        while weight > w:
            current = AssignmentMatrix(rows=tuple(tuple(r) for r in rows), k=matrix.k)
            i = max(
                (i for i in range(len(rows)) if rows[i][j]),
                key=lambda i: (packet_delay(current, i, delays), -i),
            )
            rows[i][j] = 0
            weight -= 1
    return AssignmentMatrix(rows=tuple(tuple(r) for r in rows), k=matrix.k)


def test_reduce_matches_the_rebuilding_reference():
    rng = random.Random(6007)
    for _ in range(400):
        n = rng.randint(0, 7)
        k = rng.randint(1, 5)
        has = [rng.sample(range(n), rng.randint(0, n)) for _ in range(k)]
        # few distinct delays, so ties on the largest row delay are common
        delays = [Fraction(rng.randint(0, 4), rng.randint(1, 2)) for _ in range(k)]
        inst = make_instance(n, has, delays)
        want = inst.want_counts()
        m = max(want, default=0) + rng.randint(0, 3)
        rows = [[0] * k for _ in range(m)]
        for j, w in enumerate(want):
            for i in rng.sample(range(m), min(m, w + rng.randint(0, 3))):
                rows[i][j] = 1
        padded = AssignmentMatrix(rows=tuple(tuple(r) for r in rows), k=k)
        reduced = reduce_to_exact_weights(padded, inst)
        assert reduced == _reduce_by_rebuilding(padded, inst)
        assert reduced.column_weights() == want


@given(instance_with_exact_matrix())
def test_reduce_then_transform_from_padded(case):
    inst, matrix = case
    rng = random.Random(1234)
    rows = [list(r) for r in matrix.rows]
    for row in rows:
        for j in range(inst.k):
            if row[j] == 0 and rng.random() < 0.3:
                row[j] = 1
    padded = AssignmentMatrix(rows=tuple(tuple(r) for r in rows), k=inst.k)
    reduced = reduce_to_exact_weights(padded, inst)
    assert reduced.column_weights() == inst.want_counts()
    exact = transform_to_optimal(reduced, inst)
    assert exact.final_total == closed_form_delay(inst)
    trace = transform_to_optimal(padded, inst)
    if padded == matrix:  # padding added no 1
        assert trace == exact
        return
    assert [step.label for step in trace.steps[:2]] == ["initial", "surplus removed"]
    assert trace.steps[1].matrix == exact.steps[0].matrix
    assert [(s.matrix, s.total) for s in trace.steps[2:]] == [
        (s.matrix, s.total) for s in exact.steps[1:]
    ]


@pytest.mark.parametrize(
    "check",
    [
        lambda inst, matrix: is_feasible(matrix, inst),
        lambda inst, matrix: reduce_to_exact_weights(matrix, inst),
        lambda inst, matrix: transform_to_optimal(matrix, inst),
        lambda inst, matrix: decodability_check(inst, matrix, None),
        build_network,
        sink_flows,
        is_solvable,
    ],
)
def test_every_client_count_check_has_one_message(demo_instance, check):
    with pytest.raises(ValueError, match=r"^matrix has 3 columns for 4 clients$"):
        check(demo_instance, AssignmentMatrix(rows=((1, 1, 1),), k=3))
