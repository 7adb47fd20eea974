"""Code construction, the rank criterion, and encode/decode round trips."""

import itertools
import json
import random
import re
import warnings
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    IMPOSSIBLE_GF2_DOC,
    KNOWN_GF4_ROWS,
    client_view,
    gf_add,
    gf_inv,
    gf_mul,
    instance_with_exact_matrix,
    instances,
    make_instance,
    random_instance,
)
from dmsiplan import (
    AssignmentMatrix,
    ClientSpec,
    ClientView,
    CodeConstructionError,
    CodingMatrix,
    DmsiInstance,
    Field,
    construct_code,
    decodability_check,
    decode,
    default_field_degree,
    encode,
    matrix_rank,
    optimal_assignment,
    parse_instance,
    run_simulation,
    total_delay,
)
from dmsiplan import coding
from dmsiplan.cli import build_plan


def test_reference_gf4_code_verifies(demo_instance, optimal_plan_matrix):
    code = CodingMatrix(field=Field(2), n=6, rows=KNOWN_GF4_ROWS)
    assert decodability_check(demo_instance, optimal_plan_matrix, code) == (True,) * 4


def test_reference_code_round_trips_every_client(demo_instance, optimal_plan_matrix):
    code = CodingMatrix(field=Field(2), n=6, rows=KNOWN_GF4_ROWS)
    payload = (1, 2, 0, 3, 1, 2)
    broadcast = encode(code, payload)
    assert broadcast == (3, 1, 2, 1, 0)
    for j in range(4):
        view = client_view(demo_instance, optimal_plan_matrix, j, payload, broadcast)
        recovered = decode(view, demo_instance, optimal_plan_matrix, code)
        missing = set(range(6)) - demo_instance.clients[j].has
        assert recovered == {x: payload[x] for x in missing}
    # the slow client misses only packet 6 and reads it off one symbol
    view = client_view(demo_instance, optimal_plan_matrix, 1, payload, broadcast)
    assert decode(view, demo_instance, optimal_plan_matrix, code) == {5: 2}


def test_encode_of_basis_vector_reads_off_a_column():
    code = CodingMatrix(field=Field(2), n=6, rows=KNOWN_GF4_ROWS)
    payload = (0, 0, 1, 0, 0, 0)
    assert encode(code, payload) == tuple(row[2] for row in KNOWN_GF4_ROWS)
    with pytest.raises(ValueError):
        encode(code, (0, 0, 1))


def test_construction_is_seed_deterministic(demo_instance, optimal_plan_matrix):
    a = construct_code(demo_instance, optimal_plan_matrix, field=Field(2), seed=11)
    b = construct_code(demo_instance, optimal_plan_matrix, field=Field(2), seed=11)
    assert a == b
    assert all(decodability_check(demo_instance, optimal_plan_matrix, a))


def test_default_field_degree():
    assert [default_field_degree(k) for k in (0, 1, 2, 3, 4, 5, 8, 9)] == [
        1, 1, 1, 2, 2, 3, 3, 4,
    ]


def test_construction_warns_when_field_smaller_than_client_count():
    inst = make_instance(2, [set()] * 6, [6, 5, 4, 3, 2, 1])
    _, matrix = optimal_assignment(inst)
    with pytest.warns(RuntimeWarning, match="below the client count"):
        code = construct_code(inst, matrix, field=Field(1), seed=0)
    # q < k is not always fatal: all clients share both rows here
    assert all(decodability_check(inst, matrix, code))


def test_construction_fails_honestly_when_no_code_exists():
    inst = parse_instance(json.dumps(IMPOSSIBLE_GF2_DOC))
    _, matrix = optimal_assignment(inst)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(CodeConstructionError, match="64 draws"):
            construct_code(inst, matrix, field=Field(1), seed=0)
    # one field degree up, the same assignment becomes realizable
    with pytest.warns(RuntimeWarning):
        code = construct_code(inst, matrix, field=Field(2), seed=0)
    assert all(decodability_check(inst, matrix, code))


@pytest.mark.parametrize(
    "seed, failing",
    [(0, [1]), (1, [3, 4, 5, 6]), (30, [1, 2, 3, 4, 5, 6])],
)
def test_construction_failure_names_every_failing_client(seed, failing):
    # the last draw is rejected at its first failing client, yet the message
    # still names every client that draw leaves short
    inst = parse_instance(json.dumps(IMPOSSIBLE_GF2_DOC))
    _, matrix = optimal_assignment(inst)
    with pytest.warns(RuntimeWarning), pytest.raises(CodeConstructionError) as info:
        construct_code(inst, matrix, field=Field(1), seed=seed)
    assert str(info.value) == (
        f"no verified code after 64 draws of row 2 over GF(2^1); "
        f"clients {failing} still lack full rank"
    )


def test_construction_rejects_infeasible_assignment(demo_instance, optimal_plan_matrix):
    short = AssignmentMatrix(rows=optimal_plan_matrix.rows[:-1], k=4)
    with pytest.raises(ValueError, match="infeasible"):
        construct_code(demo_instance, short, field=Field(2), seed=0)


def test_zero_code_fails_decodability(demo_instance, optimal_plan_matrix):
    zero = CodingMatrix(field=Field(2), n=6, rows=((0,) * 6,) * 5)
    flags = decodability_check(demo_instance, optimal_plan_matrix, zero)
    assert flags == (False, False, False, False)


def test_decode_raises_on_singular_system(demo_instance, optimal_plan_matrix):
    zero = CodingMatrix(field=Field(2), n=6, rows=((0,) * 6,) * 5)
    payload = (0,) * 6
    view = client_view(demo_instance, optimal_plan_matrix, 3, payload, encode(zero, payload))
    with pytest.raises(ValueError, match="singular"):
        decode(view, demo_instance, optimal_plan_matrix, zero)


def test_decode_raises_on_inconsistent_symbols():
    inst = make_instance(1, [set()], [1])
    matrix = AssignmentMatrix(rows=((1,), (1,)), k=1)
    code = CodingMatrix(field=Field(1), n=1, rows=((1,), (1,)))
    view = ClientView(client=0, side_info=(), received=((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="inconsistent"):
        decode(view, inst, matrix, code)


@pytest.mark.parametrize("e", [4, 12])
def test_a_singular_and_inconsistent_system_is_reported_singular(e):
    """Two equal rows with different symbols for a client missing two packets:
    the rank falls short before the symbols disagree, at both lane widths."""
    inst = make_instance(2, [set()], [1])
    matrix = AssignmentMatrix(rows=((1,), (1,)), k=1)
    code = CodingMatrix(field=Field(e), n=2, rows=((1, 2), (1, 2)))
    view = ClientView(client=0, side_info=(), received=((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="^singular system"):
        decode(view, inst, matrix, code)
    # run_simulation broadcasts two equal symbols; its solver is given the view's
    original, errors = coding._solve, []

    def solve(instance, code, j, share, received, eliminate):
        try:
            return original(instance, code, j, share, view.received, eliminate)
        except ValueError as err:
            errors.append(str(err))
            raise

    with mock.patch.object(coding, "_solve", solve):
        assert run_simulation(inst, matrix, code).decoded_ok == (False,)
    assert len(errors) == 1 and errors[0].startswith("singular system")


def test_decode_validates_the_view(demo_instance, optimal_plan_matrix):
    code = CodingMatrix(field=Field(2), n=6, rows=KNOWN_GF4_ROWS)
    payload = (1, 2, 0, 3, 1, 2)
    broadcast = encode(code, payload)
    good = client_view(demo_instance, optimal_plan_matrix, 0, payload, broadcast)
    missing_row = ClientView(client=0, side_info=good.side_info, received=good.received[:-1])
    with pytest.raises(ValueError, match="received rows"):
        decode(missing_row, demo_instance, optimal_plan_matrix, code)
    wrong_side = ClientView(client=0, side_info=good.side_info[:-1], received=good.received)
    with pytest.raises(ValueError, match="side information"):
        decode(wrong_side, demo_instance, optimal_plan_matrix, code)


def test_decode_compares_received_rows_as_a_set(demo_instance, optimal_plan_matrix):
    code = CodingMatrix(field=Field(2), n=6, rows=KNOWN_GF4_ROWS)
    payload = (1, 2, 0, 3, 1, 2)
    broadcast = encode(code, payload)
    good = client_view(demo_instance, optimal_plan_matrix, 0, payload, broadcast)
    truth = decode(good, demo_instance, optimal_plan_matrix, code)
    assert len(good.received) > 1

    def with_received(received):
        return ClientView(client=0, side_info=good.side_info, received=tuple(received))

    reordered = with_received(reversed(good.received))
    assert decode(reordered, demo_instance, optimal_plan_matrix, code) == truth
    (h, symbol), *_ = good.received
    repeated = with_received((*good.received, (h, symbol)))
    assert decode(repeated, demo_instance, optimal_plan_matrix, code) == truth
    contradicted = with_received((*good.received, (h, symbol ^ 1)))
    with pytest.raises(ValueError, match="inconsistent"):
        decode(contradicted, demo_instance, optimal_plan_matrix, code)
    other = next(h for h, row in enumerate(optimal_plan_matrix.rows) if not row[0])
    for received in (good.received[1:], (*good.received, (other, broadcast[other]))):
        with pytest.raises(ValueError, match="received rows"):
            decode(with_received(received), demo_instance, optimal_plan_matrix, code)


def test_every_code_consumer_rejects_a_code_of_the_wrong_shape(demo_instance, optimal_plan_matrix):
    """decodability_check, decode and run_simulation share one shape check: a
    short code used to fail with IndexError, and a long one to simulate as decoded."""
    payload = (1, 2, 0, 3, 1, 2)
    broadcast = encode(CodingMatrix(field=Field(2), n=6, rows=KNOWN_GF4_ROWS), payload)
    views = [client_view(demo_instance, optimal_plan_matrix, j, payload, broadcast)
             for j in range(demo_instance.k)]
    for rows, shape in (
        (KNOWN_GF4_ROWS[:4], "4x6"),
        ((*KNOWN_GF4_ROWS, KNOWN_GF4_ROWS[0]), "6x6"),
        ([row[:5] for row in KNOWN_GF4_ROWS], "5x5"),
    ):
        bad = CodingMatrix(field=Field(2), n=len(rows[0]), rows=rows)
        expected = rf"^code is {shape}, expected 5x6$"
        with pytest.raises(ValueError, match=expected):
            decodability_check(demo_instance, optimal_plan_matrix, bad)
        for view in views:
            with pytest.raises(ValueError, match=expected):
                decode(view, demo_instance, optimal_plan_matrix, bad)
        with pytest.raises(ValueError, match=expected):
            run_simulation(demo_instance, optimal_plan_matrix, bad)


@given(
    st.integers(0, 4),
    st.lists(st.tuples(st.integers(-1, 1), st.sampled_from([0, 1, 3, 4, True, -1])), max_size=6),
)
@example(2, [(0, 1), (1, 0), (-1, 0)])
@example(3, [(0, 4), (-1, 0)])
@settings(max_examples=200, deadline=None)
def test_code_matrix_names_its_first_short_or_long_row(n, shapes):
    """CodingMatrix checks row lengths at once and names the first bad row in
    row order; its elements are checked only when every length is right."""
    rows = [[value] * (n + delta) for delta, value in shapes]
    bad = [(i, len(row)) for i, row in enumerate(rows) if len(row) != n]
    cells = [v for row in rows for v in row]
    if bad:
        i, length = bad[0]
        with pytest.raises(ValueError, match=f"^row {i} has length {length}, expected n={n}$"):
            CodingMatrix(field=Field(2), n=n, rows=rows)
    elif any(type(v) is not int or not 0 <= v < 4 for v in cells):
        with pytest.raises(ValueError, match=" is not an element of GF"):
            CodingMatrix(field=Field(2), n=n, rows=rows)
    else:
        assert CodingMatrix(field=Field(2), n=n, rows=rows).rows == tuple(map(tuple, rows))


@pytest.mark.parametrize("client", [-1, 4])
def test_decode_rejects_a_client_outside_the_instance(demo_instance, optimal_plan_matrix, client):
    code = CodingMatrix(field=Field(2), n=6, rows=KNOWN_GF4_ROWS)
    view = ClientView(client=client, side_info=(), received=())
    with pytest.raises(ValueError, match=re.escape(f"client index {client} outside [0, 4)")):
        decode(view, demo_instance, optimal_plan_matrix, code)


@pytest.mark.parametrize(
    "values, named",
    [
        ((0, 3, 4, True, 0, 0), "4"),
        ((1, True, 4, 0, 0, 0), "True"),
        ((1, 2, 2.0, -1, 0, 0), "2.0"),
        ((0, 0, 0, 0, -1, "1"), "-1"),
        ((3, 3, 3, None, 3, "3"), "None"),
    ],
)
def test_every_element_check_names_the_first_bad_element(
    demo_instance, optimal_plan_matrix, values, named
):
    """Code rows, matrix_rank, encode's payload and decode's view share one check."""
    field = Field(2)
    message = "^" + re.escape(f"{named} is not an element of GF(2^2)") + "$"
    code = CodingMatrix(field=field, n=6, rows=KNOWN_GF4_ROWS)
    good = client_view(demo_instance, optimal_plan_matrix, 3, (0,) * 6, encode(code, (0,) * 6))
    received = tuple((h, v) for (h, _), v in zip(good.received, values))  # the first five
    calls = [
        lambda: field._check_all(values),
        lambda: CodingMatrix(field=field, n=6, rows=(KNOWN_GF4_ROWS[0], values)),
        lambda: matrix_rank(field, [KNOWN_GF4_ROWS[0], values]),
        lambda: encode(code, values),
        lambda: decode(ClientView(3, good.side_info, received), demo_instance,
                       optimal_plan_matrix, code),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_matrix_rank_basics():
    f = Field(2)
    assert matrix_rank(f, []) == 0
    assert matrix_rank(f, [[0, 0], [0, 0]]) == 0
    assert matrix_rank(f, [[1, 0], [0, 1]]) == 2
    assert matrix_rank(f, [[1, 0], [0, 1], [1, 1]]) == 2  # a row past full rank
    # [2, 3] and [3, 1] are the alpha and alpha^2 multiples of [1, 2]
    assert matrix_rank(f, [[1, 2], [2, 3], [3, 1]]) == 1
    assert matrix_rank(f, [[1, 2], [2, 3], [0, 1]]) == 2
    assert matrix_rank(f, [[1, 2, 3]]) == 1


class Two(int):
    pass


def test_coding_matrix_validation():
    with pytest.raises(ValueError):
        CodingMatrix(field=Field(2), n=3, rows=((1, 2),))
    with pytest.raises(ValueError):
        CodingMatrix(field=Field(2), n=2, rows=((1, 4),))
    for bad in (True, False, -1, 4, 0.5, 2.0, "1", None):
        with pytest.raises(ValueError, match="not an element"):
            CodingMatrix(field=Field(2), n=3, rows=((0, 1, 2), (3, bad, 0)))
    # int subclasses pass, as they pass Field._check
    assert CodingMatrix(field=Field(2), n=2, rows=((Two(2), 3),)).rows == ((2, 3),)


def test_round_trip_exhaustive_gf2_small():
    """Every payload, every client, on a few n <= 4 binary-field instances."""
    cases = [
        make_instance(2, [set(), {0}], [3, 1]),
        make_instance(3, [{0}, {1, 2}], [2, 5]),
        make_instance(4, [{0, 1}, {2, 3}], [1, 1]),
        make_instance(4, [{0, 1, 2}, {1, 2, 3}], [4, 2]),
    ]
    f = Field(1)
    for inst in cases:
        _, matrix = optimal_assignment(inst)
        code = construct_code(inst, matrix, field=f, seed=2)
        for payload in itertools.product(range(2), repeat=inst.n):
            broadcast = encode(code, payload)
            for j in range(inst.k):
                view = client_view(inst, matrix, j, payload, broadcast)
                recovered = decode(view, inst, matrix, code)
                missing = set(range(inst.n)) - inst.clients[j].has
                assert recovered == {x: payload[x] for x in missing}


def test_random_payload_round_trips(demo_instance, optimal_plan_matrix):
    code = construct_code(demo_instance, optimal_plan_matrix, field=Field(2), seed=5)
    rng = random.Random(99)
    for _ in range(250):
        payload = tuple(rng.randrange(4) for _ in range(6))
        broadcast = encode(code, payload)
        for j in range(4):
            view = client_view(demo_instance, optimal_plan_matrix, j, payload, broadcast)
            recovered = decode(view, demo_instance, optimal_plan_matrix, code)
            missing = set(range(6)) - demo_instance.clients[j].has
            assert recovered == {x: payload[x] for x in missing}


def test_codes_exist_for_random_feasible_instances():
    """Default field (q >= k) always admits a code for the optimal plan."""
    rng = random.Random(31337)
    for _ in range(1000):
        inst = random_instance(rng, max_n=8, max_k=6)
        _, matrix = optimal_assignment(inst)
        code = construct_code(inst, matrix, seed=rng.randrange(2**30))
        assert all(decodability_check(inst, matrix, code))
        assert code.field.q >= max(inst.k, 2)


# ---------------------------------------------------------------- kernel vs reference

# both lane widths of the packed rows: 8-bit lanes up to e = 8 (e = 8 fills
# every byte value), 16-bit lanes with x-power rows above, up to the top degree
DEGREES = (1, 2, 4, 8, 9, 12, 16)
FIELDS = {e: Field(e) for e in DEGREES}


def reference_rank(f, rows):
    """Forward elimination with the checked gf_add, gf_mul and gf_inv."""
    work = [list(row) for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = gf_inv(f, work[rank][col])
        work[rank] = [gf_mul(f, inv, v) for v in work[rank]]
        for i in range(rank + 1, len(work)):
            factor = work[i][col]
            work[i] = [gf_add(f, v, gf_mul(f, factor, p)) for v, p in zip(work[i], work[rank])]
        rank += 1
    return rank


def reference_dot(f, coeffs, values):
    acc = 0
    for c, v in zip(coeffs, values):
        acc = gf_add(f, acc, gf_mul(f, c, v))
    return acc


@st.composite
def low_rank_matrices(draw):
    """(field, rows): combinations of a few random base rows, so that rank
    deficiency is common even over large fields."""
    f = FIELDS[draw(st.sampled_from(DEGREES))]
    element = st.integers(0, f.q - 1)
    width = draw(st.integers(1, 7))
    base = draw(st.lists(st.lists(element, min_size=width, max_size=width), max_size=width))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = [0] * width
        for b in base:
            c = draw(element)
            row = [gf_add(f, r, gf_mul(f, c, v)) for r, v in zip(row, b)]
        rows.append(row)
    return f, rows


@given(low_rank_matrices())
@settings(max_examples=300, deadline=None)
def test_matrix_rank_matches_reference(case):
    f, rows = case
    assert matrix_rank(f, rows) == reference_rank(f, rows)


@given(st.data(), st.sampled_from(DEGREES))
@settings(max_examples=200, deadline=None)
def test_encode_and_decode_match_reference(data, e):
    f = FIELDS[e]
    element = st.integers(0, f.q - 1)
    n = data.draw(st.integers(1, 6))
    has = data.draw(st.frozensets(st.integers(0, n - 1)))
    missing = [x for x in range(n) if x not in has]
    m = len(missing) + data.draw(st.integers(0, 2))
    rows = data.draw(st.lists(st.lists(element, min_size=n, max_size=n), min_size=m, max_size=m))
    payload = data.draw(st.lists(element, min_size=n, max_size=n))
    inst = make_instance(n, [has], [1])
    matrix = AssignmentMatrix(rows=((1,),) * m, k=1)
    code = CodingMatrix(field=f, n=n, rows=rows)

    broadcast = encode(code, payload)
    assert broadcast == tuple(reference_dot(f, row, payload) for row in rows)
    view = client_view(inst, matrix, 0, payload, broadcast)
    if reference_rank(f, [[row[x] for x in missing] for row in rows]) == len(missing):
        assert decode(view, inst, matrix, code) == {x: payload[x] for x in missing}
    else:
        with pytest.raises(ValueError, match="singular"):
            decode(view, inst, matrix, code)


@pytest.mark.parametrize("bad", [[[4]], [[-1]], [[True]], [[1], [1, 0]], [[0.5]]])
def test_matrix_rank_checks_its_input(bad):
    with pytest.raises(ValueError):
        matrix_rank(Field(2), bad)


def test_decode_rejects_values_outside_the_field(demo_instance, optimal_plan_matrix):
    code = CodingMatrix(field=Field(2), n=6, rows=KNOWN_GF4_ROWS)
    payload = (1, 2, 0, 3, 1, 2)
    good = client_view(demo_instance, optimal_plan_matrix, 0, payload, encode(code, payload))
    (h, _), *rest = good.received
    big_symbol = ClientView(client=0, side_info=good.side_info, received=((h, 4), *rest))
    (x, _), *known = good.side_info
    big_side = ClientView(client=0, side_info=((x, 4), *known), received=good.received)
    for view in (big_symbol, big_side):
        with pytest.raises(ValueError, match="not an element"):
            decode(view, demo_instance, optimal_plan_matrix, code)


# ---------------------------------------------------------------- row-by-row construction


@st.composite
def coded_instances(draw):
    """(field, instance, feasible matrix) with q >= k, so a code must exist.

    A column may carry up to two 1s past its client's want: surplus rows that
    the rank check and the solver reduce past a full basis.
    """
    f = FIELDS[draw(st.sampled_from(DEGREES))]
    instance, matrix = draw(instance_with_exact_matrix(max_n=7, max_k=min(f.q, 6)))
    rows = [list(row) for row in matrix.rows]
    for j in range(instance.k):
        free = [i for i, row in enumerate(rows) if not row[j]]
        for i in draw(st.permutations(free))[: draw(st.integers(0, 2))]:
            rows[i][j] = 1
    return f, instance, AssignmentMatrix(rows=tuple(map(tuple, rows)), k=instance.k)


@given(coded_instances(), st.integers(0, 2**16), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_constructed_code_decodes_for_every_client(case, seed, rng):
    f, instance, matrix = case
    code = construct_code(instance, matrix, field=f, seed=seed)
    assert code == construct_code(instance, matrix, field=f, seed=seed)
    assert decodability_check(instance, matrix, code) == (True,) * instance.k
    payload = [rng.randrange(f.q) for _ in range(instance.n)]
    broadcast = encode(code, payload)
    for j in range(instance.k):
        view = client_view(instance, matrix, j, payload, broadcast)
        missing = set(range(instance.n)) - instance.clients[j].has
        assert decode(view, instance, matrix, code) == {x: payload[x] for x in missing}
    sim = run_simulation(instance, matrix, code, payload_seed=seed)
    assert sim.decoded_ok == (True,) * instance.k


@given(st.sampled_from(DEGREES), instances(max_n=6, max_k=6, min_k=1), st.integers(0, 99))
@settings(max_examples=100, deadline=None)
def test_plan_decodability_matches_an_independent_check(e, instance, seed):
    f = FIELDS[e] if FIELDS[e].q >= instance.k else None
    bundle = build_plan(instance, field=f, seed=seed)
    assert all(decodability_check(instance, bundle.matrix, bundle.code))
    assert bundle.code == build_plan(instance, field=f, seed=seed).code


SIMULATED_DEGREES = (1, 4, 8, 9, 12, 16)


@given(
    st.sampled_from(SIMULATED_DEGREES).flatmap(
        lambda e: st.tuples(st.just(FIELDS[e]), instance_with_exact_matrix(6, min(2**e, 5)))
    ),
    st.sampled_from(["intact", "zeroed row", "changed element"]),
    st.integers(0, 2**16),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_simulation_decodes_as_decode_does_on_each_view(case, damage, seed, rng):
    """run_simulation solves each client's system without building or checking
    a ClientView; it must recover what decode recovers from client_view, and
    fail at the same clients, on a constructed code and on a damaged copy."""
    f, (instance, matrix) = case
    rows = [list(row) for row in construct_code(instance, matrix, field=f, seed=seed).rows]
    # each client has exactly the rows it needs, so a zeroed row fails all its recipients
    sent = [h for h, row in enumerate(matrix.rows) if any(row)]
    if sent and damage == "zeroed row":
        rows[rng.choice(sent)] = [0] * instance.n
    elif sent and damage == "changed element":
        rows[rng.choice(sent)][rng.randrange(instance.n)] ^= rng.randrange(1, f.q)
    code = CodingMatrix(field=f, n=instance.n, rows=rows)

    original, solved = coding._solve, {}

    def solve(instance, code, j, share, received, eliminate):
        try:
            solved[j] = original(instance, code, j, share, received, eliminate)
        except ValueError as err:
            solved[j] = str(err)
            raise
        return solved[j]

    with mock.patch.object(coding, "_solve", solve):
        sim = run_simulation(instance, matrix, code, payload_seed=seed)
    for j in range(instance.k):
        view = client_view(instance, matrix, j, sim.payload, sim.broadcast)
        try:
            recovered = decode(view, instance, matrix, code)
        except ValueError as err:
            recovered = str(err)
        truth = {x: sim.payload[x] for x in range(instance.n) if x not in instance.clients[j].has}
        assert solved[j] == recovered
        assert sim.decoded_ok[j] == (recovered == truth)
    if damage == "intact":
        assert all(sim.decoded_ok)


def test_interleaved_calls_each_bind_the_kernel_for_their_own_code():
    """decodability_check, decode and run_simulation each bind the kernel for
    their code's field and n.  Interleaved in one process over two n and both
    lane sizes, intact and damaged, each must agree with matrix_rank on the
    client's assigned rows and with the payload."""
    rng, cases = random.Random(25), []
    for n, k in ((7, 3), (12, 5)):
        has = [set(rng.sample(range(n), rng.randint(0, n - 2))) for _ in range(k)]
        instance = make_instance(n, has, [rng.randint(1, 16) for _ in range(k)])
        _, matrix = optimal_assignment(instance)
        for e in (4, 12):
            code = construct_code(instance, matrix, field=Field(e), seed=n)
            rows = [list(row) for row in code.rows]
            rows[0] = [0] * n  # every client missing a packet takes row 0
            damaged = CodingMatrix(field=code.field, n=n, rows=rows)
            cases += [(instance, matrix, code), (instance, matrix, damaged)]
    assert len({(case[0].n, case[2].field.e) for case in cases}) == 4
    failed = 0
    for payload_seed in range(3):
        rng.shuffle(cases)
        for instance, matrix, code in cases:
            verdicts = decodability_check(instance, matrix, code)
            sim = run_simulation(instance, matrix, code, payload_seed=payload_seed)
            for j, spec in enumerate(instance.clients):
                missing = [x for x in range(instance.n) if x not in spec.has]
                assigned = [row for row, a in zip(code.rows, matrix.rows) if a[j]]
                rank = matrix_rank(code.field, [[row[x] for x in missing] for row in assigned])
                assert verdicts[j] == (rank == len(missing))
                view = client_view(instance, matrix, j, sim.payload, sim.broadcast)
                try:
                    recovered = decode(view, instance, matrix, code)
                except ValueError:
                    recovered = None
                truth = {x: sim.payload[x] for x in missing}
                assert (recovered == truth) == verdicts[j] == sim.decoded_ok[j]
                assert recovered in (truth, None)
                failed += not verdicts[j]
    assert failed  # the damaged codes leave clients short


@pytest.mark.parametrize("e", [2, 12])
@pytest.mark.parametrize(
    "fault", ["value flipped", "held packet added", "missing packet dropped", "held for missing"]
)
def test_simulation_accepts_exactly_the_missing_packets_with_their_values(
    demo_instance, optimal_plan_matrix, e, fault
):
    """A solution is accepted only if its keys are the client's missing packets
    and each value is the payload's: a held packet, even with its true value,
    a missing one dropped, or one value changed fails that client alone."""
    code = construct_code(demo_instance, optimal_plan_matrix, field=Field(e), seed=1)
    payload = run_simulation(demo_instance, optimal_plan_matrix, code, payload_seed=3).payload
    original, target = coding._solve, 2  # C3 holds packets 3, 4 and 6 and misses 1, 2 and 5
    held = min(demo_instance.clients[target].has)

    def solve(instance, code, j, share, received, eliminate):
        solution = original(instance, code, j, share, received, eliminate)
        assert solution == {x: payload[x] for x in range(6) if x not in instance.clients[j].has}
        if j == target:
            x = min(solution)
            if fault == "value flipped":
                solution[x] ^= 1
            if fault in ("held packet added", "held for missing"):
                solution[held] = payload[held]
            if fault in ("missing packet dropped", "held for missing"):
                del solution[x]
        return solution

    with mock.patch.object(coding, "_solve", solve):
        sim = run_simulation(demo_instance, optimal_plan_matrix, code, payload_seed=3)
    assert sim.payload == payload
    assert sim.decoded_ok == tuple(j != target for j in range(4))


def _per_packet_clock(instance, matrix):
    report = total_delay(matrix, instance.delays())
    return tuple(accumulate(report.per_packet)), report.total


PAST_FLOAT = Fraction(10**400, 3)


@given(
    instances(max_n=6, max_k=5),
    st.lists(st.lists(st.booleans(), min_size=5, max_size=5), max_size=7),
    st.lists(st.sampled_from([None, Fraction(0), PAST_FLOAT, Fraction(7, 3)]), max_size=5),
)
@example(make_instance(2, [set(), {0}], [0, 1]), [[False, False], [True, False], [False, True]], [])
@example(make_instance(1, [set()], [1]), [[True], [False]], [PAST_FLOAT])
@example(make_instance(3, [{1}, set()], [Fraction(5, 2), Fraction(7, 4)]), [[True, True]] * 3, [])
@settings(max_examples=150, deadline=None)
def test_simulated_clock_is_the_running_sum_of_the_per_packet_delays(instance, cells, delays):
    """run_simulation's clock, built on scaled ints, equals the running sum of
    total_delay's per-packet Fractions: p/q and zero delays, rows nobody
    receives, delays past float range; completion reads it at each client's
    last row, and the final clock is the total."""
    clients = [
        ClientSpec(has=c.has, delay=c.delay if d is None else d)
        for c, d in zip(instance.clients, delays + [None] * instance.k)
    ]
    instance = DmsiInstance(n=instance.n, clients=clients)
    matrix = AssignmentMatrix(rows=[[int(a) for a in row[: instance.k]] for row in cells], k=instance.k)
    code = CodingMatrix(field=Field(1), n=instance.n, rows=[[0] * instance.n] * matrix.m)
    sim = run_simulation(instance, matrix, code)
    clock, total = _per_packet_clock(instance, matrix)
    assert sim.clock == clock and sim.final_clock == total
    assert {type(t) for t in (*sim.clock, *sim.completion, sim.final_clock)} == {Fraction}
    for j in range(instance.k):
        last = max((h for h, row in enumerate(matrix.rows) if row[j]), default=None)
        assert sim.completion[j] == (Fraction(0) if last is None else clock[last])


# ---------------------------------------------------------------- realistic size and packed view


@pytest.mark.parametrize("e", [4, 8, 12])
def test_kernel_at_forty_packets_and_ten_clients(e):
    """Held and missing packets interleave; a damaged copy of the code leaves
    some clients short, and every verdict matches the reference rank."""
    f = FIELDS[e]
    rng = random.Random(4010 + e)
    inst = make_instance(
        40, [set(rng.sample(range(40), rng.randrange(5, 36))) for _ in range(10)],
        [rng.randint(1, 16) for _ in range(10)],
    )
    _, matrix = optimal_assignment(inst)
    code = construct_code(inst, matrix, field=f, seed=e)
    assert code == construct_code(inst, matrix, field=f, seed=e)
    # the last row repeats the one before it: only clients that need both fall short
    damaged = CodingMatrix(field=f, n=40, rows=code.rows[:-1] + code.rows[-2:-1])
    payload = [rng.randrange(f.q) for _ in range(40)]
    for candidate in (code, damaged):
        verdicts = decodability_check(inst, matrix, candidate)
        broadcast = encode(candidate, payload)
        for j in range(inst.k):
            missing = [x for x in range(40) if x not in inst.clients[j].has]
            sub = [[row[x] for x in missing] for row, a in zip(candidate.rows, matrix.rows) if a[j]]
            assert verdicts[j] == (reference_rank(f, sub) == len(missing))
            view = client_view(inst, matrix, j, payload, broadcast)
            if verdicts[j]:
                assert decode(view, inst, matrix, candidate) == {x: payload[x] for x in missing}
            else:
                with pytest.raises(ValueError, match="singular"):
                    decode(view, inst, matrix, candidate)
        assert set(verdicts) == ({True} if candidate is code else {True, False})


@pytest.mark.parametrize("e", [9, 12, 16])
def test_wide_lanes_at_forty_packets(e):
    """16-bit lanes, with elements at and above 2^(e-1) so that making the
    x-power rows and the bit-plane share overflow lanes.  Every verdict
    matches the reference rank, decode and run_simulation recover the
    payload, and a flipped symbol is caught as inconsistent or decodes wrong."""
    _check_forty_packets(e)


@pytest.mark.parametrize("e", [1, 4, 8])
def test_narrow_lanes_at_forty_packets(e):
    """The same checks on 8-bit lanes, whose back-substitution runs by strided
    columns: with every row sent to every client a flipped symbol can be
    caught as inconsistent, and with the optimal matrix it decodes wrong."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # q = 2 is below k = 8
        _check_forty_packets(e)


def _check_forty_packets(e):
    f = FIELDS[e]
    rng = random.Random(4090 + e)
    inst = make_instance(
        40, [set(rng.sample(range(40), rng.randrange(5, 36))) for _ in range(8)],
        [rng.randint(1, 16) for _ in range(8)],
    )
    _, optimal = optimal_assignment(inst)
    everyone = AssignmentMatrix(rows=((1,) * 8,) * optimal.m, k=8)
    # odd packets carry values >= 2^(e-1)
    payload = [rng.randrange(f.q >> 1, f.q) if x % 2 else rng.randrange(f.q) for x in range(40)]
    outcomes = set()
    for matrix in (optimal, everyone):
        code = construct_code(inst, matrix, field=f, seed=e)
        assert all(run_simulation(inst, matrix, code, payload_seed=e).decoded_ok)
        high = CodingMatrix(field=f, n=40, rows=[[v | f.q >> 1 for v in row] for row in code.rows])
        damaged = CodingMatrix(field=f, n=40, rows=code.rows[:-1] + code.rows[-2:-1])
        for candidate in (code, high, damaged):
            verdicts = decodability_check(inst, matrix, candidate)
            assert run_simulation(inst, matrix, candidate, payload_seed=e).decoded_ok == verdicts
            broadcast = encode(candidate, payload)
            for j in range(inst.k):
                missing = [x for x in range(40) if x not in inst.clients[j].has]
                sub = [[row[x] for x in missing] for row, a in zip(candidate.rows, matrix.rows) if a[j]]
                assert verdicts[j] == (reference_rank(f, sub) == len(missing))
                view = client_view(inst, matrix, j, payload, broadcast)
                if not verdicts[j]:
                    with pytest.raises(ValueError, match="singular"):
                        decode(view, inst, matrix, candidate)
                    continue
                truth = {x: payload[x] for x in missing}
                assert decode(view, inst, matrix, candidate) == truth
                (h, symbol), *rest = view.received
                flipped = ClientView(j, view.side_info, ((h, symbol ^ 1), *rest))
                try:
                    wrong = decode(flipped, inst, matrix, candidate)
                except ValueError as err:
                    assert str(err) == "inconsistent received symbols"
                    outcomes.add("inconsistent")
                else:
                    assert wrong != truth
                    outcomes.add("wrong")
            outcomes.add(verdicts)
    assert {"inconsistent", "wrong"} <= outcomes
    assert (True,) * 8 in outcomes and any(False in v for v in outcomes if isinstance(v, tuple))


def test_a_pivot_lane_of_exactly_0x8000_at_gf_2_16():
    """A 16-bit lane holding exactly 0x8000 has its lowest set bit at bit 15,
    the top of the lane, which only GF(2^16) elements reach; the kernel must
    still take that lane, not the next one, as the pivot.  Many client views
    here start with such a lane.  Rank, decodability, decode and the
    simulation must all agree with the reference elimination and the payload."""
    f = FIELDS[16]
    rng = random.Random(0x8000)
    n = 5
    instance = make_instance(n, [set(), {0}, {0, 1}, {2}], [1, 2, 3, 4])
    matrix = AssignmentMatrix(rows=((1, 1, 1, 1),) * n, k=4)
    starts, outcomes = 0, set()
    for payload_seed in range(30):
        rows = [[rng.choice((0, 0x8000, 0x8000, rng.randrange(1, f.q))) for _ in range(n)]
                for _ in range(n)]
        code = CodingMatrix(field=f, n=n, rows=rows)
        verdicts = decodability_check(instance, matrix, code)
        sim = run_simulation(instance, matrix, code, payload_seed=payload_seed)
        assert sim.decoded_ok == verdicts
        for j, spec in enumerate(instance.clients):
            missing = [x for x in range(n) if x not in spec.has]
            view_rows = [[row[x] for x in missing] for row in rows]
            starts += any(next(filter(None, row), 0) == 0x8000 for row in view_rows)
            rank = reference_rank(f, view_rows)
            assert matrix_rank(f, view_rows) == rank
            assert verdicts[j] == (rank == len(missing))
            view = client_view(instance, matrix, j, sim.payload, sim.broadcast)
            if verdicts[j]:
                assert decode(view, instance, matrix, code) == {x: sim.payload[x] for x in missing}
            else:
                with pytest.raises(ValueError, match="singular"):
                    decode(view, instance, matrix, code)
            outcomes.add(verdicts[j])
    assert starts > 30 and outcomes == {True, False}


@pytest.mark.parametrize("e, top", [(8, 0x80), (16, 0x8000)])
def test_every_kernel_row_led_by_a_lane_of_only_its_top_bit(e, top):
    """Directed: client t holds packets 0 .. t-1 and is sent rows t .. n-1,
    and row h is 0 before lane h and holds exactly `top` (the lane's top bit,
    0x80 in 8-bit lanes, 0x8000 in 16-bit ones) on it.  So every row the
    kernel meets on that code, in decodability_check and in run_simulation's
    solves, is led by such a lane, unreduced, and the pivot must be that
    lane, not the next.  A copy with one row repeated leaves some clients short.  Verdicts
    and decoded flags must match the reference elimination."""
    f = FIELDS[e]
    rng = random.Random(top)
    n, k = 6, 4
    instance = make_instance(n, [set(range(t)) for t in range(k)], [1, 2, 3, 4])
    matrix = AssignmentMatrix(rows=tuple(tuple(int(h >= t) for t in range(k)) for h in range(n)), k=k)
    outcomes = set()
    for trial in range(12):
        rows = [[0] * h + [top] + [rng.choice((0, top, rng.randrange(1, f.q))) for _ in range(h + 1, n)]
                for h in range(n)]
        repeated = rng.randrange(n - 1)
        damaged = rows[: repeated + 1] + [rows[repeated]] + rows[repeated + 2:]
        for code_rows in (rows, damaged):
            code = CodingMatrix(field=f, n=n, rows=code_rows)
            expected = tuple(
                reference_rank(f, [row[t:] for row in code_rows[t:]]) == n - t for t in range(k)
            )
            assert decodability_check(instance, matrix, code) == expected
            assert run_simulation(instance, matrix, code, payload_seed=trial).decoded_ok == expected
            outcomes.update(expected)
    assert outcomes == {True, False}


def test_packed_view_leaves_equality_and_hash_alone(demo_instance, optimal_plan_matrix):
    used = CodingMatrix(field=Field(2), n=6, rows=KNOWN_GF4_ROWS)
    fresh = CodingMatrix(field=Field(2), n=6, rows=KNOWN_GF4_ROWS)
    payload = (1, 2, 0, 3, 1, 2)
    broadcast = encode(used, payload)
    assert all(decodability_check(demo_instance, optimal_plan_matrix, used))
    for j in range(4):
        view = client_view(demo_instance, optimal_plan_matrix, j, payload, broadcast)
        decode(view, demo_instance, optimal_plan_matrix, used)
    assert used == fresh and hash(used) == hash(fresh)
    assert {fresh: "plan"}[used] == "plan"
    assert used != CodingMatrix(field=Field(2), n=6, rows=KNOWN_GF4_ROWS[:-1] + ((0,) * 6,))


@pytest.mark.parametrize("e", [2, 12])
def test_codes_without_rows_or_packets(e):
    f = Field(e)
    # m = 0: both clients hold every packet, so nothing is broadcast
    inst = make_instance(3, [{0, 1, 2}, {0, 1, 2}], [2, 1])
    matrix = AssignmentMatrix(rows=(), k=2)
    code = CodingMatrix(field=f, n=3, rows=())
    assert decodability_check(inst, matrix, code) == (True, True)
    for j in range(2):
        view = client_view(inst, matrix, j, (1, 0, 3), ())
        assert decode(view, inst, matrix, code) == {}
    # n = 0: rows carry the empty combination, whose symbol must be 0
    inst = make_instance(0, [set()], [1])
    matrix = AssignmentMatrix(rows=((1,), (1,)), k=1)
    code = CodingMatrix(field=f, n=0, rows=((), ()))
    assert decodability_check(inst, matrix, code) == (True,)
    assert decode(ClientView(0, (), ((0, 0), (1, 0))), inst, matrix, code) == {}
    with pytest.raises(ValueError, match="inconsistent"):
        decode(ClientView(0, (), ((0, 0), (1, 1))), inst, matrix, code)
    empty = CodingMatrix(field=f, n=0, rows=())
    assert decodability_check(inst, AssignmentMatrix(rows=(), k=1), empty) == (True,)
    assert decode(ClientView(0, (), ()), inst, AssignmentMatrix(rows=(), k=1), empty) == {}
