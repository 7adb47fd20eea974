"""Brute-force oracle: frozen results on the worked example, an independent
unquotiented enumeration on random instances, the work budget, and the
walk against its reference, the walk over every pattern it replaced."""

import itertools
import json
import operator
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conftest import OPTIMAL_PLAN_ROWS, instances, make_instance, random_instance
from dmsiplan import (
    BudgetExceededError,
    brute_force_optimum,
    closed_form_delay,
    parse_instance,
    total_delay,
)
from dmsiplan import oracle
from dmsiplan.oracle import search_space_size

DEMO_WORK = 256  # the demo's walk: 109 nodes entered plus 147 candidates scored


def naive_optimum(instance, m_cap):
    """(total, row count, rows) of the canonical optimum, by per-column
    subset enumeration.

    Picks a w_j-subset of m row slots for every column independently, m
    from m* to m_cap, with no multiset quotienting and no pruning, so it
    shares nothing with the search it cross-checks beyond the problem
    statement.  Permuting the slots only reorders the rows, so the first
    column takes the first w_0 slots, and the second the first a of those
    and the first w_1 - a of the rest, for every a; each other column takes
    every w_j-subset.  All-zero rows are dropped and the rest sorted
    descending; ties in total break toward fewer rows, then the smallest
    rows.
    """
    want = instance.want_counts()
    delays = instance.delays()
    best = None
    for m in range(max(want, default=0), m_cap + 1):
        choices = [list(itertools.combinations(range(m), w)) for w in want]
        if want:
            choices[0] = [tuple(range(want[0]))]
        if len(want) > 1:
            w0, w1 = want[:2]
            choices[1] = [
                tuple(range(a)) + tuple(range(w0, w0 + w1 - a))
                for a in range(min(w0, w1) + 1)
                if w1 - a <= m - w0
            ]
        for cols in itertools.product(*choices):
            total = Fraction(0)
            rows = []
            for i in range(m):
                row = tuple(int(i in slots) for slots in cols)
                hit = [delays[j] for j, a in enumerate(row) if a]
                if hit:
                    total += max(hit)
                    rows.append(row)
            key = (total, len(rows), tuple(sorted(rows, reverse=True)))
            if best is None or key < best:
                best = key
    return best


def naive_minimum(instance, m_cap):
    return naive_optimum(instance, m_cap)[0]


def test_demo_frozen_result(demo_instance):
    """At the default budget."""
    result = brute_force_optimum(demo_instance)
    assert result.best_total == Fraction(20)
    assert result.best_matrix.rows == OPTIMAL_PLAN_ROWS
    assert result.m_range == (5, 11)
    assert result.matrices_examined == 147


def test_budget_counts_nodes_entered_plus_candidates_scored(demo_instance):
    with pytest.raises(BudgetExceededError, match=f"scored exceed budget {DEMO_WORK - 1};"):
        brute_force_optimum(demo_instance, budget=DEMO_WORK - 1)
    assert brute_force_optimum(demo_instance, budget=DEMO_WORK).matrices_examined == 147


def count_steps(call, *args):
    """call(*args), and the steps the walk's count loops took, read from a
    stand-in range in the oracle's namespace: a count loop's range starts at
    1 or more, the module's other ranges at 0."""
    made = []

    def counted(*bounds):
        made.append(range(*bounds))
        return made[-1]

    with mock.patch.object(oracle, "range", counted, create=True):
        result = call(*args)
    return result, sum(len(r) for r in made if r.start)


def test_every_count_step_enters_a_node_or_scores_a_candidate(demo_instance):
    """So the count loops take nodes + candidates - 1 steps, since no step
    enters the root: 255 on the demo.  One client missing 10^6 packets takes
    one step, the count that finishes its column."""
    result, steps = count_steps(brute_force_optimum, demo_instance)
    assert result.matrices_examined == 147
    assert steps == DEMO_WORK - 1
    result, steps = count_steps(brute_force_optimum, make_instance(10**6, [set()], [1]))
    assert len(result.best_matrix.rows) == 10**6
    assert steps == 1


def test_a_refused_walk_stops_at_the_next_node():
    """Six clients missing 11, 5, 6, 7, 2 and 2 of 12 packets: the complete
    walk runs to 33 rows, past the 3.4 M units of a walk capped at 12; at a
    budget of 1,000 it stops at once."""
    doc = {"n": 12, "clients": [
        {"has": [5], "delay": 4}, {"has": [8, 12, 7, 4, 2, 9, 1], "delay": 13},
        {"has": [10, 1, 8, 5, 4, 9], "delay": 4}, {"has": [1, 12, 11, 9, 10], "delay": 13},
        {"has": [4, 7, 1, 9, 12, 11, 8, 6, 2, 5], "delay": 8},
        {"has": [4, 8, 5, 1, 7, 11, 10, 9, 2, 3], "delay": 10},
    ]}
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="scored exceed budget 1000;"):
        brute_force_optimum(parse_instance(json.dumps(doc)), budget=1000)
    assert time.perf_counter() - start < 0.5


def test_a_search_past_twelve_rows_is_complete():
    """Three clients that hold none of 5 packets want 15 in all: the search
    runs to 15 rows, where one capped at 12 rows examined 139 of the 150
    candidates."""
    instance = _holding_nothing(3, n=5)
    result = brute_force_optimum(instance)
    assert result.m_range == (5, 15)
    assert result.matrices_examined == quotiented_count((5, 5, 5), 15) == 150


def _holding_nothing(k, n=12):
    """k clients of delay 1 that hold none of n packets: m* = n, while the
    pattern table has 2^k - 1 rows."""
    return make_instance(n, [set()] * k, [1] * k)


@pytest.mark.parametrize("k, budget", [(24, oracle.DEFAULT_BUDGET), (18, 100_000)])
def test_pattern_guard_refuses_before_building_the_table(k, budget, monkeypatch):
    """16,777,215 patterns at k = 24 would take gigabytes; 262,143 at k = 18
    pass a budget of 10^5.  Neither table may be built."""

    def built(*args):
        raise AssertionError("the pattern table was built")

    monkeypatch.setattr(oracle, "_row_patterns", built)
    with pytest.raises(BudgetExceededError, match=f"^{2**k - 1} row patterns .* budget {budget};"):
        brute_force_optimum(_holding_nothing(k), budget=budget)


def test_m_star_past_the_budget_is_refused_before_the_table(monkeypatch):
    """One client missing 2 million packets costs 2 units of work, but the
    walk would build a 2-million-row witness."""

    def built(*args):
        raise AssertionError("the pattern table was built")

    monkeypatch.setattr(oracle, "_row_patterns", built)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="^2000000 rows for the client .* budget 1000000;"):
        brute_force_optimum(make_instance(2_000_000, [set()], [1]), budget=10**6)
    assert time.perf_counter() - start < 0.1


def test_pattern_guard_admits_twelve_clients_that_hold_nothing(monkeypatch):
    """4,095 row patterns pass a budget of 4,095, so the table is built; the
    walk over up to 144 rows then passes that budget."""
    tables = []

    def built(*args):
        tables.append(row_patterns(*args))
        return tables[-1]

    row_patterns = oracle._row_patterns
    monkeypatch.setattr(oracle, "_row_patterns", built)
    with pytest.raises(BudgetExceededError, match="^search nodes entered .* budget 4095;"):
        brute_force_optimum(_holding_nothing(12), budget=4095)
    assert [len(table) for table in tables] == [4095]


def _reference_row_patterns(want, delays):
    """_row_patterns as it stood before its rows came from one product: each
    row, its columns, its other live columns and its delay built bit by bit
    from the mask, the reference for the list and its order.  The other live
    columns serve only reference_explore's rows-left bound."""
    k = len(want)
    live = sum(1 << (k - 1 - j) for j in range(k) if want[j])
    patterns = []
    mask = live
    while mask:
        bits = tuple((mask >> (k - 1 - j)) & 1 for j in range(k))
        cols = tuple(j for j in range(k) if bits[j])
        others = tuple(j for j in range(k) if want[j] and not bits[j])
        patterns.append((mask, bits, max(delays[j] for j in cols), cols, others))
        mask = (mask - 1) & live
    return patterns


@given(
    st.integers(0, 7).flatmap(
        lambda k: st.tuples(
            st.tuples(*[st.sampled_from([0, 0, 1, 2, 5])] * k),
            st.tuples(*[st.sampled_from([0, 1, 1, 3, 10**30])] * k),
        )
    )
)
@settings(max_examples=300)
def test_row_patterns_equal_the_reference(case):
    """Zero and tied delays, zero-weight columns anywhere, and k = 0."""
    want, delays = case
    patterns = oracle._row_patterns(want, delays)
    assert [(mask, *pattern) for mask, pattern in patterns.items()] == [
        (mask, bits, delay, cols)
        for mask, bits, delay, cols, _ in _reference_row_patterns(want, delays)
    ]
    assert len(patterns) == 2 ** (len(want) - want.count(0)) - 1


def reference_explore(want, delays, m_cap):
    """oracle._explore as it stood before it walked only the submasks of the
    still-needed columns and before its row cap went, with no budget: (best
    key, examined, nodes entered) over at most m_cap rows.

    A node steps over every pattern from its start index on, skips each that
    touches a finished column (its count bound is 0), stops where a
    still-needed column has no pattern left (suffix_cover), and looks a
    one-column child up in a dict; every candidate goes through one call.
    """
    k = len(want)
    patterns = _reference_row_patterns(want, delays)
    colbit = [1 << (k - 1 - j) for j in range(k)]
    suffix_cover = [0] * (len(patterns) + 1)
    for t in range(len(patterns) - 1, -1, -1):
        suffix_cover[t] = suffix_cover[t + 1] | patterns[t][0]
    # single-column mask -> (pattern index, column, delay)
    single = {
        mask: (t, cols[0], delay)
        for t, (mask, _, delay, cols, _) in enumerate(patterns)
        if len(cols) == 1
    }
    best = None
    examined = nodes = 0
    chosen = []
    rem = list(want)

    def note_complete(total, rows_used):
        nonlocal best, examined
        examined += 1
        if best is not None and (total, rows_used) > best[:2]:
            return
        rows = []
        for t, count in chosen:
            rows.extend([patterns[t][1]] * count)
        key = (total, rows_used, tuple(rows))
        if best is None or key < best:
            best = key

    def dfs(t, rows_left, total, rows_used, need):
        nonlocal nodes
        nodes += 1
        slack = rows_left - max(rem)
        for p in range(t, len(patterns)):
            if need & ~suffix_cover[p]:
                break
            _, _, delay, cols, others = patterns[p]
            last = rows_left
            for j in cols:
                last = min(last, rem[j])
            if last > slack:
                for j in others:
                    last = min(last, rows_left - rem[j])
            if not last:
                continue
            chosen.append((p, 0))
            still, cover = need, suffix_cover[p + 1]
            for count in range(1, last + 1):
                for j in cols:
                    rem[j] -= 1
                    if not rem[j]:
                        still ^= colbit[j]
                chosen[-1] = (p, count)
                if not still:
                    note_complete(total + count * delay, rows_used + count)
                elif not still & ~cover:
                    alone = single.get(still)
                    if alone is None:
                        dfs(p + 1, rows_left - count, total + count * delay,
                            rows_used + count, still)
                    else:
                        s, j, d = alone
                        chosen.append((s, rem[j]))
                        note_complete(
                            total + count * delay + rem[j] * d, rows_used + count + rem[j]
                        )
                        chosen.pop()
            for j in cols:
                rem[j] += last
            chosen.pop()

    if suffix_cover[0]:
        dfs(0, m_cap, 0, 0, suffix_cover[0])
    else:
        note_complete(0, 0)
    return best, examined, nodes


WALK_CASE_BUDGET = 10**5  # the reference has no budget; no draw of 300 came near


@st.composite
def walk_cases(draw):
    """k <= 5 clients over n <= 7 packets, some holding every packet (a
    zero-weight column anywhere), delays from {0, 1, 1, 2, 3} so that zero
    and tied delays are common."""
    n = draw(st.integers(0, 7))
    k = draw(st.integers(0, 5))
    held = st.frozensets(st.integers(0, n - 1)) if n else st.just(frozenset())
    has = [draw(st.one_of(st.just(frozenset(range(n))), held)) for _ in range(k)]
    delays = [draw(st.sampled_from([0, 1, 1, 2, 3])) for _ in range(k)]
    return make_instance(n, has, delays)


@given(walk_cases())
@example(make_instance(3, [set(), {0, 1}, {0, 1}], [0, 0, 0]))  # every candidate ties
@settings(max_examples=150, deadline=None)
def test_walk_equals_the_reference_in_result_and_work(instance):
    """The same result, the same candidates and the same nodes as the
    reference over sum w_j rows, where its rows-left bound cuts nothing: the
    walk runs at a budget of the reference's nodes plus candidates, W, in
    W - 1 count steps, and refuses at W - 1.  A draw whose walk passes
    WALK_CASE_BUDGET is rejected, since the reference would run unbounded."""
    want = instance.want_counts()
    scale, ints = instance.scaled_delays()
    try:
        result = brute_force_optimum(instance, budget=WALK_CASE_BUDGET)
    except BudgetExceededError:
        reject()
    (total, used, rows), examined, nodes = reference_explore(want, ints, sum(want))
    assert result.best_total == Fraction(total, scale)
    assert result.best_matrix.rows == rows
    assert result.matrices_examined == examined
    assert result.m_range == (max(want, default=0), sum(want))
    # the walk itself, since brute_force_optimum also refuses a budget below
    # its 2^L - 1 patterns, which can pass W
    work = nodes + examined
    walk, steps = count_steps(oracle._explore, want, ints, work)
    assert walk == ((total, used, rows), examined)
    assert steps == work - 1  # as on the demo; with no live column, 0 steps and 1 candidate
    with pytest.raises(BudgetExceededError, match=f"scored exceed budget {work - 1};"):
        oracle._explore(want, ints, work - 1)


def test_search_space_size_terms():
    # demo wants (2, 1, 3, 5); per-m products checked by hand
    want = (2, 1, 3, 5)
    assert search_space_size(want, (5, 5)) == 10 * 5 * 10 * 1
    assert search_space_size(want, (6, 6)) == 15 * 6 * 20 * 6
    assert search_space_size(want, (5, 11)) == 63_978_175
    assert search_space_size((), (0, 0)) == 1
    assert search_space_size((1, 1), (1, 2)) == 1 + 4


def test_two_client_hand_count():
    """w = (1, 1), delays (2, 1): the only candidates are the shared row
    [[1, 1]] at cost 2 and the split rows at cost 3."""
    instance = make_instance(2, [{1}, {0}], [2, 1])
    result = brute_force_optimum(instance)
    assert result.m_range == (1, 2)
    assert result.matrices_examined == 2
    assert result.best_total == Fraction(2)
    assert result.best_matrix.rows == ((1, 1),)


def test_nothing_wanted_is_the_empty_matrix():
    sated = make_instance(3, [set(range(3))] * 2, [5, 7])
    result = brute_force_optimum(sated)
    assert result.best_total == 0
    assert result.best_matrix.rows == ()
    assert result.m_range == (0, 0)
    assert result.matrices_examined == 1

    empty = make_instance(2, [], [])
    result = brute_force_optimum(empty)
    assert result.best_total == 0
    assert result.best_matrix.rows == ()


def test_agrees_with_naive_enumeration():
    rng = random.Random(4021)
    for _ in range(60):
        instance = random_instance(rng, max_n=4, max_k=3, delay_range=(1, 9))
        result = brute_force_optimum(instance)
        # sum w_j >= m*, and no candidate has more rows
        total, _, rows = naive_optimum(instance, sum(instance.want_counts()))
        assert result.best_total == total
        assert result.best_matrix.rows == rows
        # the witness must itself be an exact-weight plan at that cost
        weights = [
            sum(row[j] for row in result.best_matrix.rows)
            for j in range(instance.k)
        ]
        assert tuple(weights) == instance.want_counts()
        report = total_delay(result.best_matrix, instance.delays())
        assert report.total == result.best_total


def quotiented_count(want, m_cap):
    """Candidates of the quotiented space, counted without the search.

    Every multiset of nonzero 0/1 rows that avoid the zero-want columns, with
    at most m_cap rows and column sums exactly want.  Counted pattern by
    pattern: ways maps (column sums, rows) to the multisets of the patterns
    taken so far that reach it, and each pattern joins them 0, 1, 2, ...
    times while no column passes its want and the rows stay within m_cap.
    """
    k = len(want)
    patterns = [
        row
        for row in itertools.product((0, 1), repeat=k)
        if any(row) and all(want[j] or not a for j, a in enumerate(row))
    ]
    ways = {((0,) * k, 0): 1}
    for row in patterns:
        joined = dict(ways)
        once_more = ways
        while once_more:
            once_more = {
                (tuple(map(operator.add, sums, row)), rows + 1): count
                for (sums, rows), count in once_more.items()
                if rows < m_cap and all(s + a <= w for s, a, w in zip(sums, row, want))
            }
            for key, count in once_more.items():
                joined[key] = joined.get(key, 0) + count
        ways = joined
    return sum(count for (sums, _), count in ways.items() if sums == tuple(want))


def test_quotiented_count_enumerates_the_same_multisets():
    """The count against the multisets themselves, listed size by size,
    with m_cap below, at and past sum w_j."""
    for want in [(), (0,), (2, 1, 3), (0, 2, 3), (2, 2, 1, 1), (1, 0, 2, 1)]:
        patterns = [
            row
            for row in itertools.product((0, 1), repeat=len(want))
            if any(row) and all(w or not a for w, a in zip(want, row))
        ]
        for m_cap in range(sum(want) + 2):
            listed = sum(
                tuple(map(sum, zip(*rows))) == want if rows else not any(want)
                for size in range(m_cap + 1)
                for rows in itertools.combinations_with_replacement(patterns, size)
            )
            assert quotiented_count(want, m_cap) == listed, (want, m_cap)


def test_examined_counts_every_quotiented_candidate():
    rng = random.Random(6007)
    drawn = [random_instance(rng, max_n=4, max_k=3, delay_range=(1, 9)) for _ in range(80)]
    # k = 4: fifteen patterns, and nodes three and four columns deep
    for _ in range(100):
        n = rng.randint(1, 3)
        has = [rng.sample(range(n), rng.randint(0, n)) for _ in range(4)]
        drawn.append(make_instance(n, has, [rng.randint(1, 9) for _ in range(4)]))
    for instance in drawn:
        want = instance.want_counts()
        result = brute_force_optimum(instance)
        assert result.matrices_examined == quotiented_count(want, sum(want)), instance


def test_tied_and_zero_delays_under_tight_rows():
    """Delays from {0, 1, 2} tie many totals, so the row count and then the
    rows pick the witness: the complete search's longer candidates tie or
    lose, and many nodes end with one column still to fill."""
    rng = random.Random(3301)
    drawn = [random_instance(rng, max_n=4, max_k=3, delay_range=(0, 2)) for _ in range(60)]
    for _ in range(40):
        n = rng.randint(1, 3)
        has = [rng.sample(range(n), rng.randint(0, n)) for _ in range(4)]
        drawn.append(make_instance(n, has, [rng.randint(0, 2) for _ in range(4)]))
    for instance in drawn:
        want = instance.want_counts()
        result = brute_force_optimum(instance)
        total, _, rows = naive_optimum(instance, sum(want))
        assert result.best_total == total, instance
        assert result.best_matrix.rows == rows, instance
        assert result.matrices_examined == quotiented_count(want, sum(want)), instance


@pytest.mark.parametrize(
    "has, rows, examined",
    [
        ([{0, 1, 2}, {0, 1, 2}], 0, 1),  # nothing wanted at the root
        # want (2, 2, 3): from {001, 111, 111} at m* = 3 rows to the seven
        # single-column rows
        ([{0}, {1}, set()], 7, 19),
        # want (0, 2, 3): 011 twice and 001; 011, 010 and 001 twice; 010 twice
        # and 001 three times
        ([{0, 1, 2}, {0}, set()], 5, 3),  # a zero-want column
    ],
)
def test_examined_count_edge_cases(has, rows, examined):
    """rows: sum w_j, the top of the searched range."""
    instance = make_instance(3, has, [4, 2, 1][: len(has)])
    want = instance.want_counts()
    result = brute_force_optimum(instance)
    assert result.m_range == (max(want, default=0), rows)
    assert result.matrices_examined == examined
    assert examined == quotiented_count(want, rows)


def test_extra_rows_never_help():
    """The complete search finds no total below the best of m* rows."""
    rng = random.Random(977)
    for _ in range(40):
        instance = random_instance(rng, max_n=4, max_k=3)
        m_star = max(instance.want_counts(), default=0)
        assert brute_force_optimum(instance).best_total == naive_minimum(instance, m_star)


def test_client_order_does_not_matter():
    rng = random.Random(5150)
    for _ in range(25):
        instance = random_instance(rng, max_n=4, max_k=3)
        perm = list(range(instance.k))
        rng.shuffle(perm)
        shuffled = make_instance(
            instance.n,
            [instance.clients[j].has for j in perm],
            [instance.clients[j].delay for j in perm],
        )
        a = brute_force_optimum(instance)
        b = brute_force_optimum(shuffled)
        assert a.best_total == b.best_total
        assert a.matrices_examined == b.matrices_examined


@settings(max_examples=60, deadline=None)
@given(instances(max_n=4, max_k=3))
def test_closed_form_matches_search(instance):
    assert brute_force_optimum(instance).best_total == closed_form_delay(instance)


@st.composite
def bandwidth_instances(draw, max_n=4, max_k=3):
    """Delays packet_size / bandwidth with unlike denominators, parsed from JSON.

    Small numerators and denominators make equal delays, and so ties between
    candidates, common.
    """
    n = draw(st.integers(0, max_n))
    rational = st.tuples(st.integers(1, 6), st.integers(1, 5)).map(lambda pq: f"{pq[0]}/{pq[1]}")
    clients = [
        {
            "has": sorted(draw(st.frozensets(st.integers(1, n)))) if n else [],
            "bandwidth": draw(rational),
        }
        for _ in range(draw(st.integers(1, max_k)))
    ]
    return parse_instance(
        json.dumps({"n": n, "packet_size": draw(rational), "clients": clients})
    )


@settings(max_examples=25, deadline=None)
@given(bandwidth_instances())
def test_fractional_delays_match_naive(instance):
    result = brute_force_optimum(instance)
    total, _, rows = naive_optimum(instance, sum(instance.want_counts()))
    assert result.best_total == total
    assert result.best_matrix.rows == rows


# (n, 0-based held sets, delays, m_cap, best_total, matrices_examined over at
# most m_cap rows), taken from the search while it still summed Fractions and
# capped its rows
PINNED_SEARCHES = [
    (4, [[2], [], []], ["1/6", "4/11", "8"], 6, Fraction(32), 18),
    (5, [[1], [1], [], []], ["28/3", "3/7", "4", "11"], 7, Fraction(55), 264),
    (4, [[3], [1], [], [0, 2]], ["26/5", "1/4", "19/11", "1/11"], 6, Fraction(953, 55), 202),
    (4, [[], [2], [2], [3]], ["3", "7", "28/3", "23/4"], 6, Fraction(31), 256),
    (5, [[3], [], [4], []], ["5/7", "1/3", "28/3", "5/2"], 7, Fraction(239, 6), 264),
    (5, [[0, 1, 2], [0, 3], [1, 2], [0, 1, 2]], ["13/12", "9", "10", "30/7"], 5, Fraction(30), 107),
]

# k = 5: deeper trees, where a node with one column left to fill sits under
# parents with three and four; taken from the search while it still entered
# such nodes
PINNED_DEEP_SEARCHES = [
    (5, [[3], [], [2, 3], [3, 4], [1, 3]], ["10", "7", "7", "4", "1/3"], 6, Fraction(47), 1328),
    (5, [[], [], [1, 4], [4], []], ["4/5", "13/9", "16", "23/6", "9"], 7, Fraction(66), 3714),
    (
        4,
        [[], [3], [0, 1], [0, 3], [0, 2]],
        ["17/10", "19/8", "19/10", "1", "19/12"],
        6,
        Fraction(353, 40),
        1836,
    ),
]


# the same searches' candidates over sum w_j rows, by their delays, taken
# from the row-capped search at m_cap = sum w_j
COMPLETE_SEARCHES = {
    ("1/6", "4/11", "8"): 59,
    ("28/3", "3/7", "4", "11"): 7443,
    ("26/5", "1/4", "19/11", "1/11"): 629,
    ("3", "7", "28/3", "23/4"): 1171,
    ("5/7", "1/3", "28/3", "5/2"): 7443,
    ("13/12", "9", "10", "30/7"): 296,
    ("10", "7", "7", "4", "1/3"): 119_952,
    ("4/5", "13/9", "16", "23/6", "9"): 926_948,
    ("17/10", "19/8", "19/10", "1", "19/12"): 6319,
}


@pytest.mark.parametrize(
    "n, has, delays, m_cap, best_total, examined", PINNED_SEARCHES + PINNED_DEEP_SEARCHES
)
def test_pinned_fractional_searches(n, has, delays, m_cap, best_total, examined):
    """The complete search against its pins, and the references against the
    capped pins: only here does reference_explore run below sum w_j, where
    its rows-left bound cuts."""
    instance = make_instance(n, has, [Fraction(d) for d in delays])
    want = instance.want_counts()
    result = brute_force_optimum(instance)
    assert result.best_total == best_total == closed_form_delay(instance)
    assert result.m_range == (max(want), sum(want))
    assert result.matrices_examined == COMPLETE_SEARCHES[tuple(delays)]
    assert quotiented_count(want, sum(want)) == result.matrices_examined
    scale, ints = instance.scaled_delays()
    (total, _, _), capped, _ = reference_explore(want, ints, m_cap)
    assert Fraction(total, scale) == best_total
    assert capped == quotiented_count(want, m_cap) == examined
