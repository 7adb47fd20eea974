"""Brute-force oracle: frozen results on the worked example, an independent
unquotiented enumeration on random instances, and the budget guard."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEMO_DOC, OPTIMAL_PLAN_ROWS, instances, make_instance, random_instance
from dmsiplan import (
    BudgetExceededError,
    brute_force_optimum,
    closed_form_delay,
    parse_instance,
    search_space_size,
    total_delay,
)

DEMO_BUDGET = 10**8


def naive_optimum(instance, m_cap):
    """(total, row count, rows) of the canonical optimum, by per-column
    subset enumeration.

    Picks a w_j-subset of row slots for every column independently, with no
    multiset quotienting and no pruning, so it shares nothing with the
    search it cross-checks beyond the problem statement.  All-zero rows are
    dropped and the rest sorted descending; ties in total break toward fewer
    rows, then the smallest rows.
    """
    want = instance.want_counts()
    delays = instance.delays()
    best = None
    for m in range(max(want, default=0), m_cap + 1):
        choices = [itertools.combinations(range(m), w) for w in want]
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
    result = brute_force_optimum(demo_instance, budget=DEMO_BUDGET)
    assert result.best_total == Fraction(20)
    assert result.best_matrix.rows == OPTIMAL_PLAN_ROWS
    assert result.m_range == (5, 11)
    assert result.matrices_examined == 147


def test_demo_exceeds_default_budget(demo_instance):
    with pytest.raises(BudgetExceededError, match="budget"):
        brute_force_optimum(demo_instance)


@pytest.mark.parametrize("doc", [DEMO_DOC, {"n": 2, "clients": [{"has": [1, 2], "delay": 1}]}])
def test_budget_guard_refuses_a_huge_m_cap_at_once(doc, monkeypatch):
    """Summing every m up to 10^8 would take minutes; the guard stops early,
    also where every term is 1 and the running sum alone grows slowly."""
    calls = []
    comb = math.comb

    def counted_comb(m, w):
        calls.append(m)
        assert len(calls) < 1000, "the guard kept summing past the budget"
        return comb(m, w)

    monkeypatch.setattr(math, "comb", counted_comb)
    with pytest.raises(BudgetExceededError, match="budget"):
        brute_force_optimum(parse_instance(json.dumps(doc)), m_cap=10**8)
    assert max(calls) < 20


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


def test_m_cap_below_largest_want_rejected(demo_instance):
    with pytest.raises(ValueError, match="rows"):
        brute_force_optimum(demo_instance, m_cap=4, budget=DEMO_BUDGET)


def test_agrees_with_naive_enumeration():
    rng = random.Random(4021)
    for _ in range(60):
        instance = random_instance(rng, max_n=4, max_k=3, delay_range=(1, 9))
        m_cap = max(instance.want_counts(), default=0) + 1
        result = brute_force_optimum(instance, m_cap=m_cap)
        assert result.best_total == naive_minimum(instance, m_cap)
        assert result.best_matrix.rows == naive_optimum(instance, m_cap)[2]
        # the witness must itself be an exact-weight plan at that cost
        weights = [
            sum(row[j] for row in result.best_matrix.rows)
            for j in range(instance.k)
        ]
        assert tuple(weights) == instance.want_counts()
        report = total_delay(result.best_matrix, instance.delays())
        assert report.total == result.best_total


def test_extra_rows_never_help():
    rng = random.Random(977)
    for _ in range(40):
        instance = random_instance(rng, max_n=4, max_k=3)
        want = instance.want_counts()
        m_star = max(want, default=0)
        tight = brute_force_optimum(instance, m_cap=m_star)
        slack = brute_force_optimum(instance, m_cap=m_star + 2)
        assert tight.best_total == slack.best_total


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
        m_cap = max(instance.want_counts(), default=0) + 1
        a = brute_force_optimum(instance, m_cap=m_cap)
        b = brute_force_optimum(shuffled, m_cap=m_cap)
        assert a.best_total == b.best_total
        assert a.matrices_examined == b.matrices_examined


@settings(max_examples=60, deadline=None)
@given(instances(max_n=4, max_k=3))
def test_closed_form_matches_search(instance):
    m_cap = max(instance.want_counts(), default=0) + 1
    result = brute_force_optimum(instance, m_cap=m_cap)
    assert result.best_total == closed_form_delay(instance)


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
    m_cap = max(instance.want_counts(), default=0) + 1
    result = brute_force_optimum(instance, m_cap=m_cap)
    total, _, rows = naive_optimum(instance, m_cap)
    assert result.best_total == total
    assert result.best_matrix.rows == rows


# (n, 0-based held sets, delays, m_cap, best_total, matrices_examined), taken
# from the search while it still summed Fractions
PINNED_SEARCHES = [
    (4, [[2], [], []], ["1/6", "4/11", "8"], 6, Fraction(32), 18),
    (5, [[1], [1], [], []], ["28/3", "3/7", "4", "11"], 7, Fraction(55), 264),
    (4, [[3], [1], [], [0, 2]], ["26/5", "1/4", "19/11", "1/11"], 6, Fraction(953, 55), 202),
    (4, [[], [2], [2], [3]], ["3", "7", "28/3", "23/4"], 6, Fraction(31), 256),
    (5, [[3], [], [4], []], ["5/7", "1/3", "28/3", "5/2"], 7, Fraction(239, 6), 264),
    (5, [[0, 1, 2], [0, 3], [1, 2], [0, 1, 2]], ["13/12", "9", "10", "30/7"], 5, Fraction(30), 107),
]


@pytest.mark.parametrize("n, has, delays, m_cap, best_total, examined", PINNED_SEARCHES)
def test_pinned_fractional_searches(n, has, delays, m_cap, best_total, examined):
    instance = make_instance(n, has, [Fraction(d) for d in delays])
    result = brute_force_optimum(instance, m_cap=m_cap, budget=10**12)
    assert result.best_total == best_total
    assert result.matrices_examined == examined
    assert result.best_total == closed_form_delay(instance)
