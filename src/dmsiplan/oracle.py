"""Exhaustive optimality check over assignment matrices.

Enumerates every assignment with exact column weights w_j and row count in
[m*, m_cap], quotiented by row order: a candidate is a multiset of distinct
nonzero row patterns with multiplicities.  All-zero rows cost nothing and
change nothing, so they are never enumerated; up to that padding and row
order the search is complete.  The only prunes are deterministic
infeasibility prunes (too few rows left for the largest remaining weight; a
still-needed column that no remaining pattern covers), never objective
bounds, so matrices_examined counts every quotiented candidate.  The pinned
searches in the tests and the benchmark's examined ratio rely on that count.

The budget is checked before enumerating, against the unquotiented
per-column count sum_m prod_j C(m, w_j); the walked multiset space is far
smaller, but the formula is cheap and monotone, which is what a guard needs.
Its terms never shrink as m grows, so the sum stops at the first m where
the sum so far plus that term for every m left passes the budget: a huge
m_cap is refused at once rather than summed to the end.

Totals stay exact without Fraction arithmetic in the walk: the delays are
scaled to ints by instance.scaled_delays, the helper the assignment layer
uses too, and the search adds ints.  The best total is divided by the scale
once, at the end, back into a Fraction.  Scaling by a positive constant
keeps the order of totals, so the search and its tie-break are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .assignment import AssignmentMatrix
from .instance import DmsiInstance, scaled_delays

DEFAULT_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """Search space larger than the caller allowed."""


@dataclass(frozen=True)
class OracleResult:
    best_total: Fraction
    best_matrix: AssignmentMatrix
    matrices_examined: int
    m_range: tuple[int, int]


def search_space_size(want: Sequence[int], m_range: tuple[int, int]) -> int:
    """sum over m of prod_j C(m, w_j): candidate count before quotienting."""
    lo, hi = m_range
    return sum(
        math.prod(math.comb(m, w) for w in want) for m in range(lo, hi + 1)
    )


def _row_patterns(
    want: Sequence[int], delays: Sequence[int]
) -> list[tuple[int, tuple[int, ...], int, tuple[int, ...]]]:
    """Nonzero 0/1 rows in descending order, skipping zero-weight columns.

    Each pattern is (mask, row, delay, set columns).  A pattern touching a
    column with w_j = 0 can never appear in an exact-weight matrix, so those
    are dropped up front.
    """
    k = len(want)
    zero_mask = 0
    for j, w in enumerate(want):
        if w == 0:
            zero_mask |= 1 << (k - 1 - j)
    patterns = []
    for mask in range((1 << k) - 1, 0, -1):
        if mask & zero_mask:
            continue
        bits = tuple((mask >> (k - 1 - j)) & 1 for j in range(k))
        cols = tuple(j for j in range(k) if bits[j])
        patterns.append((mask, bits, max(delays[j] for j in cols), cols))
    return patterns


def _explore(
    want: tuple[int, ...], delays: tuple[int, ...], m_cap: int
) -> tuple[tuple[int, int, tuple[tuple[int, ...], ...]] | None, int]:
    """Walk the candidate space; returns (best key, examined).

    The key (scaled total, row count, rows sorted descending) makes the
    minimum unique, so the witness is canonical.
    """
    k = len(want)
    patterns = _row_patterns(want, delays)
    colbit = [1 << (k - 1 - j) for j in range(k)]
    suffix_cover = [0] * (len(patterns) + 1)
    for t in range(len(patterns) - 1, -1, -1):
        suffix_cover[t] = suffix_cover[t + 1] | patterns[t][0]

    # (scaled int total, row count, rows) while walking
    best: tuple[int, int, tuple[tuple[int, ...], ...]] | None = None
    examined = 0
    chosen: list[tuple[int, int]] = []
    rem = list(want)

    def note_complete(total: int, rows_used: int) -> None:
        nonlocal best, examined
        examined += 1
        if best is not None and (total, rows_used) > best[:2]:
            return
        rows: list[tuple[int, ...]] = []
        for t, count in chosen:
            rows.extend([patterns[t][1]] * count)
        key = (total, rows_used, tuple(rows))
        if best is None or key < best:
            best = key

    # hist[r]: columns with r rows still to place.  The largest such r and
    # the mask of columns still needing rows are passed down and updated as
    # counts change, not recomputed over all k columns at every node.
    hist = [0] * (max(want, default=0) + 1)

    def dfs(
        t: int, rows_left: int, total: int, rows_used: int, largest: int, need: int
    ) -> None:
        if not need:
            note_complete(total, rows_used)
            return
        if rows_left < largest or need & ~suffix_cover[t]:
            return
        for p in range(t, len(patterns)):
            _, _, delay, cols = patterns[p]
            cmax = rows_left
            for j in cols:
                if rem[j] < cmax:
                    cmax = rem[j]
            if cmax == 0:
                continue
            chosen.append((p, 0))
            top, still = largest, need
            for count in range(1, cmax + 1):
                for j in cols:
                    r = rem[j]
                    rem[j] = r - 1
                    hist[r] -= 1
                    hist[r - 1] += 1
                    if r == 1:
                        still ^= colbit[j]
                # each column dropped by one, so the largest drops by at most one
                if not hist[top]:
                    top -= 1
                chosen[-1] = (p, count)
                dfs(p + 1, rows_left - count, total + count * delay, rows_used + count, top, still)
            for j in cols:
                hist[rem[j]] -= 1
                rem[j] += cmax
                hist[rem[j]] += 1
            chosen.pop()

    need = 0
    for j in range(k):
        hist[rem[j]] += 1
        if rem[j]:
            need |= colbit[j]
    dfs(0, m_cap, 0, 0, max(rem, default=0), need)
    return best, examined


def brute_force_optimum(
    instance: DmsiInstance,
    m_cap: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> OracleResult:
    """Minimum total delay by enumeration, with the witness matrix.

    The witness is canonical: rows sorted descending (column 1 most
    significant); ties in total delay break toward fewer rows, then the
    smallest such matrix.  m_cap defaults to max(m*, min(sum w_j, 12)).
    """
    want = instance.want_counts()
    m_star = max(want, default=0)
    if m_cap is None:
        m_cap = max(m_star, min(sum(want), 12))
    if m_cap < m_star:
        raise ValueError(f"m_cap={m_cap} is below the {m_star} rows feasibility needs")
    size = 0
    for m in range(m_star, m_cap + 1):
        term = math.prod(math.comb(m, w) for w in want)
        size += term
        # no later term is smaller, so this bounds the full sum from below
        if size + term * (m_cap - m) > budget:
            raise BudgetExceededError(
                f"search space for m in [{m_star}, {m_cap}] exceeds budget {budget}; "
                "raise the budget or lower m_cap"
            )

    scale, ints = scaled_delays(instance.delays())
    best, examined = _explore(want, ints, m_cap)
    assert best is not None, "exact-weight candidates always exist"
    total, _, rows = best
    return OracleResult(
        best_total=Fraction(total, scale),
        best_matrix=AssignmentMatrix(rows=rows, k=instance.k),
        matrices_examined=examined,
        m_range=(m_star, m_cap),
    )
