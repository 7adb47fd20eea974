"""Exhaustive optimality check over assignment matrices.

Enumerates every assignment with exact column weights w_j and row count in
[m*, m_cap], quotiented by row order: a candidate is a multiset of distinct
nonzero row patterns with multiplicities.  All-zero rows cost nothing and
change nothing, so they are never enumerated; up to that padding and row
order the search is complete.  The only prunes are deterministic
infeasibility prunes (too few rows left for the largest remaining weight; a
still-needed column that no remaining pattern covers), never objective
bounds, so serial and parallel runs examine identical candidate sets and
return identical results, matrices_examined included.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Sequence

from .assignment import AssignmentMatrix
from .instance import DmsiInstance, scaled_delays

DEFAULT_BUDGET = 10**7

_SearchKey = tuple[Fraction, int, tuple[tuple[int, ...], ...]]


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
    want: tuple[int, ...],
    delays: tuple[Fraction, ...],
    m_cap: int,
    first_count: int | None = None,
) -> tuple[_SearchKey | None, int]:
    """Walk (a branch of) the candidate space; returns (best key, examined).

    The key (total, row count, rows sorted descending) makes the minimum
    unique, so branch results merge commutatively.  With first_count given,
    only candidates using the first pattern exactly that often are walked.
    """
    k = len(want)
    scale, ints = scaled_delays(delays)
    patterns = _row_patterns(want, ints)
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

    start, first, first_total = 0, 0, 0
    if first_count is not None:
        _, _, delay, cols = patterns[0]
        for j in cols:
            rem[j] -= first_count
        if first_count:
            chosen.append((0, first_count))
        start, first, first_total = 1, first_count, first_count * delay
    need = 0
    for j in range(k):
        hist[rem[j]] += 1
        if rem[j]:
            need |= colbit[j]
    dfs(start, m_cap - first, first_total, first, max(rem, default=0), need)
    if best is None:
        return None, examined
    total, rows_used, rows = best
    return (Fraction(total, scale), rows_used, rows), examined


def brute_force_optimum(
    instance: DmsiInstance,
    m_cap: int | None = None,
    budget: int = DEFAULT_BUDGET,
    workers: int | None = None,
) -> OracleResult:
    """Minimum total delay by enumeration, with the witness matrix.

    The witness is canonical: rows sorted descending (column 1 most
    significant); ties in total delay break toward fewer rows, then the
    smallest such matrix.  m_cap defaults to max(m*, min(sum w_j, 12)).
    workers > 1 partitions the search on the first pattern's multiplicity.
    """
    want = instance.want_counts()
    delays = instance.delays()
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

    if workers is not None and workers > 1 and any(want):
        c0_max = min(m_cap, min(w for w in want if w > 0))
        # forked workers all start at the first submit: no more than branches
        with ProcessPoolExecutor(max_workers=min(workers, c0_max + 1)) as pool:
            branches = list(pool.map(
                _explore, repeat(want), repeat(delays), repeat(m_cap), range(c0_max + 1)
            ))
        examined = sum(found for _, found in branches)
        keys = [key for key, _ in branches if key is not None]
        best = min(keys) if keys else None
    else:
        best, examined = _explore(want, delays, m_cap)

    assert best is not None, "exact-weight candidates always exist"
    total, _, rows = best
    return OracleResult(
        best_total=total,
        best_matrix=AssignmentMatrix(rows=rows, k=instance.k),
        matrices_examined=examined,
        m_range=(m_star, m_cap),
    )
