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

A node checks its children before descending: a complete child is counted
on the spot, and an infeasible one is never entered.  Every node has at
least as many rows left as any remaining weight (at the root because
m_cap >= m*), so a pattern's count is bounded before its loop: by the
remaining weight of each of its columns, and by rows left less the
remaining weight of each other column, since a larger count leaves that
column more rows to fill than remain.  The other columns are read only when
the bound passes the node's slack, rows left less the largest remaining
weight.  The pattern loop stops at the first pattern p where a still-needed
column is covered by no pattern from p on.  Both cut only subtrees without
a candidate, so the candidates are the same as with the checks made on
entry.

A child left with one column j to fill is never entered either: it holds
exactly one candidate, the chosen rows plus the pattern {j} taken rem[j]
times, and that candidate is scored in place.  Every pattern after p other
than {j} touches a column whose remaining weight is 0, so its count bound is
0.  {j} is the last pattern holding j, so a count of {j} below rem[j] neither
completes nor leaves a pattern to finish j.  The count rem[j] fits, since the
child keeps rows left >= max(rem).

The budget bounds the walk's work, nodes entered plus candidates scored
(in place or not): the walk checks it on entering each node and at its
end, raising BudgetExceededError once the work has passed it.  A node
costs one pass over the 2^L - 1 patterns (one per nonzero subset of the L
columns with a nonzero weight), at most the largest weight counts per
pattern, O(L) each, so the work bounds the walk's time; the pattern count
is checked against the budget before the table is built.  A huge m_cap
adds no work: no candidate has more than sum w_j rows, and with that many
rows left the rows-left bounds never bind.

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
from itertools import compress, product
from operator import gt
from typing import Sequence

from .assignment import AssignmentMatrix
from .instance import DmsiInstance, _unchecked

DEFAULT_BUDGET = 10**7
_OVER_BUDGET = "search nodes entered plus candidates scored exceed budget {}; raise the budget"


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
) -> list[tuple[int, tuple[int, ...], int, tuple[int, ...], tuple[int, ...]]]:
    """Nonzero 0/1 rows in descending order, skipping zero-weight columns.

    Each pattern is (mask, row, delay, set columns, other columns with a
    nonzero weight).  A pattern touching a column with w_j = 0 can never
    appear in an exact-weight matrix, so only subsets of the other columns
    are built: the product of (1, 0) per live column and (0,) per other one
    yields their rows in descending order, the zero row last.
    """
    k = len(want)
    columns = range(k)
    live_bits = [1 if w else 0 for w in want]
    live = sum([bit << (k - 1 - j) for j, bit in enumerate(live_bits)])
    patterns = []
    mask = live
    for bits in product(*[(1, 0) if w else (0,) for w in want]):
        if not mask:
            break  # the zero row
        cols = tuple(compress(columns, bits))
        others = tuple(compress(columns, map(gt, live_bits, bits)))
        patterns.append((mask, bits, max(map(delays.__getitem__, cols)), cols, others))
        mask = (mask - 1) & live  # the next submask of live, as product's next row
    return patterns


def _explore(
    want: tuple[int, ...], delays: tuple[int, ...], m_cap: int, budget: int
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
    # single-column mask -> (pattern index, column, delay)
    single = {
        mask: (t, cols[0], delay)
        for t, (mask, _, delay, cols, _) in enumerate(patterns)
        if len(cols) == 1
    }

    # (scaled int total, row count, rows) while walking
    best: tuple[int, int, tuple[tuple[int, ...], ...]] | None = None
    examined = 0
    nodes = 0  # entered; with examined, the walk's work
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

    def dfs(t: int, rows_left: int, total: int, rows_used: int, need: int) -> None:
        # need is nonzero and rows_left >= max(rem); each child is checked
        # below before it is entered, and keeps both
        nonlocal nodes
        nodes += 1
        if nodes + examined > budget:
            raise BudgetExceededError(_OVER_BUDGET.format(budget))
        slack = rows_left - max(rem)
        for p in range(t, len(patterns)):
            if need & ~suffix_cover[p]:
                break  # nor does any later pattern
            _, _, delay, cols, others = patterns[p]
            last = rows_left
            for j in cols:
                if rem[j] < last:
                    last = rem[j]
            if last > slack:  # a larger count leaves column j more weight than rows
                for j in others:
                    if rows_left - rem[j] < last:
                        last = rows_left - rem[j]
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
                    else:  # the child's one candidate: {j} taken rem[j] times
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
    if nodes + examined > budget:
        raise BudgetExceededError(_OVER_BUDGET.format(budget))
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
    Raises BudgetExceededError when the row patterns or the walk's work pass budget.
    """
    want = instance.want_counts()
    m_star = max(want, default=0)
    if m_cap is None:
        m_cap = max(m_star, min(sum(want), 12))
    if m_cap < m_star:
        raise ValueError(f"m_cap={m_cap} is below the {m_star} rows feasibility needs")
    patterns = (1 << (len(want) - want.count(0))) - 1
    if patterns > budget:
        raise BudgetExceededError(
            f"{patterns} row patterns over the clients that miss a packet exceed budget "
            f"{budget}; raise the budget"
        )

    scale, ints = instance.scaled_delays()
    best, examined = _explore(want, ints, m_cap, budget)
    assert best is not None, "exact-weight candidates always exist"
    total, _, rows = best
    return OracleResult(
        best_total=Fraction(total, scale),
        best_matrix=_unchecked(AssignmentMatrix, rows=rows, k=instance.k),
        matrices_examined=examined,
        m_range=(m_star, m_cap),
    )
