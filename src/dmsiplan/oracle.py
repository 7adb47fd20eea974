"""Optimality check by enumerating assignment matrices.

Enumerates every assignment with exact column weights w_j, quotiented by
row order: a candidate is a multiset of distinct nonzero row patterns with
multiplicities.  All-zero rows cost nothing and change nothing, so they are
never enumerated; up to that padding and row order the search is
complete.  Every candidate has from m* = max w_j to sum w_j rows, the
range the result reports.  The only prunes are deterministic infeasibility
prunes (a still-needed column that no remaining pattern covers), never
objective bounds, so matrices_examined counts every quotiented candidate.
The pinned searches in the tests and the benchmark's examined ratio rely
on that count.

A node walks only the patterns whose columns all still need rows: the
submasks s of its still-needed columns, need, in descending order, by
s = (s - 1) & need.  A pattern touching a finished column has count bound
0, so leaving those out changes nothing.  The walk starts at the largest
submask of need below the parent's pattern p, since p's children take the
patterns after p: if p finished columns, p's columns above the top one it
finished and every column of need below that one; if not, (p - 1) & need.
It stops at the first s without need's top column, which then has no
pattern left, since no pattern at or below s holds a column above s's top
one.

A node checks its children before descending: a complete child is counted
on the spot, and an infeasible one is never entered.  A child left needing
the columns of still is entered only if the top one of them has a pattern
after p, that is if still's top bit is below p.  A pattern's count is
bounded before its loop by the remaining weight of each of its columns,
so it is at least 1.  These checks cut only subtrees without a candidate,
so the candidates are the same as with the checks made on entry.  The walk
keeps the best candidate's total and row count as two ints: a candidate
above them is counted and dropped, and only one that can tie or beat them
builds its rows.

A child left with one column j to fill (still a power of two) is never
entered either: it holds exactly one candidate, the chosen rows plus the
pattern {j} taken rem[j] times, and that candidate is scored in place.
{j} is the one submask of still, so a count of {j} below rem[j] neither
completes nor leaves a pattern to finish j.

The cover test can fail only after {t} alone, t being need's top column:
every pattern the walk takes holds t, so a larger one lies above t's bit,
and still, within need, below the next power of two.  After {t}, a count
below rem[t] leaves t needed with no pattern left to finish it, so {t} is
taken only rem[t] times.

The budget bounds the walk's work, nodes entered plus candidates scored
(in place or not): the walk checks it on entering each node and at its
end, raising BudgetExceededError once the work has passed it.  Every count
step enters a node or scores a candidate, so it costs a unit, and every
submask step takes at least one count step, since its pattern holds only
still-needed columns.  So the work bounds the walk's time, at O(L) per
unit for the L columns with a nonzero weight.  The 2^L - 1 patterns are
checked against the budget before the table is built.  So is m*, since
every candidate, the witness too, has at least m* rows: one client
missing n packets costs 2 units of work, but an n-row witness.

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
) -> dict[int, tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """Nonzero 0/1 rows keyed by mask, in descending order, skipping
    zero-weight columns.

    A mask holds column j at bit k - 1 - j and maps to (row, delay, set
    columns).  A pattern touching a column with w_j = 0 can never appear in
    an exact-weight matrix, so only subsets of the other columns are built:
    the product of (1, 0) per live column and (0,) per other one yields
    their rows in descending order, the zero row last.
    """
    k = len(want)
    columns = range(k)
    live = sum([1 << (k - 1 - j) for j in columns if want[j]])
    patterns = {}
    mask = live
    for bits in product(*[(1, 0) if w else (0,) for w in want]):
        if not mask:
            break  # the zero row
        cols = tuple(compress(columns, bits))
        patterns[mask] = (bits, max(map(delays.__getitem__, cols)), cols)
        mask = (mask - 1) & live  # the next submask of live, as product's next row
    return patterns


def _explore(
    want: tuple[int, ...], delays: tuple[int, ...], budget: int
) -> tuple[tuple[int, int, tuple[tuple[int, ...], ...]] | None, int]:
    """Walk the candidate space; returns (best key, examined).

    The key (scaled total, row count, rows sorted descending) makes the
    minimum unique, so the witness is canonical.
    """
    k = len(want)
    patterns = _row_patterns(want, delays)
    colbit = [1 << (k - 1 - j) for j in range(k)]

    # (scaled int total, row count, rows) while walking; best_total and
    # best_rows mirror its first two, and start above any candidate's total
    # (at most sum w_j rows, each costing at most the largest delay)
    best: tuple[int, int, tuple[tuple[int, ...], ...]] | None = None
    best_total, best_rows = sum(want) * max(delays, default=0) + 1, 0
    examined = 0
    nodes = 0  # entered; with examined, the walk's work
    chosen: list[tuple[int, int]] = []  # (mask, count) taken above the node
    rem = list(want)

    def note_complete(total: int, rows_used: int, tail: tuple[tuple[int, int], ...]) -> None:
        # a candidate, already counted, that ties or beats the best's total
        # and row count; tail holds the node's own (mask, count) pairs
        nonlocal best, best_total, best_rows
        rows: list[tuple[int, ...]] = []
        for mask, count in (*chosen, *tail):
            rows.extend([patterns[mask][0]] * count)
        key = (total, rows_used, tuple(rows))
        if best is None or key < best:
            best, best_total, best_rows = key, total, rows_used

    def dfs(above: int, total: int, rows_used: int, need: int) -> None:
        # need is nonzero; each child is checked below before it is
        # entered, and keeps it so.  The walk takes the submasks of need
        # below the parent's pattern, above, descending.
        nonlocal nodes, examined
        nodes += 1
        if nodes + examined > budget:
            raise BudgetExceededError(_OVER_BUDGET.format(budget))
        over = above & ~need  # the columns the parent's pattern finished
        if over:  # above's columns over the top finished one, then need's under it
            b = 1 << over.bit_length() - 1
            s = need & (above | b - 1)
        else:
            s = need & (above - 1)
        top = 1 << need.bit_length() - 1
        while s >= top:  # without need's top column, it has no pattern left
            p, s = s, need & (s - 1)
            _, delay, cols = patterns[p]
            last = rem[cols[0]]  # at least 1: every column of p is still needed
            for j in cols:
                if rem[j] < last:
                    last = rem[j]
            first = 1
            if p == top:  # {t} alone: only rem[t] finishes t, no later pattern holds it
                first = last
                rem[cols[0]] -= last - 1
            below = 1 << (p - 1).bit_length()  # the least power of two >= p
            still = need
            for count in range(first, last + 1):
                for j in cols:
                    rem[j] -= 1
                    if not rem[j]:
                        still ^= colbit[j]
                if not still:
                    examined += 1
                    cost = total + count * delay
                    if cost < best_total or cost == best_total and rows_used + count <= best_rows:
                        note_complete(cost, rows_used + count, ((p, count),))
                elif still < below:  # still's top column has a pattern below p
                    if still & (still - 1):
                        chosen.append((p, count))
                        dfs(p, total + count * delay, rows_used + count, still)
                        chosen.pop()
                    else:  # the child's one candidate: {j} taken rem[j] times
                        j = k - still.bit_length()
                        examined += 1
                        cost = total + count * delay + rem[j] * delays[j]
                        used = rows_used + count + rem[j]
                        if cost < best_total or cost == best_total and used <= best_rows:
                            note_complete(cost, used, ((p, count), (still, rem[j])))
            for j in cols:
                rem[j] += last

    live = next(iter(patterns), 0)  # the first pattern holds every live column
    if live:
        dfs(1 << k, 0, 0, live)  # 1 << k: above every pattern
    else:
        examined = 1
        note_complete(0, 0, ())
    if nodes + examined > budget:
        raise BudgetExceededError(_OVER_BUDGET.format(budget))
    return best, examined


def brute_force_optimum(
    instance: DmsiInstance,
    budget: int = DEFAULT_BUDGET,
) -> OracleResult:
    """Minimum total delay by enumeration, with the witness matrix.

    The witness is canonical: rows sorted descending (column 1 most
    significant); ties in total delay break toward fewer rows, then the
    smallest such matrix.  The search is complete: it covers every row
    count from m* to sum w_j, the result's m_range.  Raises
    BudgetExceededError when m*, the row patterns or the walk's work pass
    budget.
    """
    want = instance.want_counts()
    m_star = max(want, default=0)
    if m_star > budget:
        raise BudgetExceededError(
            f"{m_star} rows for the client that misses the most packets exceed budget "
            f"{budget}; raise the budget"
        )
    patterns = (1 << (len(want) - want.count(0))) - 1
    if patterns > budget:
        raise BudgetExceededError(
            f"{patterns} row patterns over the clients that miss a packet exceed budget "
            f"{budget}; raise the budget"
        )

    scale, ints = instance.scaled_delays()
    best, examined = _explore(want, ints, budget)
    if best is None:
        raise AssertionError("exact-weight candidates always exist")
    total, _, rows = best
    return OracleResult(
        best_total=Fraction(total, scale),
        best_matrix=_unchecked(AssignmentMatrix, rows=rows, k=instance.k),
        matrices_examined=examined,
        m_range=(m_star, sum(want)),
    )
