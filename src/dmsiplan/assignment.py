"""Assignment matrices, delay accounting, and the optimal broadcast plan.

An m x k 0/1 matrix assigns broadcast packets (rows) to clients (columns):
entry (i, j) = 1 means client j must receive broadcast packet i.  A packet
occupies the channel for as long as its slowest recipient needs, so its delay
is max{d_j : a[i][j] = 1} (0 if nobody needs it) and a plan's total delay is
the sum over rows.

Feasibility is the column-weight criterion: client j must be assigned at
least w_j = n - |has_j| rows (netflow.py provides the independent max-flow
check of the same property).  The minimum-total-delay plan simply gives
client j the topmost w_j rows, and its cost has a closed form evaluated in
non-increasing delay order.  transform_to_optimal makes the optimality
argument executable: it rewrites any feasible matrix into the optimal one
through steps none of which increases the total delay.

Totals are exact without Fraction arithmetic: instance.scaled_delays turns
the delays into ints by the lcm of their denominators (an instance keeps its
own, from the digit check at parsing), every max, sum and
comparison runs on those ints, and a total is divided by the scale once, at
the end, back into a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from operator import ge, itemgetter
from typing import Sequence

from .instance import DmsiInstance, _unchecked, scaled_delays

_BIT_TYPES = {int}
_BITS = {0, 1}
_ZERO = Fraction(0)


@dataclass(frozen=True)
class AssignmentMatrix:
    """Immutable m x k 0/1 matrix; rows are broadcast packets."""

    rows: tuple[tuple[int, ...], ...]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 0:
            raise ValueError(f"k must be a nonnegative int, got {self.k!r}")
        # the whole matrix at once; the row loop only runs to name the first bad entry
        cells = list(chain.from_iterable(self.rows))
        if (set(map(len, self.rows)) <= {self.k} and set(map(type, cells)) <= _BIT_TYPES
                and set(cells) <= _BITS):
            return
        for i, row in enumerate(self.rows):
            if len(row) != self.k:
                raise ValueError(f"row {i} has length {len(row)}, expected k={self.k}")
            for j, a in enumerate(row):
                if not isinstance(a, int) or isinstance(a, bool) or a not in (0, 1):
                    raise ValueError(f"entry ({i}, {j}) is {a!r}, expected 0 or 1")

    @property
    def m(self) -> int:
        return len(self.rows)

    def column_weights(self) -> tuple[int, ...]:
        """Every column's weight, in one pass over the rows; k zeros when m = 0."""
        return tuple(map(sum, zip(*self.rows))) if self.rows else (0,) * self.k


@dataclass(frozen=True)
class DelayReport:
    per_packet: tuple[Fraction, ...]
    total: Fraction


def total_delay(matrix: AssignmentMatrix, delays: Sequence[Fraction]) -> DelayReport:
    """Each row's delay (its slowest recipient's, 0 if unassigned) and their
    sum, computed on scaled ints."""
    if len(delays) != matrix.k:
        raise ValueError(f"{len(delays)} delays for k={matrix.k} columns")
    scale, ints = scaled_delays(delays)
    row_ints = [max(compress(ints, row), default=0) for row in matrix.rows]
    # each row's delay is its slowest recipient's own Fraction
    as_fraction = {0: _ZERO}
    as_fraction.update(zip(ints, delays))
    return DelayReport(
        per_packet=tuple(map(as_fraction.__getitem__, row_ints)),
        total=Fraction(sum(row_ints), scale),
    )


def _check_client_count(matrix: AssignmentMatrix, instance: DmsiInstance) -> None:
    """Raise unless the matrix has one column per client."""
    if matrix.k != instance.k:
        raise ValueError(f"matrix has {matrix.k} columns for {instance.k} clients")


def is_feasible(matrix: AssignmentMatrix, instance: DmsiInstance) -> bool:
    """Column-weight criterion: every client gets at least the rows it needs."""
    _check_client_count(matrix, instance)
    return all(map(ge, matrix.column_weights(), instance.want_counts()))


def optimal_assignment(instance: DmsiInstance) -> tuple[tuple[int, ...], AssignmentMatrix]:
    """The minimum-total-delay plan: client j gets the topmost w_j rows.

    Returns (ranking, matrix) where ranking lists client indices in
    non-increasing delay order (ties keep input order) and the matrix is in
    original column order with m* = max_j w_j rows.  The 1-pattern itself
    does not depend on the ranking; the ranking fixes the order in which
    closed_form_delay accounts for the columns.  Equal rows are one tuple,
    built once.
    """
    want = instance.want_counts()
    stops, rows, row = set(want), [], ()
    for i in range(max(want, default=0)):
        if i in stops or not i:  # row i differs from row i - 1 only where a client stops
            row = tuple([1 if i < w else 0 for w in want])
        rows.append(row)
    return instance.delay_ranking(), _unchecked(AssignmentMatrix, rows=tuple(rows), k=instance.k)


def closed_form_delay(instance: DmsiInstance) -> Fraction:
    """Total delay of the optimal plan, without building the matrix.

    With clients in non-increasing delay order, client j contributes its
    delay once for every row it needs beyond all earlier clients' needs:
    sum_j d_j * max(0, w_j - max(w_1..w_{j-1}, 0)).
    """
    want = instance.want_counts()
    scale, ints = instance.scaled_delays()
    covered = 0
    total = 0
    for j in instance.delay_ranking():
        total += ints[j] * max(0, want[j] - covered)
        covered = max(covered, want[j])
    return Fraction(total, scale)


@dataclass(frozen=True)
class TransformStep:
    label: str
    matrix: AssignmentMatrix
    total: Fraction


@dataclass(frozen=True)
class TransformTrace:
    """Matrices and running totals through the rewrite, in ranked column order."""

    ranking: tuple[int, ...]
    steps: tuple[TransformStep, ...]

    @property
    def final_total(self) -> Fraction:
        return self.steps[-1].total


def reduce_to_exact_weights(
    matrix: AssignmentMatrix, instance: DmsiInstance
) -> AssignmentMatrix:
    """Clear surplus 1s until every column weight equals w_j exactly.

    Surplus assignments can only cost delay, never help, so each is removed
    from the row whose current packet delay is largest (ties: smallest row
    index), dropping the most expensive transmissions first.  Raises if some
    column is under weight, i.e. the matrix was not feasible to begin with.
    """
    _check_client_count(matrix, instance)
    _, ints = instance.scaled_delays()
    rows = list(matrix.rows)  # a row is copied only when a 1 is cleared from it
    row_delays = [max(compress(ints, row), default=0) for row in rows]
    negated = range(0, -len(rows), -1)  # -i: of two equal delays the smaller i sorts last
    for j, (w, weight) in enumerate(zip(instance.want_counts(), matrix.column_weights())):
        if weight < w:
            raise ValueError(f"column {j + 1} has weight {weight} < w={w}; infeasible")
        if weight > w:
            # clearing a row's 1 leaves the other rows' delays as they were, so
            # the first weight - w picks are the costliest rows of the column now
            column = [row[j] for row in rows]
            costliest = sorted(zip(compress(row_delays, column), compress(negated, column)))
            for _, minus_i in costliest[w - weight:]:
                cleared = list(rows[-minus_i])
                cleared[j] = 0
                rows[-minus_i] = tuple(cleared)
                row_delays[-minus_i] = max(compress(ints, cleared), default=0)
    return _unchecked(AssignmentMatrix, rows=tuple(rows), k=matrix.k)


def transform_to_optimal(
    matrix: AssignmentMatrix, instance: DmsiInstance
) -> TransformTrace:
    """Rewrite a feasible matrix into the optimal one, step by step.

    Works in ranked column order (columns sorted by non-increasing client
    delay).  Surplus assignments are cleared first, as a step of their own, by
    reduce_to_exact_weights, which raises on an under-weight column.  Step 1
    permutes rows so column 1's ones sit on top.  Step j then confines column
    j's ones to the topmost w_j rows: above the divider u = #rows already
    carrying a 1 in an earlier column, entries of column j may be rewritten
    freely (those packets' delays are pinned by faster-ranked columns), and
    below it, ones may only be cleared or rows permuted.  Step k+1 drops the
    all-zero rows left at the bottom.  No step increases the total delay,
    which proves the target matrix optimal; the returned trace records every
    intermediate matrix with its total.

    Each step leaves the rows with a 1 in its column or an earlier one as a
    prefix, so the divider is carried: u grows to column j - 1's weight when
    that is larger, and only that column is read to check the prefix.  A
    row's delay is its first recipient's, the slowest in ranked order, and
    equal totals share one Fraction.
    """
    _check_client_count(matrix, instance)
    ranking = instance.delay_ranking()
    scale, ints = instance.scaled_delays()
    ranked_ints = [ints[j] for j in ranking]
    k = instance.k

    rows = [list(map(row.__getitem__, ranking)) for row in matrix.rows]
    steps: list[TransformStep] = []
    scaled_totals: list[int] = []
    as_fraction: dict[int, Fraction] = {}

    def snapshot(label: str) -> None:
        snap = tuple(map(tuple, rows))
        total = sum([next(compress(ranked_ints, row), 0) for row in snap])
        scaled_totals.append(total)
        if total not in as_fraction:
            as_fraction[total] = Fraction(total, scale)
        snap_matrix = _unchecked(AssignmentMatrix, rows=snap, k=k)
        steps.append(_unchecked(TransformStep, label=label, matrix=snap_matrix,
                                total=as_fraction[total]))

    snapshot("initial")
    if matrix.column_weights() != instance.want_counts():
        exact = reduce_to_exact_weights(matrix, instance)
        rows = [list(map(row.__getitem__, ranking)) for row in exact.rows]
        snapshot("surplus removed")

    if k > 0:
        # step 1: stable row partition, column 1's ones above its zeros
        rows.sort(key=itemgetter(0), reverse=True)
        snapshot("step 1")

    u = 0  # the divider: rows[:u] carry a 1 in an earlier column, rows[u:] none
    for c in range(1, k):
        done = [row[c - 1] for row in rows]
        top = max(u, sum(done))
        if not all(done[u:top]) or any(done[top:]):
            raise AssertionError("upper block is not a prefix")
        u = top
        column = [row[c] for row in rows]
        ones_u = sum(column[:u])
        ones_l = sum(column[u:])
        if ones_l > 0:
            lift = min(ones_l, u - ones_u)
            cleared = 0
            for row in rows[u:]:  # the first `lift` lower ones move up
                if cleared == lift:
                    break
                if row[c]:
                    row[c] = 0
                    cleared += 1
            ones_u += lift
            # surviving lower ones float to the top of the lower block
            rows[u:] = sorted(rows[u:], key=itemgetter(c), reverse=True)
        # inside the upper block column c is freely rewritable: ones on top
        for i in range(u):
            rows[i][c] = 1 if i < ones_u else 0
        snapshot(f"step {c + 1}")

    while rows and not any(rows[-1]):
        rows.pop()
    snapshot(f"step {k + 1}")

    _, optimal = optimal_assignment(instance)
    target = [list(map(row.__getitem__, ranking)) for row in optimal.rows]
    if rows != target:
        raise AssertionError("rewrite did not reach the optimal matrix")
    if not all(map(ge, scaled_totals, scaled_totals[1:])):
        raise AssertionError("a rewrite step increased the total delay")
    return TransformTrace(ranking=ranking, steps=tuple(steps))
