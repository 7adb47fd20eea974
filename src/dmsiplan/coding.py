"""Linear codes that realize an assignment matrix over GF(2^e).

A coding matrix G has one row of field coefficients per broadcast packet;
packet h carries the symbol sum_i G[h][i] * x_i of the originals x.  Client j
can recover its missing packets iff the rows assigned to it, restricted to
its missing coordinates, have full rank w_j; decodability_check tests exactly
that, and decode performs the recovery by subtracting the known side-info
contribution and solving the remaining square system.

Rank and solve share one elimination kernel, _eliminate, and encode and decode
one dot product, _dot.  Neither checks elements: CodingMatrix, encode, decode
and matrix_rank check them once on entry.  For e <= 8 the kernel packs a row
into an int, one byte per element, so adding rows is one XOR and scaling is
one bytes.translate; for e > 8 a row is a list scaled through exp/log tables.

construct_code draws coefficients uniformly at random (seeded, so plans are
reproducible) and keeps the first draw that verifies for every client.  Over
a field with q >= k a valid draw exists whenever the assignment is feasible,
so the retry cap of 64 is generous; with q < k existence is not guaranteed,
which is warned about and then honestly attempted.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

from .assignment import AssignmentMatrix, is_feasible
from .gf import Field
from .instance import DmsiInstance


class CodeConstructionError(RuntimeError):
    """No verified coding matrix within the retry budget."""


def default_field_degree(k: int) -> int:
    """Smallest e with 2^e >= max(k, 2); q >= k guarantees a code exists."""
    return max(1, (k - 1).bit_length())


@dataclass(frozen=True)
class CodingMatrix:
    """m x n grid of field coefficients, one row per broadcast packet."""

    field: Field
    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))
        for i, row in enumerate(self.rows):
            if len(row) != self.n:
                raise ValueError(f"row {i} has length {len(row)}, expected n={self.n}")
            for value in row:
                self.field._check(value)

    @property
    def m(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ClientView:
    """What one client knows: its side-info values and the symbols it received."""

    client: int
    side_info: tuple[tuple[int, int], ...]  # (0-based coord, value)
    received: tuple[tuple[int, int], ...]  # (broadcast row index, symbol)


def _eliminate(field: Field, rows: Sequence[Sequence[int]], width: int) -> tuple[int, list]:
    """Forward elimination of valid field rows, with no per-element checks.

    Pivots come from the first `width` columns; the rest (a solve's right-hand
    side) ride along.  Returns the rank and the rows in echelon form: row
    i < rank has a leading 1, and rows from rank on are zero in those columns.
    """
    exp, log, order = field._exp, field._log, field.q - 1
    rank = 0
    if field.e <= 8:
        size = len(rows[0]) if rows else 0
        scale = field._byte_products
        work = [int.from_bytes(bytes(row), "little") for row in rows]
        for shift in range(0, 8 * width, 8):
            pivot = next((i for i in range(rank, len(work)) if work[i] >> shift & 255), None)
            if pivot is None:
                continue
            lead, work[pivot] = work[pivot], work[rank]
            lead = lead.to_bytes(size, "little").translate(
                scale[exp[order - log[lead >> shift & 255]]]
            )
            work[rank] = int.from_bytes(lead, "little")
            for i in range(rank + 1, len(work)):
                c = work[i] >> shift & 255
                if c:
                    work[i] ^= int.from_bytes(lead.translate(scale[c]), "little")
            rank += 1
        return rank, [row.to_bytes(size, "little") for row in work]
    work = [list(row) for row in rows]
    for col in range(width):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        lead, work[pivot] = work[pivot], work[rank]
        inv_log = order - log[lead[col]]
        lead = work[rank] = [exp[inv_log + log[v]] if v else 0 for v in lead]
        for i in range(rank + 1, len(work)):
            row = work[i]
            if row[col]:
                c_log = log[row[col]]
                work[i] = [a ^ exp[c_log + log[b]] if b else a for a, b in zip(row, lead)]
        rank += 1
    return rank, work


def _dot(field: Field, coeffs: Iterable[int], values: Iterable[int]) -> int:
    """sum_i coeffs[i] * values[i] over valid field elements, unchecked."""
    exp, log = field._exp, field._log
    acc = 0
    for c, v in zip(coeffs, values):
        if c and v:
            acc ^= exp[log[c] + log[v]]
    return acc


def matrix_rank(field: Field, rows: Sequence[Sequence[int]]) -> int:
    """Rank over the field; the rows are checked once, as a CodingMatrix's are."""
    checked = CodingMatrix(field=field, n=len(rows[0]) if rows else 0, rows=rows)
    return _eliminate(field, checked.rows, checked.n)[0]


def _missing(instance: DmsiInstance, client: int) -> list[int]:
    has = instance.clients[client].has
    return [x for x in range(instance.n) if x not in has]


def decodability_check(
    instance: DmsiInstance, matrix: AssignmentMatrix, code: CodingMatrix
) -> tuple[bool, ...]:
    """Per client: do its assigned rows span its missing coordinates?"""
    if matrix.k != instance.k:
        raise ValueError(f"matrix has {matrix.k} columns for {instance.k} clients")
    if code.n != instance.n or code.m != matrix.m:
        raise ValueError(
            f"code is {code.m}x{code.n}, expected {matrix.m}x{instance.n}"
        )
    verdicts = []
    for j in range(instance.k):
        missing = _missing(instance, j)
        sub = [
            [code.rows[h][x] for x in missing]
            for h in range(matrix.m)
            if matrix.rows[h][j]
        ]
        verdicts.append(_eliminate(code.field, sub, len(missing))[0] == len(missing))
    return tuple(verdicts)


def construct_code(
    instance: DmsiInstance,
    matrix: AssignmentMatrix,
    field: Field | None = None,
    seed: int = 0,
    max_attempts: int = 64,
) -> CodingMatrix:
    """Draw random coefficient rows until every client verifies.

    The draw sequence is fully determined by the seed.  Requires a feasible
    assignment; raises CodeConstructionError after max_attempts full redraws.
    """
    if field is None:
        field = Field(default_field_degree(instance.k))
    if not is_feasible(matrix, instance):
        raise ValueError("assignment is infeasible; no code can exist")
    if field.q < instance.k:
        warnings.warn(
            f"field size {field.q} is below the client count {instance.k}; "
            "a decodable code may not exist at any number of rows",
            RuntimeWarning,
            stacklevel=2,
        )
    rng = random.Random(seed)
    failing: tuple[int, ...] = ()
    for _ in range(max_attempts):
        rows = tuple(
            tuple(rng.randrange(field.q) for _ in range(instance.n))
            for _ in range(matrix.m)
        )
        code = CodingMatrix(field=field, n=instance.n, rows=rows)
        verdicts = decodability_check(instance, matrix, code)
        if all(verdicts):
            return code
        failing = tuple(j + 1 for j, ok in enumerate(verdicts) if not ok)
    raise CodeConstructionError(
        f"no verified code after {max_attempts} draws over {field}; "
        f"clients {list(failing)} still lack full rank"
    )


def encode(code: CodingMatrix, payload: Sequence[int]) -> tuple[int, ...]:
    """Broadcast symbols for one payload of n original field values."""
    if len(payload) != code.n:
        raise ValueError(f"payload has {len(payload)} symbols, expected {code.n}")
    for value in payload:
        code.field._check(value)
    return tuple(_dot(code.field, row, payload) for row in code.rows)


def client_view(
    instance: DmsiInstance,
    matrix: AssignmentMatrix,
    client: int,
    payload: Sequence[int],
    broadcast: Sequence[int],
) -> ClientView:
    """Assemble what the given client sees from the ground truth."""
    spec = instance.clients[client]
    return ClientView(
        client=client,
        side_info=tuple((x, payload[x]) for x in sorted(spec.has)),
        received=tuple(
            (h, broadcast[h]) for h in range(matrix.m) if matrix.rows[h][client]
        ),
    )


def decode(
    view: ClientView,
    instance: DmsiInstance,
    matrix: AssignmentMatrix,
    code: CodingMatrix,
) -> dict[int, int]:
    """Recover the client's missing packets; returns {0-based coord: value}.

    Raises ValueError when the view does not match the assignment or when the
    system is singular or inconsistent (i.e. decodability was violated).
    """
    j = view.client
    if not 0 <= j < instance.k:
        raise ValueError(f"client index {j} outside [0, {instance.k})")
    spec = instance.clients[j]
    if {coord for coord, _ in view.side_info} != spec.has:
        raise ValueError("side information does not match the client's holdings")
    assigned = {h for h in range(matrix.m) if matrix.rows[h][j]}
    if {h for h, _ in view.received} != assigned:
        raise ValueError("received rows do not match the assignment")

    field = code.field
    for _, value in [*view.side_info, *view.received]:
        field._check(value)
    side = dict(view.side_info)
    missing = _missing(instance, j)
    # per received symbol: its coefficients on the missing packets, then the
    # symbol less what the side information contributes to it
    augmented = []
    for h, symbol in view.received:
        coeffs = code.rows[h]
        known = _dot(field, [coeffs[x] for x in side], side.values())
        augmented.append([coeffs[x] for x in missing] + [symbol ^ known])
    width = len(missing)
    rank, echelon = _eliminate(field, augmented, width)
    if rank < width:
        raise ValueError("singular system: received symbols do not pin down the unknowns")
    if any(row[width] for row in echelon[rank:]):
        raise ValueError("inconsistent received symbols")
    # full rank: row i pivots on column i, so back-substitute from the last
    solution = [0] * width
    for i in reversed(range(width)):
        row = echelon[i]
        solution[i] = row[width] ^ _dot(field, row[i + 1 : width], solution[i + 1 :])
    return dict(zip(missing, solution))
