"""Linear codes that realize an assignment matrix over GF(2^e).

A coding matrix G has one row of field coefficients per broadcast packet;
packet h carries the symbol sum_i G[h][i] * x_i of the originals x.  Client j
can recover its missing packets iff the rows assigned to it, restricted to
its missing coordinates, have full rank w_j; decodability_check tests exactly
that, and decode performs the recovery by subtracting the known side-info
contribution and solving the remaining square system.

One incremental kernel, _reduce, serves rank, solve and construction: it
reduces a row against an echelon basis and returns a new basis entry or the
remainder.  encode and decode share one dot product, _dot.  Neither checks
elements: CodingMatrix, encode, decode and matrix_rank check them once on
entry.  For e <= 8 a row is packed into an int, one byte per element, so
adding rows is one XOR and scaling is one bytes.translate; for e > 8 a row is
a list scaled through exp/log tables.

construct_code builds the code row by row (Jaggi, Sanders et al., 2005), one
basis per client over its missing packets, redrawing a row at most 64 times.
Rejected rows form a proper subspace per client, so with q >= k a good row
always exists; with q < k it may not, which is warned about and attempted.

run_simulation plays one broadcast end to end: a seeded payload, encode, each
client's view, and decode, on the clock of the plan's per-packet delays.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

from .assignment import AssignmentMatrix, is_feasible, total_delay
from .gf import Field
from .instance import DmsiInstance

_ROW_ATTEMPTS = 64  # draws of one row before construct_code gives up


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
            if set(map(type, row)) - {int} or row and not 0 <= min(row) <= max(row) < self.field.q:
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


def _reduce(field: Field, basis: list, row, width: int, size: int) -> tuple:
    """Reduce one row of valid elements against an echelon basis, unchecked.

    A basis entry (pivot, row) is 1 on its pivot, one of the first `width`
    columns, and 0 on the pivots of earlier entries.  Returns a new entry or
    (None, remainder) when nothing is left in those columns; later columns (a
    solve's right-hand side) ride along.  For e <= 8 the row is packed into an
    int of `size` bytes and entries hold bytes; above that both are lists.
    """
    exp, log, order = field._exp, field._log, field.q - 1
    if field.e <= 8:
        scale = field._byte_products
        for pivot, entry in basis:
            c = row >> 8 * pivot & 255
            if c:
                row ^= int.from_bytes(entry.translate(scale[c]), "little")
        lead = row & ((1 << 8 * width) - 1)
        row = row.to_bytes(size, "little")
        if not lead:
            return None, row
        pivot = ((lead & -lead).bit_length() - 1) >> 3
        return pivot, row.translate(scale[exp[order - log[row[pivot]]]])
    for pivot, entry in basis:
        if row[pivot]:
            c_log = log[row[pivot]]
            row = [a ^ exp[c_log + log[b]] if b else a for a, b in zip(row, entry)]
    pivot = next((i for i in range(width) if row[i]), None)
    if pivot is None:
        return None, row
    inv_log = order - log[row[pivot]]
    return pivot, [exp[inv_log + log[v]] if v else 0 for v in row]


def _pack(field: Field, values: Iterable[int]) -> int | list[int]:
    """A row in the form _reduce takes for this field."""
    return int.from_bytes(bytes(values), "little") if field.e <= 8 else list(values)


def _rank(field: Field, rows: Iterable[Iterable[int]], width: int) -> int:
    """Rank of rows of `width` valid elements, inserting until it is full."""
    basis: list = []
    for row in rows:
        if len(basis) == width:
            break
        pivot, entry = _reduce(field, basis, _pack(field, row), width, width)
        if pivot is not None:
            basis.append((pivot, entry))
    return len(basis)


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
    return _rank(field, checked.rows, checked.n)


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
        sub = (map(row.__getitem__, missing) for row, a in zip(code.rows, matrix.rows) if a[j])
        verdicts.append(_rank(code.field, sub, len(missing)) == len(missing))
    return tuple(verdicts)


def construct_code(
    instance: DmsiInstance,
    matrix: AssignmentMatrix,
    field: Field | None = None,
    seed: int = 0,
) -> CodingMatrix:
    """Draw rows one at a time, each raising every short assigned client's rank.

    The draw sequence is fully determined by the seed.  Requires a feasible
    assignment; raises CodeConstructionError after _ROW_ATTEMPTS draws of a row.
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
    mask = bytes(b & (field.q - 1) for b in range(256))  # uniform: q divides 256
    bases: list = [(_missing(instance, j), []) for j in range(instance.k)]
    rows = []
    for h, assigned in enumerate(matrix.rows):
        short = [(j, missing, basis) for j, (missing, basis) in enumerate(bases)
                 if assigned[j] and len(basis) < len(missing)]
        for _ in range(_ROW_ATTEMPTS):
            row = (rng.randbytes(instance.n).translate(mask) if field.e <= 8
                   else [rng.getrandbits(field.e) for _ in range(instance.n)])
            entries = [
                _reduce(field, basis, _pack(field, map(row.__getitem__, missing)),
                        len(missing), len(missing))
                for _, missing, basis in short
            ]
            if all(pivot is not None for pivot, _ in entries):
                break
        else:
            failing = [j + 1 for (j, _, _), (pivot, _) in zip(short, entries) if pivot is None]
            raise CodeConstructionError(
                f"no verified code after {_ROW_ATTEMPTS} draws of row {h + 1} over "
                f"{field}; clients {failing} still lack full rank"
            )
        for (_, _, basis), entry in zip(short, entries):
            basis.append(entry)
        rows.append(row)
    return CodingMatrix(field=field, n=instance.n, rows=rows)


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
    width = len(missing)
    basis: list = []
    inconsistent = False
    for h, symbol in view.received:
        coeffs = code.rows[h]
        known = _dot(field, [coeffs[x] for x in side], side.values())
        row = _pack(field, [coeffs[x] for x in missing] + [symbol ^ known])
        pivot, entry = _reduce(field, basis, row, width, width + 1)
        if pivot is None:
            inconsistent = inconsistent or entry[width] != 0
        else:
            basis.append((pivot, entry))
    if len(basis) < width:
        raise ValueError("singular system: received symbols do not pin down the unknowns")
    if inconsistent:
        raise ValueError("inconsistent received symbols")
    # every column is a pivot, and an entry is 0 on earlier pivots: solve backwards
    solution = [0] * width
    for pivot, entry in reversed(basis):
        solution[pivot] = entry[width] ^ _dot(field, entry[:width], solution)
    return dict(zip(missing, solution))


@dataclass(frozen=True)
class SimulationResult:
    payload: tuple[int, ...]
    broadcast: tuple[int, ...]
    clock: tuple[Fraction, ...]
    completion: tuple[Fraction, ...]
    decoded_ok: tuple[bool, ...]
    final_clock: Fraction


def run_simulation(
    instance: DmsiInstance,
    matrix: AssignmentMatrix,
    code: CodingMatrix,
    payload_seed: int = 0,
) -> SimulationResult:
    """Draw a payload, broadcast sequentially, decode at each completion time."""
    rng = random.Random(payload_seed)
    payload = tuple(rng.randrange(code.field.q) for _ in range(instance.n))
    broadcast = encode(code, payload)
    report = total_delay(matrix, instance.delays())
    clock = tuple(accumulate(report.per_packet))
    completion = []
    decoded_ok = []
    for j in range(instance.k):
        assigned = [h for h in range(matrix.m) if matrix.rows[h][j]]
        completion.append(clock[assigned[-1]] if assigned else Fraction(0))
        view = client_view(instance, matrix, j, payload, broadcast)
        try:
            recovered = decode(view, instance, matrix, code)
        except ValueError:
            decoded_ok.append(False)
            continue
        truth = {x: payload[x] for x in _missing(instance, j)}
        decoded_ok.append(recovered == truth)
    return SimulationResult(
        payload=payload,
        broadcast=broadcast,
        clock=clock,
        completion=tuple(completion),
        decoded_ok=tuple(decoded_ok),
        final_clock=report.total,
    )
