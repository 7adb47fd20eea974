"""Linear codes that realize an assignment matrix over GF(2^e).

A coding matrix G has one row of field coefficients per broadcast packet;
packet h carries the symbol sum_i G[h][i] * x_i of the originals x.  Client j
can recover its missing packets iff the rows assigned to it, restricted to
its missing coordinates, have full rank w_j; decodability_check tests exactly
that, and decode performs the recovery by subtracting the known side-info
contribution and solving the remaining square system.

A row is one int with one lane per packet, lane i holding packet i, of 8 bits
for e <= 8 and 16 above.  Adding is one XOR, and a client's view is one AND
with its keep-mask (_projector), all ones on each packet it misses and 0 on
each it holds; pivots are packet coordinates.  A CodingMatrix keeps its
packed rows and columns.

One elimination kernel, _kernel, serves rank, solve and construction, and
each caller binds it once per call: construct_code once per construction,
decodability_check once for all clients, run_simulation once for all its
solves, and decode and matrix_rank once each.  encode, decode and
run_simulation share one column product, _column_product.  Field._check_all
checks elements once on entry: a CodingMatrix's rows, encode's payload and
decode's view.  Values the module made itself skip it: the rows
construct_code draws and the payload and broadcast run_simulation makes.

construct_code builds the code row by row (Jaggi, Sanders et al., 2005), one
basis per client over its missing packets.  The rows a client rejects form a
proper subspace, so with q >= k a good row always exists; with q < k it may
not, which is warned about and attempted.

run_simulation shares decode's work across clients: it multiplies each
packet's column by its value once, makes the broadcast as the XOR of all
those products and each client's share as the XOR of its held packets'
products, and calls decode's solver, _solve, without a ClientView.
"""

from __future__ import annotations

import random
import struct
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, chain, compress
from operator import itemgetter, xor
from typing import Callable, Iterable, Sequence

from .assignment import AssignmentMatrix, _check_client_count, is_feasible
from .gf import Field
from .instance import DmsiInstance, _unchecked

_ZERO = Fraction(0)
_ROW_ATTEMPTS = 64  # draws of one row before construct_code gives up
_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))  # set bits of a byte


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
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        if set(map(len, self.rows)) - {self.n}:  # the loop only names the first short or long row
            for i, row in enumerate(self.rows):
                if len(row) != self.n:
                    raise ValueError(f"row {i} has length {len(row)}, expected n={self.n}")
        self.field._check_all(list(chain.from_iterable(self.rows)))

    @property
    def m(self) -> int:
        return len(self.rows)

    @cached_property
    def _kernel_rows(self) -> tuple[int, ...]:
        """The rows in the kernel's form: ints of n lanes."""
        return tuple(int.from_bytes(_lane_bytes(self.field, row), "little") for row in self.rows)

    @cached_property
    def _packed_columns(self) -> tuple[bytes, ...]:
        """Column i as the bytes of m lanes."""
        columns = (_lane_bytes(self.field, column) for column in zip(*self.rows))
        return tuple(columns) if self.rows else (b"",) * self.n


@dataclass(frozen=True)
class ClientView:
    """What one client knows: its side-info values and the symbols it received."""

    client: int
    side_info: tuple[tuple[int, int], ...]  # (0-based coord, value)
    received: tuple[tuple[int, int], ...]  # (broadcast row index, symbol)


def _lane_bytes(field: Field, values: Sequence[int]) -> bytes:
    """Valid elements as the little-endian bytes of one lane each."""
    return bytes(values) if field.e <= 8 else struct.pack(f"<{len(values)}H", *values)


def _lanes(field: Field, row: int, size: int) -> Sequence[int]:
    """The first `size` lanes of a packed row."""
    data = row.to_bytes(size if field.e <= 8 else 2 * size, "little")
    return data if field.e <= 8 else struct.unpack(f"<{size}H", data)


def _overflow(field: Field, size: int) -> tuple[int, int]:
    """(top, low): `size` 16-bit lanes times x are the row shifted one up, less its
    bits in top (bit e of each lane), plus low (the polynomial less x^e) where set."""
    return ((1 << 16 * size) - 1) // 0xFFFF << field.e, field.reduction_polynomial ^ field.q


def _kernel(field: Field, width: int) -> Callable[[list, Iterable[int]], bool]:
    """The elimination over `width` columns, bound once per call of its caller.

    The returned eliminate(basis, rows) reduces a stream of packed rows of
    valid elements into an echelon basis.  A basis entry is nonzero on its
    pivot, one of the first `width` lanes, and 0 on the pivots of earlier
    entries; it is keyed by its pivot's bit offset, 8 or 16 times the lane.
    Each row is reduced against the basis, and one nonzero on those lanes
    becomes a new entry; lane `width` (a solve's right-hand side, 0
    elsewhere) rides along, so an entry has width + 1 lanes.  It returns
    whether any other row left a nonzero remainder.  For e <= 8 an entry is
    the row's bytes, scaled to 1 on its pivot; above, (log of the pivot's
    inverse, [row * x^i for i < e]), and eliminating c XORs in the rows at
    the bits of c / pivot.  The field's tables and the lane masks ride as
    its defaults, so its loops read them as locals; callers pass only basis
    and rows.  Unchecked.
    """
    exp, log, order = field._exp, field._log, field.q - 1
    if field.e <= 8:

        def eliminate(basis: list, rows: Iterable[int], exp=exp, log=log, order=order,
                      scale=field._byte_products, lanes=(1 << 8 * width) - 1, size=width + 1,
                      from_bytes=int.from_bytes) -> bool:
            remainder = False
            for row in rows:
                for offset, entry in basis:
                    c = row >> offset & 255
                    if c:
                        row ^= from_bytes(entry.translate(scale[c]), "little")
                lead = row & lanes
                if lead:
                    data = row.to_bytes(size, "little")
                    offset = (lead & -lead).bit_length() - 1 & ~7
                    inverse = exp[order - log[data[offset >> 3]]]
                    basis.append((offset, data.translate(scale[inverse])))
                elif row:
                    remainder = True
            return remainder

        return eliminate
    top, low = _overflow(field, width + 1)

    def eliminate(basis: list, rows: Iterable[int], exp=exp, log=log, order=order,
                  bits=_BITS, e=field.e, lanes=(1 << 16 * width) - 1, top=top, low=low) -> bool:
        remainder = False
        for row in rows:
            for offset, (inv_log, powers) in basis:
                c = row >> offset & 0xFFFF
                if c:
                    d = exp[log[c] + inv_log]
                    for i in bits[d & 255]:
                        row ^= powers[i]
                    for i in bits[d >> 8]:
                        row ^= powers[8 + i]
            lead = row & lanes
            if lead:
                offset = (lead & -lead).bit_length() - 1 & ~15
                powers = [row]
                for _ in range(e - 1):  # row * x^i from the last
                    row <<= 1
                    over = row & top
                    row ^= over ^ (over >> e) * low
                    powers.append(row)
                basis.append((offset, (order - log[powers[0] >> offset & 0xFFFF], powers)))
            elif row:
                remainder = True
        return remainder

    return eliminate


def matrix_rank(field: Field, rows: Sequence[Sequence[int]]) -> int:
    """Rank over the field; the rows are checked once, as a CodingMatrix's are."""
    checked, basis = CodingMatrix(field=field, n=len(rows[0]) if rows else 0, rows=rows), []
    _kernel(field, checked.n)(basis, checked._kernel_rows)
    return len(basis)


def _column_product(code: CodingMatrix, pairs: Iterable[tuple[int, int]]) -> int:
    """sum of value * column x over (x, value) pairs of valid elements, as m lanes."""
    field, columns, share = code.field, code._packed_columns, 0
    if field.e <= 8:
        for x, value in pairs:
            share ^= int.from_bytes(columns[x].translate(field._byte_products[value]), "little")
        return share
    planes, (top, low) = [0] * field.e, _overflow(field, code.m)
    for x, value in pairs:
        column = int.from_bytes(columns[x], "little")
        for i in _BITS[value & 255]:
            planes[i] ^= column
        for i in _BITS[value >> 8]:
            planes[8 + i] ^= column
    for plane in reversed(planes):  # by bit planes, combined by Horner's rule
        share <<= 1
        over = share & top
        share ^= over ^ (over >> field.e) * low ^ plane
    return share


def _projector(field: Field, instance: DmsiInstance, client: int) -> Callable[[int], int]:
    """Restricts a code row in the kernel's form to the client's missing packets."""
    keep = bytearray(b"\xff") * instance.n  # 0xFF on each missing packet, 0 on each held one
    for x in instance.clients[client].has:
        keep[x] = 0
    if field.e <= 8:
        return int.from_bytes(keep, "little").__and__
    return (int.from_bytes(_lane_bytes(field, keep), "little") * 257).__and__  # 0xFF -> 0xFFFF


def _check_shape(instance: DmsiInstance, matrix: AssignmentMatrix, code: CodingMatrix) -> None:
    """Raise unless the code is matrix.m x instance.n and the matrix has a column per client."""
    _check_client_count(matrix, instance)
    if code.n != instance.n or code.m != matrix.m:
        raise ValueError(f"code is {code.m}x{code.n}, expected {matrix.m}x{instance.n}")


def decodability_check(
    instance: DmsiInstance, matrix: AssignmentMatrix, code: CodingMatrix
) -> tuple[bool, ...]:
    """Per client: do its assigned rows span its missing coordinates?"""
    _check_shape(instance, matrix, code)
    eliminate, verdicts = _kernel(code.field, instance.n), []
    for j, want in enumerate(instance.want_counts()):
        assigned = compress(code._kernel_rows, map(itemgetter(j), matrix.rows))
        basis: list = []
        eliminate(basis, map(_projector(code.field, instance, j), assigned))
        verdicts.append(len(basis) == want)
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
    mask = bytes(range(field.q)) * (256 // field.q) if field.e <= 8 else None  # b -> b mod q
    n, want, eliminate = instance.n, instance.want_counts(), _kernel(field, instance.n)
    bases = [(j, _projector(field, instance, j), []) for j in range(instance.k)]
    rows = []
    for h, assigned in enumerate(matrix.rows):
        short = [(j, project, basis, len(basis)) for j, project, basis in bases
                 if assigned[j] and len(basis) < want[j]]
        for _ in range(_ROW_ATTEMPTS):
            row = (rng.randbytes(n).translate(mask) if field.e <= 8
                   else [rng.getrandbits(field.e) for _ in range(n)])
            packed = int.from_bytes(row if field.e <= 8 else _lane_bytes(field, row), "little")
            for _, project, basis, size in short:
                eliminate(basis, (project(packed),))
                if len(basis) == size:
                    break
            else:
                break
            for _, _, basis, size in short:  # rejected: drop the draw's entries
                del basis[size:]
        else:
            for _, project, basis, _ in short:
                eliminate(basis, (project(packed),))
            failing = [j + 1 for j, _, basis, size in short if len(basis) == size]
            raise CodeConstructionError(
                f"no verified code after {_ROW_ATTEMPTS} draws of row {h + 1} over "
                f"{field}; clients {failing} still lack full rank"
            )
        rows.append(tuple(row))
    return _unchecked(CodingMatrix, field=field, n=instance.n, rows=tuple(rows))


def encode(code: CodingMatrix, payload: Sequence[int]) -> tuple[int, ...]:
    """Broadcast symbols for one payload of n original field values."""
    if len(payload) != code.n:
        raise ValueError(f"payload has {len(payload)} symbols, expected {code.n}")
    code.field._check_all(payload)
    return tuple(_lanes(code.field, _column_product(code, enumerate(payload)), code.m))


def decode(
    view: ClientView,
    instance: DmsiInstance,
    matrix: AssignmentMatrix,
    code: CodingMatrix,
) -> dict[int, int]:
    """Recover the client's missing packets; returns {0-based coord: value}.

    Raises ValueError when the code's shape or the view does not match the
    assignment, or when the system is singular or inconsistent (i.e.
    decodability was violated).
    """
    _check_shape(instance, matrix, code)
    j = view.client
    if not 0 <= j < instance.k:
        raise ValueError(f"client index {j} outside [0, {instance.k})")
    spec = instance.clients[j]
    if {coord for coord, _ in view.side_info} != spec.has:
        raise ValueError("side information does not match the client's holdings")
    if {h for h, _ in view.received} != {h for h, row in enumerate(matrix.rows) if row[j]}:
        raise ValueError("received rows do not match the assignment")

    code.field._check_all([value for _, value in (*view.side_info, *view.received)])
    share, eliminate = _column_product(code, view.side_info), _kernel(code.field, instance.n)
    return dict(sorted(_solve(instance, code, j, share, view.received, eliminate).items()))


def _solve(
    instance: DmsiInstance,
    code: CodingMatrix,
    j: int,
    share: int,
    received: Iterable[tuple[int, int]],
    eliminate: Callable[[list, Iterable[int]], bool],
) -> dict[int, int]:
    """decode's solver, unchecked: client j's missing packets, in no order,
    from the side information's share of every symbol (m lanes, the column
    product of its held packets) and its (row, symbol) pairs of valid
    elements, which must hold every row assigned to it; `eliminate` is the
    kernel bound for the code's field over the instance's n columns.

    Raises ValueError when the system is singular or inconsistent.
    """
    field = code.field
    exp, log, width, lane = field._exp, field._log, instance.n, 8 if field.e <= 8 else 16
    known = _lanes(field, share, code.m)
    # per received symbol: its coefficients on the missing packets, then the symbol less that share
    project, packed, shift = _projector(field, instance, j), code._kernel_rows, lane * width
    rows = [project(packed[h]) | (symbol ^ known[h]) << shift for h, symbol in received]
    basis: list = []
    inconsistent = eliminate(basis, rows)
    if len(basis) < instance.want_counts()[j]:
        raise ValueError("singular system: received symbols do not pin down the unknowns")
    if inconsistent:
        raise ValueError("inconsistent received symbols")
    # each missing packet is a pivot, and an entry is 0 on earlier pivots and
    # held packets: solve backwards, last pivot first
    solution: dict[int, int] = {}
    if field.e <= 8:
        # entry i is 1 on its pivot, so its value is lane i of the right-hand
        # sides; every entry's right-hand side then loses value times its pivot
        # coefficient, read as one strided column of the joined entries
        scale, stride = field._byte_products, width + 1
        joined = b"".join(entry for _, entry in basis)
        rhs = int.from_bytes(joined[width::stride], "little")
        for i in reversed(range(len(basis))):
            x = basis[i][0] >> 3
            value = solution[x] = rhs >> 8 * i & 255
            if value:
                rhs ^= int.from_bytes(joined[x::stride].translate(scale[value]), "little")
    else:
        for offset, (inv_log, powers) in reversed(basis):  # read at the solved pivots
            values = _lanes(field, powers[0], width + 1)
            value = values[width]
            for x, v in solution.items():
                c = values[x]
                if c and v:
                    value ^= exp[log[c] + log[v]]
            solution[offset >> 4] = exp[inv_log + log[value]] if value else 0
    return solution


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
    """Draw a payload, broadcast sequentially, decode at each completion time.

    A client decodes only if it recovers exactly its missing packets, each
    with the payload's value.
    """
    _check_shape(instance, matrix, code)
    field, rng = code.field, random.Random(payload_seed)
    payload = tuple(rng.randrange(field.q) for _ in range(instance.n))
    # value * column x once per packet: the broadcast is the XOR of all of them,
    # and a client's share of each symbol the XOR of those it holds
    products = [_column_product(code, (pair,)) for pair in enumerate(payload)]
    broadcast = tuple(_lanes(field, reduce(xor, products, 0), code.m))
    # the clock on scaled ints, each row costing its slowest recipient's delay
    scale, ints = instance.scaled_delays()
    row_ints = [max(compress(ints, row), default=0) for row in matrix.rows]
    clock = tuple(Fraction(c, scale) for c in accumulate(row_ints))
    completion, decoded_ok, eliminate = [], [], _kernel(field, instance.n)
    for j, (spec, want) in enumerate(zip(instance.clients, instance.want_counts())):
        # decode's view, built from the ground truth, so none of its checks can fail
        received = list(compress(enumerate(broadcast), map(itemgetter(j), matrix.rows)))
        completion.append(clock[received[-1][0]] if received else _ZERO)
        share = reduce(xor, map(products.__getitem__, spec.has), 0)
        try:
            recovered = _solve(instance, code, j, share, received, eliminate)
        except ValueError:
            decoded_ok.append(False)
            continue
        decoded_ok.append(
            len(recovered) == want and spec.has.isdisjoint(recovered)
            and list(map(payload.__getitem__, recovered)) == list(recovered.values())
        )
    return SimulationResult(
        payload=payload,
        broadcast=broadcast,
        clock=clock,
        completion=tuple(completion),
        decoded_ok=tuple(decoded_ok),
        final_clock=clock[-1] if clock else _ZERO,
    )
