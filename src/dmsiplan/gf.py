"""Arithmetic in the binary extension fields GF(2^e), 1 <= e <= 16.

Elements are plain ints in [0, 2^e) whose bits are polynomial coefficients
over GF(2); addition is XOR.  Multiplication reduces modulo a fixed
irreducible polynomial per degree, so element representations are bit-exact
across runs and platforms:

    e=1:  x + 1                    e=9:   x^9 + x^4 + 1
    e=2:  x^2 + x + 1              e=10:  x^10 + x^3 + 1
    e=3:  x^3 + x + 1              e=11:  x^11 + x^2 + 1
    e=4:  x^4 + x + 1              e=12:  x^12 + x^6 + x^4 + x + 1
    e=5:  x^5 + x^2 + 1            e=13:  x^13 + x^4 + x^3 + x + 1
    e=6:  x^6 + x + 1              e=14:  x^14 + x^10 + x^6 + x + 1
    e=7:  x^7 + x^3 + 1            e=15:  x^15 + x + 1
    e=8:  x^8 + x^4 + x^3 + x + 1  e=16:  x^16 + x^12 + x^3 + x + 1

Products and inverses go through log/antilog tables built on a fixed
multiplicative generator: x itself (the int 2) for every degree but two.  The
familiar degree-8 modulus above is the exception, where x + 1 (the int 3)
generates, and in GF(2) the group is {1}.  Building the tables asserts that
the generator has order 2^e - 1.  The tables are built once per degree per
process and shared, read-only, by every Field of that degree.

A Field has no arithmetic methods: coding.py, its one caller, reads the
tables directly, and for e <= 8 _byte_products as well.  A Field checks
elements: _check names one bad element, and _check_all checks a whole
sequence in one step and names the first bad element as _check would.
coding.py calls _check_all once on entry for code rows, payloads and client
views.
"""

from __future__ import annotations

import functools
from typing import Sequence

_REDUCTION_POLY = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11B,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
}


_GENERATOR = {1: 1, 8: 3}  # every other degree: 2


def _mul_raw(a: int, b: int, e: int) -> int:
    """Carry-less shift-and-add product, reduced on overflow past degree e."""
    q, poly = 1 << e, _REDUCTION_POLY[e]
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a & q:
            a ^= poly
    return result


@functools.cache
def _tables(e: int) -> tuple[tuple[int, ...], tuple[int, ...], int, tuple[bytes, ...]]:
    """(exp, log, generator, byte products) for GF(2^e), built once per degree.

    exp has its upper half duplicated, so a product exp[log a + log b] and an
    inverse exp[q - 1 - log a] need no modular reduction.
    For e <= 8, byte products[a] maps each byte b < q to a*b, for
    bytes.translate; above that it is empty.
    """
    q = 1 << e
    order = q - 1
    g = _GENERATOR.get(e, 2)
    exp = [0] * (2 * order)
    log = [0] * q
    value = 1
    for i in range(order):
        if value == 1 and i > 0:
            raise AssertionError(f"generator {g} of GF(2^{e}) has order {i}, not {order}")
        exp[i] = value
        log[value] = i
        value = _mul_raw(value, g, e)
    if value != 1:
        raise AssertionError(f"reduction polynomial of GF(2^{e}) is not irreducible")
    exp[order:] = exp[:order]
    products: tuple[bytes, ...] = ()
    if e <= 8:
        # log of each byte, with 0 and the bytes >= q sent to the window's zero tail
        logs = bytes([order]) + bytes(log[1:]) + bytes([order]) * (256 - q)
        exp_bytes = bytes(exp)
        products = (bytes(256),) + tuple(
            logs.translate(exp_bytes[log[a] : log[a] + order] + bytes(256 - order))
            for a in range(1, q)
        )
    return tuple(exp), tuple(log), g, products


class Field:
    """GF(2^e) with int-valued elements and table-driven multiplication."""

    def __init__(self, e: int) -> None:
        if not isinstance(e, int) or isinstance(e, bool) or not 1 <= e <= 16:
            raise ValueError(f"extension degree must be an int in [1, 16], got {e!r}")
        self.e = e
        self.q = 1 << e
        self.reduction_polynomial = _REDUCTION_POLY[e]
        self._exp, self._log, self.generator, self._byte_products = _tables(e)

    def _check(self, a: int) -> None:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element of {self}")

    def _check_all(self, values: Sequence[int]) -> None:
        """_check on each value in order; exact ints in range pass in one step."""
        if set(map(type, values)) - {int} or values and not 0 <= min(values) <= max(values) < self.q:
            for a in values:
                self._check(a)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.e == self.e

    def __hash__(self) -> int:
        return hash(("Field", self.e))

    def __repr__(self) -> str:
        return f"GF(2^{self.e})"
