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

Products and inverses go through log/antilog tables built on a multiplicative
generator found by search at construction time.  For most degrees x itself
(the int 2) generates the multiplicative group; the familiar degree-8 modulus
above is the exception, where the search settles on 3.

add/mul/inv/div check every operand.  coding.py checks elements once on entry,
then reads the tables directly, and for e <= 8 _byte_products as well.
"""

from __future__ import annotations

from functools import cached_property

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


class Field:
    """GF(2^e) with int-valued elements and table-driven multiplication."""

    def __init__(self, e: int) -> None:
        if not isinstance(e, int) or isinstance(e, bool) or not 1 <= e <= 16:
            raise ValueError(f"extension degree must be an int in [1, 16], got {e!r}")
        self.e = e
        self.q = 1 << e
        self.reduction_polynomial = _REDUCTION_POLY[e]
        self._exp, self._log, self.generator = self._build_tables()

    def _mul_raw(self, a: int, b: int) -> int:
        # carry-less shift-and-add, reduced on overflow past degree e
        result = 0
        while b:
            if b & 1:
                result ^= a
            b >>= 1
            a <<= 1
            if a & self.q:
                a ^= self.reduction_polynomial
        return result

    def _build_tables(self) -> tuple[list[int], list[int], int]:
        order = self.q - 1
        for g in range(1, self.q):
            exp = [0] * (2 * order)
            log = [0] * self.q
            value = 1
            hit_one_early = False
            for i in range(order):
                if value == 1 and i > 0:
                    hit_one_early = True
                    break
                exp[i] = value
                log[value] = i
                value = self._mul_raw(value, g)
            if hit_one_early or value != 1:
                continue
            # duplicated upper half lets mul skip a modular reduction
            exp[order:] = exp[:order]
            return exp, log, g
        raise AssertionError("no generator found; reduction polynomial not irreducible?")

    @cached_property
    def _byte_products(self) -> list[bytes]:
        """For e <= 8: table a maps each byte b < q to a*b, for bytes.translate."""
        order = self.q - 1
        # log of each byte, with 0 and the bytes >= q sent to the window's zero tail
        logs = bytes([order]) + bytes(self._log[1:]) + bytes([order]) * (256 - self.q)
        exp = bytes(self._exp)
        return [bytes(256)] + [
            logs.translate(exp[self._log[a] : self._log[a] + order] + bytes(256 - order))
            for a in range(1, self.q)
        ]

    def _check(self, a: int) -> None:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element of {self}")

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        """Identical to add: every element is its own additive inverse."""
        return self.add(a, b)

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def elements(self) -> range:
        return range(self.q)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.e == self.e

    def __hash__(self) -> int:
        return hash(("Field", self.e))

    def __repr__(self) -> str:
        return f"GF(2^{self.e})"
