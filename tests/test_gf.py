"""Field arithmetic checks, including an independent irreducibility oracle
for every pinned reduction polynomial."""

import itertools
import random
import re

import pytest

from conftest import gf_add, gf_inv, gf_mul
from dmsiplan.gf import _REDUCTION_POLY, Field


def _poly_mul(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def _poly_mod(a: int, m: int) -> int:
    while a.bit_length() >= m.bit_length():
        a ^= m << (a.bit_length() - m.bit_length())
    return a


def _is_irreducible(poly: int) -> bool:
    degree = poly.bit_length() - 1
    for d in range(1, degree // 2 + 1):
        for candidate in range(1 << d, 1 << (d + 1)):
            if _poly_mod(poly, candidate) == 0:
                return False
    return True


def test_all_reduction_polynomials_are_irreducible():
    for e, poly in _REDUCTION_POLY.items():
        assert poly.bit_length() - 1 == e
        assert _is_irreducible(poly), f"e={e}: {poly:#x} factors"


@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_field_axioms_exhaustive(e):
    f = Field(e)
    elems = list(range(f.q))
    for a, b in itertools.product(elems, repeat=2):
        assert gf_add(f, a, b) == gf_add(f, b, a)
        assert gf_mul(f, a, b) == gf_mul(f, b, a)
        assert gf_add(f, a, 0) == a
        assert gf_mul(f, a, 1) == a
        assert gf_add(f, a, a) == 0
    for a, b, c in itertools.product(elems, repeat=3):
        assert gf_mul(f, a, gf_mul(f, b, c)) == gf_mul(f, gf_mul(f, a, b), c)
        assert gf_add(f, a, gf_add(f, b, c)) == gf_add(f, gf_add(f, a, b), c)
        assert gf_mul(f, a, gf_add(f, b, c)) == gf_add(f, gf_mul(f, a, b), gf_mul(f, a, c))
    for a in elems[1:]:
        assert gf_mul(f, a, gf_inv(f, a)) == 1


@pytest.mark.parametrize("e", [8, 16])
def test_field_axioms_sampled(e):
    f = Field(e)
    rng = random.Random(e)
    for _ in range(100_000):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert gf_mul(f, a, gf_mul(f, b, c)) == gf_mul(f, gf_mul(f, a, b), c)
        assert gf_mul(f, a, gf_add(f, b, c)) == gf_add(f, gf_mul(f, a, b), gf_mul(f, a, c))
    for _ in range(1_000):
        a = rng.randrange(1, f.q)
        assert gf_mul(f, a, gf_inv(f, a)) == 1


def test_gf4_value_table():
    f = Field(2)
    alpha, alpha2 = 2, 3
    assert gf_add(f, 1, alpha) == alpha2
    assert gf_mul(f, alpha, alpha) == alpha2
    assert gf_mul(f, alpha, alpha2) == 1
    assert gf_inv(f, alpha) == alpha2
    assert gf_inv(f, alpha2) == alpha
    assert f.reduction_polynomial == 0b111


def test_byte_field_known_products():
    f = Field(8)
    assert f.reduction_polynomial == 0x11B
    assert gf_mul(f, 0x02, 0x87) == 0x15
    assert gf_mul(f, 0x53, 0xCA) == 0x01
    assert gf_inv(f, 0x53) == 0xCA


@pytest.mark.parametrize("e", range(1, 9))
def test_generator_spans_multiplicative_group(e):
    f = Field(e)
    seen = set()
    value = 1
    for _ in range(f.q - 1):
        seen.add(value)
        value = gf_mul(f, value, f.generator)
    assert value == 1
    assert seen == set(range(1, f.q))


@pytest.mark.parametrize("bad", [-1, 8, "3", True, None, 2.0])
def test_out_of_range_values_rejected(bad):
    f = Field(3)
    with pytest.raises(ValueError, match=re.escape(f"{bad!r} is not an element of GF(2^3)")):
        f._check_all([1, bad])


@pytest.mark.parametrize("bad", [0, 17, -2, "8", True, 2.5])
def test_invalid_degree_rejected(bad):
    with pytest.raises(ValueError):
        Field(bad)


def test_field_equality_and_hash():
    assert Field(5) == Field(5)
    assert hash(Field(5)) == hash(Field(5))
    assert Field(5) != Field(6)
    assert Field(5) != "GF(2^5)"


def test_tables_are_built_once_per_degree():
    assert Field(12)._exp is Field(12)._exp
    assert Field(4)._byte_products is Field(4)._byte_products
    # the generators a search from 1 upward finds first, now fixed
    assert [Field(e).generator for e in range(1, 17)] == [1] + [2] * 6 + [3] + [2] * 8
