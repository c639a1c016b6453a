import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from bbpkit.bigmath import (
    FixReal,
    ceil_div,
    fix_add,
    fix_mul,
    powmod,
    tdiv,
)


def test_tdiv_truncates_toward_zero():
    assert tdiv(7, 2) == 3
    assert tdiv(-7, 2) == -3
    assert tdiv(7, -2) == -3
    assert tdiv(-7, -2) == 3
    assert tdiv(0, 5) == 0


def test_ceil_div():
    assert ceil_div(7, 2) == 4
    assert ceil_div(8, 2) == 4
    assert ceil_div(0, 3) == 0


# -- powmod ------------------------------------------------------------------

def test_powmod_small_example():
    # 1024 = 146 * 7 + 2
    assert powmod(2, 10, 7) == 2


def test_powmod_zero_exponent():
    assert powmod(123, 0, 17) == 1
    assert powmod(123, 0, 1) == 0  # everything is 0 mod 1


def test_powmod_cross_path_large():
    # the wrapper and builtin pow agree on large exponents, small and wide moduli
    for m in (999999937, (1 << 89) - 1):
        assert powmod(2, 10**6, m) == pow(2, 10**6, m)


def test_powmod_rejects_bad_inputs():
    with pytest.raises(ValueError):
        powmod(2, 3, 0)
    with pytest.raises(ValueError):
        powmod(2, -1, 5)


def test_fixed_width_threshold_is_pinned():
    # the largest modulus whose square fits a signed 64-bit word: powmod stays
    # exact just below, at and past it
    word = isqrt(2**63 - 1)
    assert word**2 <= 2**63 - 1 < (word + 1) ** 2
    for m in (word - 1, word, word + 1):
        assert powmod(3, 12345, m) == pow(3, 12345, m)


def test_powmod_exact_past_word_limit():
    # a modulus twice the 64-bit word limit has no separate path to refuse it:
    # powmod gives the exact residue there and far beyond
    word = isqrt(2**63 - 1)
    assert powmod(2, 3, word * 2) == 8
    for m in (2 * word, 2 * word + 1, (1 << 127) - 1):
        assert powmod(3, 12345, m) == pow(3, 12345, m)


def test_powmod_cross_path_random_sweep():
    # powmod matches builtin pow on triples spanning the 64-bit word boundary
    word = isqrt(2**63 - 1)
    rng = random.Random(20260808)
    for _ in range(10_000):
        if rng.random() < 0.5:
            modulus = rng.randrange(1, word)
        else:
            modulus = rng.randrange(word // 2, 1 << 80)
        base = rng.randrange(-(1 << 40), 1 << 40)
        exp = rng.randrange(0, 1 << 24)
        assert powmod(base, exp, modulus) == pow(base, exp, modulus)


# -- FixReal -----------------------------------------------------------------

def test_fix_add_exact_small_case():
    a = FixReal(3, 1, 0)
    b = FixReal(1, 1, 0)
    c = fix_add(a, b)
    assert (c.mantissa, c.frac_bits, c.err_ulp) == (4, 1, 0)


def test_fix_add_identity():
    x = FixReal(123, 7, 2)
    z = FixReal(0, 7, 0)
    assert fix_add(x, z) == x


def test_fix_add_error_bounds_add():
    c = fix_add(FixReal(1, 2, 1), FixReal(1, 2, 1))
    assert c.mantissa == 2 and c.frac_bits == 2
    assert c.err_ulp >= 2


def test_fix_mul_quarter():
    half = FixReal.from_fraction(Fraction(1, 2), 8)
    q = fix_mul(half, half, 8)
    assert q.mantissa == 64 and q.frac_bits == 8
    assert q.err_ulp <= 1


def test_fix_mul_identity_within_ulp():
    x = FixReal.from_fraction(Fraction(355, 113), 64)
    one = FixReal.from_int(1, 8)
    y = fix_mul(x, one, 64)
    assert abs(y.mantissa - x.mantissa) <= 1
    assert y.err_ulp <= x.err_ulp + 2


def test_fix_mul_third_squared_matches_ninth():
    third = FixReal.from_fraction(Fraction(1, 3), 64)
    squared = fix_mul(third, third, 64)
    ninth = FixReal.from_fraction(Fraction(1, 9), 64)
    diff = squared - ninth
    assert abs(diff.value_fraction()) <= diff.error_fraction()


def test_from_fraction_exactness_flag():
    assert FixReal.from_fraction(Fraction(3, 4), 8).err_ulp == 0
    assert FixReal.from_fraction(Fraction(1, 3), 8).err_ulp == 1


def test_rational_field_round_trip():
    rng = random.Random(1)
    for _ in range(200):
        a = Fraction(rng.randrange(-999, 1000), rng.randrange(1, 500))
        b = Fraction(rng.randrange(1, 1000), rng.randrange(1, 500))
        assert (a / b) * (b / a) == 1 if a != 0 else True


def test_decimal_rendering():
    x = FixReal.from_fraction(Fraction(1, 3), 200)
    assert x.decimal(12) == "0.333333333333"
    y = FixReal.from_fraction(Fraction(-7, 2), 16)
    assert y.decimal(3) == "-3.500"


def test_hex_frac_window():
    x = FixReal.from_fraction(Fraction(0xAB3, 16**3), 24)  # 0.AB3 in hex
    assert x.hex_frac_window(0, 3) == "AB3"
    assert x.hex_frac_window(4, 2) == "B3"


# a small expression-tree property: every FixReal op stays within its own
# declared error bound of the exact rational result

_scalars = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=64
)


@st.composite
def _expr_tree(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        fr = draw(_scalars)
        bits = draw(st.integers(min_value=8, max_value=96))
        return FixReal.from_fraction(fr, bits), fr
    left, lf = draw(_expr_tree(depth + 1))
    right, rf = draw(_expr_tree(depth + 1))
    op = draw(st.sampled_from(["add", "sub", "mul", "scale"]))
    out_bits = draw(st.integers(min_value=8, max_value=96))
    if op == "add":
        return left + right, lf + rf
    if op == "sub":
        return left - right, lf - rf
    if op == "mul":
        return left.mul(right, out_bits), lf * rf
    ratio = draw(_scalars.filter(lambda r: r != 0))
    return left.scale_rat(ratio, out_bits), lf * ratio


@settings(max_examples=150, deadline=None)
@given(_expr_tree())
def test_error_discipline_against_exact_arithmetic(pair):
    value, exact = pair
    assert abs(value.value_fraction() - exact) <= value.error_fraction()


@settings(max_examples=60, deadline=None)
@given(_expr_tree())
def test_error_discipline_against_guarded_reevaluation(pair):
    # a 64-bit-finer rescale must stay inside the declared bound as well
    value, exact = pair
    finer = FixReal.from_fraction(exact, value.frac_bits + 64)
    diff = value - finer
    assert abs(diff.value_fraction()) <= diff.error_fraction()
