import random
from fractions import Fraction
from itertools import product
from math import ceil, gcd, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from bbpkit.bigmath import (
    GUARD_BITS,
    FixReal,
    ceil_div,
    powmod,
    precision_cache,
    primitive,
    tdiv,
)


def test_tdiv_truncates_toward_zero():
    assert tdiv(7, 2) == 3
    assert tdiv(-7, 2) == -3
    assert tdiv(7, -2) == -3
    assert tdiv(-7, -2) == 3
    assert tdiv(0, 5) == 0


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8).filter(any),
       st.integers(-10**12, 10**12).filter(bool))
def test_primitive_splits_off_the_signed_gcd(values, factor):
    values = [factor * a for a in values]
    g, w = primitive(values)
    assert [g * a for a in w] == values
    assert gcd(*w) == 1
    assert next(a for a in w if a) > 0


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
    c = a + b
    assert (c.mantissa, c.frac_bits, c.err_ulp) == (4, 1, 0)


def test_fix_add_identity():
    x = FixReal(123, 7, 2)
    z = FixReal(0, 7, 0)
    assert x + z == x


def test_fix_add_error_bounds_add():
    c = FixReal(1, 2, 1) + FixReal(1, 2, 1)
    assert c.mantissa == 2 and c.frac_bits == 2
    assert c.err_ulp >= 2


def test_fix_mul_quarter():
    half = FixReal.from_fraction(Fraction(1, 2), 8)
    q = half.mul(half, 8)
    assert q.mantissa == 64 and q.frac_bits == 8
    assert q.err_ulp <= 1


def test_fix_mul_identity_within_ulp():
    x = FixReal.from_fraction(Fraction(355, 113), 64)
    one = FixReal.from_int(1, 8)
    y = x.mul(one, 64)
    assert abs(y.mantissa - x.mantissa) <= 1
    assert y.err_ulp <= x.err_ulp + 2


def test_fix_mul_third_squared_matches_ninth():
    third = FixReal.from_fraction(Fraction(1, 3), 64)
    squared = third.mul(third, 64)
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


# -- FixReal bit for bit: each result triple is the documented rule ----------
#
# The exact result x of an operation on the stored values, with propagated
# error bound E, lands at out_bits as (trunc(x * 2^out), out_bits,
# ceil(E * 2^out) + 1 if x * 2^out is not an integer, else + 0).

def _rule(exact: Fraction, err: Fraction, out_bits: int) -> tuple[int, int, int]:
    scaled = exact * (1 << out_bits)
    m = int(scaled)  # toward zero
    return m, out_bits, ceil(err * (1 << out_bits)) + (0 if scaled == m else 1)


@st.composite
def _fix(draw):
    bits = draw(st.integers(1, 2000))
    m = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    frac_bits = draw(st.integers(0, 2500))
    err = draw(st.one_of(st.just(0), st.integers(0, 1 << 70)))
    return FixReal(-m if draw(st.booleans()) else m, frac_bits, err)


_ratios = st.builds(
    Fraction,
    st.integers(-(1 << 100), 1 << 100).filter(bool),
    st.one_of(st.just(1), st.integers(2, 1 << 100)),
)


def _out_bits(draw, frac_bits: int) -> int:
    return max(0, frac_bits + draw(st.integers(-600, 600)))


def _triple(x: FixReal) -> tuple[int, int, int]:
    return x.mantissa, x.frac_bits, x.err_ulp


def _certifies(x: FixReal, exact: Fraction) -> bool:
    return abs(x.value_fraction() - exact) <= x.error_fraction()


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_fixreal_ops_match_the_exact_rule(data):
    a, b = data.draw(_fix()), data.draw(_fix())
    xa, xb = a.value_fraction(), b.value_fraction()
    ea, eb = a.error_fraction(), b.error_fraction()
    f = max(a.frac_bits, b.frac_bits)
    for got, exact, err, out in ((a + b, xa + xb, ea + eb, f), (a - b, xa - xb, ea + eb, f),
                                 (-a, -xa, ea, a.frac_bits)):
        assert _triple(got) == _rule(exact, err, out)

    out = _out_bits(data.draw, a.frac_bits + b.frac_bits)
    got = a.mul(b, out)
    assert _triple(got) == _rule(xa * xb, abs(xa) * eb + abs(xb) * ea + ea * eb, out)
    # the product over every corner of the input intervals lies in the result's
    assert all(_certifies(got, (xa + sa * ea) * (xb + sb * eb))
               for sa, sb in product((-1, 1), repeat=2))

    ratio = data.draw(_ratios)
    out = _out_bits(data.draw, a.frac_bits)
    got = a.scale_rat(ratio, out)
    assert _triple(got) == _rule(xa * ratio, ea * abs(ratio), out)
    assert _certifies(got, (xa - ea) * ratio) and _certifies(got, (xa + ea) * ratio)

    out = _out_bits(data.draw, a.frac_bits)
    got = a.rescale(out)
    assert _triple(got) == _rule(xa, ea, out)
    assert _certifies(got, xa - ea) and _certifies(got, xa + ea)

    got = FixReal.from_fraction(ratio, out)
    assert _triple(got) == _rule(ratio, Fraction(0), out)
    assert _certifies(got, ratio)


@pytest.mark.parametrize("op", [
    lambda x: x.mul(x, -1),
    lambda x: x.scale_rat(Fraction(3, 5), -1),
    lambda x: x.rescale(-1),
    lambda x: FixReal.from_fraction(Fraction(3, 5), -1),
], ids=["mul", "scale_rat", "rescale", "from_fraction"])
def test_every_rounding_op_refuses_a_negative_width(op):
    with pytest.raises(ValueError, match="out_bits must be non-negative"):
        op(FixReal(-12345, 7, 3))


@settings(max_examples=60, deadline=None)
@given(_ratios, st.integers(40, 1200), st.integers(8, 1200))
def test_precision_cache_hit_matches_the_exact_rule(x, high, low):
    @precision_cache()
    def value(key: Fraction, prec_bits: int) -> FixReal:
        return FixReal.from_fraction(key, prec_bits + GUARD_BITS)

    low = min(low, high)
    stored = value(x, high)
    hit = value(x, low)
    assert value.cache_info().hits == 1
    assert _triple(hit) == _rule(stored.value_fraction(), stored.error_fraction(), low + GUARD_BITS)
    assert _certifies(hit, x)


@settings(max_examples=300, deadline=None)
@given(_fix(), st.integers(-(1 << 80), 1 << 80), st.integers(1, 1 << 80), st.booleans())
@example(FixReal(3, 2, 1), 0, 1, False)  # zero threshold
@example(FixReal(0, 0, 0), 0, 1, False)  # zero bound against zero threshold
@example(FixReal(-3, 2, 1), 2, 1, True)  # threshold equal to the bound
def test_certified_below_agrees_with_the_fraction_rule(x, num, den, near):
    # near: a threshold within 2/den of the magnitude bound, either side or equal
    bound = Fraction(abs(x.mantissa) + x.err_ulp, 1 << x.frac_bits)
    threshold = bound + Fraction(num % 5 - 2, den) if near else Fraction(num, den)
    assert x.certified_below(threshold) == (bound < threshold)


def test_fixreal_is_a_value_with_only_its_own_operators():
    x, y = FixReal(5, 3, 1), FixReal(5, 3, 1)
    assert x == y and hash(x) == hash(y) and x is not y
    assert x != FixReal(5, 3, 0) and x != (5, 3, 1) and (5, 3, 1) != x
    assert repr(x) == "FixReal(mantissa=5, frac_bits=3, err_ulp=1)"
    for op in (lambda: x < y, lambda: x <= y, lambda: x > y, lambda: x >= y,
               lambda: x * y, lambda: x * 2, lambda: 2 * x, lambda: x + (1,), lambda: (1,) + x,
               lambda: x + 1, lambda: x - 1, lambda: (1,) < x, lambda: abs(x)):
        with pytest.raises(TypeError):
            op()
    for bad in ((1, -1, 0), (1, 0, -1)):
        with pytest.raises(ValueError):
            FixReal(*bad)
