"""Differential tests of evaluate, li_point_value, part_formulas, the exact
trigonometric values, hurwitz_zeta, bernoulli, Cl2(pi/3) and the digits
`bbp eval` prints, against mpmath.

Each oracle shares no code with bbpkit.  evaluate and li_point_value are
called at several precisions per example, in the random order hypothesis
draws, so values served by the precision cache from a higher precision are
checked as well as fresh ones.
"""
import contextlib
import io
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from bbpkit.bigmath import GUARD_BITS
from bbpkit.catalog import bits_for_digits, default_catalog, derive_bbp, evaluate_expr
from bbpkit.cli import main
from bbpkit.generator import LiPoint, _twice_cos, part_formulas, period
from bbpkit.pformula import PFormula, evaluate
from bbpkit.reference import bernoulli, constant, hurwitz_zeta, li_point_value
from mp_oracle import context, expr_value, formula_value, polylog_part, within

mpmath = pytest.importorskip("mpmath")

PRECISIONS = st.lists(st.integers(8, 400), min_size=2, max_size=4)


@st.composite
def formulas(draw):
    length = draw(st.integers(1, 4))
    coeffs = draw(st.lists(st.integers(-30, 30), min_size=length, max_size=length))
    pre = Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 40)))
    return PFormula(draw(st.integers(1, 4)), draw(st.integers(1, 10)), length,
                    tuple(coeffs), pre, draw(st.booleans()))


@settings(max_examples=120, deadline=None)
@given(formulas(), PRECISIONS)
def test_evaluate_agrees_with_mpmath(p, precisions):
    ctx = context(max(precisions))
    ref = formula_value(p, ctx)
    for bits in precisions:
        v = evaluate(p, bits)
        assert v.frac_bits == bits + GUARD_BITS
        assert within(v, ctx, ref), (p, bits)


def test_evaluate_agrees_with_mpmath_at_1000_digits():
    # the 33 extractable catalog formulas and the 24 unit formulas of the
    # criterion-4 lattice; hypothesis draws formulas of length <= 4, these put
    # several groups of terms into one base block (length 120) or run
    # hundreds of blocks (base 2^12)
    formulas = [(r.id, derive_bbp(r)) for r in default_catalog()
                if r.kind in ("bbp_ready", "printed_formula")]
    assert len(formulas) == 33
    formulas += [(f"unit-{j}", PFormula(2, 12, 24, tuple(int(i == j) for i in range(24))))
                 for j in range(24)]
    bits = bits_for_digits(1000)
    ctx = context(bits)
    for name, p in formulas:
        assert within(evaluate(p, bits), ctx, formula_value(p, ctx)), name


def test_warm_side_values_hold_the_mpmath_value():
    records = random.Random(7).sample(default_catalog().records, 12)
    bits = bits_for_digits(100)
    ctx = context(bits)
    for record in records:
        for expr in (record.lhs, record.rhs):
            evaluate_expr(expr, 3 * bits)
            before = evaluate_expr.cache_info()
            warm = evaluate_expr(expr, bits)
            assert evaluate_expr.cache_info().hits == before.hits + 1
            assert within(warm, ctx, expr_value(expr, ctx)), (record.id, str(expr))


@st.composite
def points(draw):
    den = draw(st.sampled_from([0, 1, 2, 3, 4]))  # 0: the angle-zero point
    if den == 0:
        return LiPoint(draw(st.integers(1, 4)), 2 * draw(st.integers(1, 3)), 0, 1, "re")
    num = draw(st.sampled_from([n for n in range(1, 2 * den) if gcd(n, den) == 1]))
    scale = draw(st.integers(1, 6))
    if den == 3:
        scale += scale % 2
    return LiPoint(draw(st.integers(1, 4)), scale, num, den, draw(st.sampled_from(["re", "im"])))


def test_trig_lookup_agrees_with_mpmath():
    # every angle a point reaches: j*pi/12 with j = 12*n/d*k - phase, phase 6 for sin
    ctx = mpmath.MPContext()
    ctx.dps = 50
    for d in (1, 2, 3, 4):
        for n in range(2 * d):
            for phase in (0, 6):
                for k in range(1, 25):
                    j = 12 * n // d * k - phase
                    c, r = _twice_cos(j)
                    assert r in (1, 2, 3), j
                    ref = 2 * ctx.cospi(ctx.mpf(j) / 12)
                    assert abs(c * ctx.sqrt(r) - ref) < ctx.mpf(10) ** -48, j


@settings(max_examples=80, deadline=None)
@given(points(), PRECISIONS)
def test_li_point_value_agrees_with_mpmath_polylog(pt, precisions):
    ctx = context(max(precisions))
    ref = polylog_part(pt, ctx)
    for bits in precisions:
        assert within(li_point_value(pt, bits), ctx, ref), (pt, bits)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("scale", [1, 2, 3, 4])
def test_part_formulas_agree_with_mpmath_polylog(degree, scale):
    # every point at these scales: odd q*k swaps (c, 1) to (c, 2) and (c, 2) to
    # (2c, 1), and pi/3 angles give sqrt(3) parts
    ctx = context(340)
    sites = [(n, d, part) for d in (1, 2, 3, 4) for n in range(1, 2 * d) if gcd(n, d) == 1
             if d != 3 or scale % 2 == 0 for part in ("re", "im")]
    if scale % 2 == 0:
        sites.append((0, 1, "re"))
    for n, d, part in sites:
        pt = LiPoint(degree, scale, n, d, part)
        total = ctx.mpf(0)
        for root, p in part_formulas(pt, period(pt)):
            v = evaluate(p, 340)
            total += ctx.sqrt(root) * ctx.ldexp(v.mantissa, -v.frac_bits)
        assert abs(total - polylog_part(pt, ctx)) < ctx.mpf(10) ** -100, pt


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 12), st.integers(1, 12), st.integers(8, 300))
def test_hurwitz_zeta_agrees_with_mpmath(s, u, v, bits):
    a = Fraction(min(u, v), max(u, v))
    ctx = context(bits)
    ref = ctx.zeta(s, ctx.mpf(a.numerator) / a.denominator)
    assert within(hurwitz_zeta(s, a, bits), ctx, ref), (s, a, bits)


@pytest.mark.parametrize("s", [2, 3, 5])
@pytest.mark.parametrize("a", [Fraction(1, 6), Fraction(1, 3), Fraction(2, 3), Fraction(5, 6),
                               Fraction(1)])
def test_hurwitz_zeta_agrees_with_mpmath_at_1000_digits(s, a):
    # the Euler-Maclaurin cut grows with the precision; hypothesis stays below 300 bits
    bits = bits_for_digits(1000)
    ctx = context(bits)
    ref = ctx.zeta(s, ctx.mpf(a.numerator) / a.denominator)
    assert within(hurwitz_zeta(s, a, bits), ctx, ref), (s, a)


def test_cl2_pi3_agrees_with_mpmath_clsin_at_1000_digits():
    bits = bits_for_digits(1000)
    ctx = context(bits)
    assert within(constant("cl2_pi3", bits), ctx, ctx.clsin(2, ctx.pi / 3))


def test_bernoulli_agrees_with_mpmath_bernfrac():
    for n in range(601):
        p, q = mpmath.bernfrac(n)
        assert bernoulli(n) == Fraction(int(p), int(q)), n


@st.composite
def monomial_sums(draw):
    """A rational plus rational multiples of pi^a * log2^b, as `bbp eval` text, and
    the (coefficient, a, b) terms."""
    # decimal and tiny binary denominators put values on or next to a digit boundary
    dens = st.one_of(st.integers(1, 60), st.sampled_from([10, 200, 10**4, 2**100, 2**400]))
    terms = [(Fraction(draw(st.integers(-60, 60)), draw(dens)),
              draw(st.integers(0, 3)), draw(st.integers(0, 2)))
             for _ in range(draw(st.integers(1, 4)))]
    text = " + ".join(f"{c.numerator}/{c.denominator}" + "".join(
        f" * {name}^{k}" for name, k in (("pi", a), ("log2", b)) if k) for c, a, b in terms)
    return text, terms


@settings(max_examples=80, deadline=None)
@given(monomial_sums(), st.integers(16, 120))
@example(("1/10", [(Fraction(1, 10), 0, 0)]), 20)
@example(("-7/200 + -3/2^400 * pi", [(Fraction(-7, 200), 0, 0), (Fraction(-3, 2**400), 1, 0)]), 30)
@example(("-1/2^400 * log2 + 1/1", [(Fraction(-1, 2**400), 0, 1), (Fraction(1), 0, 0)]), 16)
def test_eval_prints_the_truncation_of_the_true_value(expr, digits):
    text, terms = expr
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["eval", "--digits", str(digits), "--", text])
    assert code == 0
    # a term below 2^-400 can decide the digits next to a boundary, so the
    # oracle carries the widest denominator's bits on top of 4 bits per digit
    ctx = context(4 * digits + max(c.denominator.bit_length() for c, _, _ in terms))
    v = ctx.fsum(ctx.mpf(c.numerator) / c.denominator * ctx.pi**a * ctx.log(2)**b
                 for c, a, b in terms)
    if all(a == b == 0 for _, a, b in terms):  # a rational: compare exactly
        q = sum(c for c, _, _ in terms)
        scaled, negative = abs(q.numerator) * 10**digits // q.denominator, q < 0
    else:
        scaled, negative = int(ctx.floor(abs(v) * ctx.mpf(10)**digits)), v < 0
    ip, fp = divmod(scaled, 10**digits)
    assert out.getvalue().strip() == ("-" if negative and scaled else "") + f"{ip}.{fp:0{digits}d}"
