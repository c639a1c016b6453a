"""Differential tests of evaluate, li_point_value, the exact trigonometric
values, hurwitz_zeta, bernoulli, Cl2(pi/3) and the digits `bbp eval` prints,
against mpmath.

Each oracle shares no code with bbpkit.  evaluate and li_point_value are
called at several precisions per example, in the random order hypothesis
draws, so values served by the precision cache from a higher precision are
checked as well as fresh ones.
"""
import contextlib
import io
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from bbpkit.bigmath import FixReal
from bbpkit.catalog import bits_for_digits, default_catalog, derive_bbp
from bbpkit.cli import main
from bbpkit.generator import _TRIG, LiPoint
from bbpkit.pformula import EVAL_GUARD_BITS, PFormula, evaluate
from bbpkit.reference import bernoulli, constant, hurwitz_zeta, li_point_value

mpmath = pytest.importorskip("mpmath")

PRECISIONS = st.lists(st.integers(8, 400), min_size=2, max_size=4)


def _context(prec_bits: int):
    ctx = mpmath.MPContext()
    ctx.prec = prec_bits + 160
    return ctx


def _within(v: FixReal, ctx, ref) -> bool:
    """|v - ref| lies inside v's certified error; the oracle's own error, about
    2^-80 ulp at its 160 extra bits, gets 2^-40 ulp."""
    return abs(ctx.mpf(v.mantissa) - ctx.ldexp(ref, v.frac_bits)) <= v.err_ulp + ctx.ldexp(1, -40)


@st.composite
def formulas(draw):
    length = draw(st.integers(1, 4))
    coeffs = draw(st.lists(st.integers(-30, 30), min_size=length, max_size=length))
    pre = Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 40)))
    return PFormula(draw(st.integers(1, 4)), draw(st.integers(1, 10)), length,
                    tuple(coeffs), pre, draw(st.booleans()))


def _formula_oracle(p: PFormula, ctx):
    """Term-by-term sum in mpmath floating point, stopped well past its precision."""
    total = ctx.mpf(0)
    k = 0
    while p.base_exp * k <= ctx.prec + 16:
        block = ctx.fsum(ctx.mpf(a) / ctx.mpf(k * p.length + j) ** p.degree
                         for j, a in enumerate(p.coeffs, start=1) if a)
        total += ctx.ldexp(block, -p.base_exp * k)
        k += 1
    total *= ctx.mpf(p.pre.numerator) / p.pre.denominator
    return total * ctx.sqrt(3) if p.root3 else total


@settings(max_examples=120, deadline=None)
@given(formulas(), PRECISIONS)
def test_evaluate_agrees_with_mpmath(p, precisions):
    ctx = _context(max(precisions))
    ref = _formula_oracle(p, ctx)
    for bits in precisions:
        v = evaluate(p, bits)
        assert v.frac_bits == bits + EVAL_GUARD_BITS
        assert _within(v, ctx, ref), (p, bits)


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
    ctx = _context(bits)
    for name, p in formulas:
        assert _within(evaluate(p, bits), ctx, _formula_oracle(p, ctx)), name


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
    ctx = mpmath.MPContext()
    ctx.dps = 50
    assert sorted(_TRIG) == [(d, part) for d in (1, 2, 3, 4) for part in ("im", "re")]
    for (d, part), row in _TRIG.items():
        assert len(row) == 2 * d
        for m, tv in enumerate(row):
            assert sum(1 for x in tv[1:] if x) <= 1, (d, part, m)
            exact = ctx.fsum(ctx.mpf(x.numerator) / x.denominator * ctx.sqrt(r)
                             for x, r in zip(tv, (1, 2, 3)))
            angle = ctx.mpf(m) / d
            ref = ctx.cospi(angle) if part == "re" else ctx.sinpi(angle)
            assert abs(exact - ref) < ctx.mpf(10) ** -48, (d, part, m)


@settings(max_examples=80, deadline=None)
@given(points(), PRECISIONS)
def test_li_point_value_agrees_with_mpmath_polylog(pt, precisions):
    ctx = _context(max(precisions))
    z = ctx.power(2, ctx.mpf(-pt.scale_exp) / 2)
    if pt.ang_num:
        z *= ctx.expjpi(ctx.mpf(pt.ang_num) / pt.ang_den)
    w = ctx.polylog(pt.degree, z)
    ref = ctx.re(w) if pt.part == "re" else ctx.im(w)
    for bits in precisions:
        assert _within(li_point_value(pt, bits), ctx, ref), (pt, bits)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 12), st.integers(1, 12), st.integers(8, 300))
def test_hurwitz_zeta_agrees_with_mpmath(s, u, v, bits):
    a = Fraction(min(u, v), max(u, v))
    ctx = _context(bits)
    ref = ctx.zeta(s, ctx.mpf(a.numerator) / a.denominator)
    assert _within(hurwitz_zeta(s, a, bits), ctx, ref), (s, a, bits)


@pytest.mark.parametrize("s", [2, 3, 5])
@pytest.mark.parametrize("a", [Fraction(1, 6), Fraction(1, 3), Fraction(2, 3), Fraction(5, 6),
                               Fraction(1)])
def test_hurwitz_zeta_agrees_with_mpmath_at_1000_digits(s, a):
    # the Euler-Maclaurin cut grows with the precision; hypothesis stays below 300 bits
    bits = bits_for_digits(1000)
    ctx = _context(bits)
    ref = ctx.zeta(s, ctx.mpf(a.numerator) / a.denominator)
    assert _within(hurwitz_zeta(s, a, bits), ctx, ref), (s, a)


def test_cl2_pi3_agrees_with_mpmath_clsin_at_1000_digits():
    bits = bits_for_digits(1000)
    ctx = _context(bits)
    assert _within(constant("cl2_pi3", bits), ctx, ctx.clsin(2, ctx.pi / 3))


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
    ctx = _context(4 * digits + max(c.denominator.bit_length() for c, _, _ in terms))
    v = ctx.fsum(ctx.mpf(c.numerator) / c.denominator * ctx.pi**a * ctx.log(2)**b
                 for c, a, b in terms)
    if all(a == b == 0 for _, a, b in terms):  # a rational: compare exactly
        q = sum(c for c, _, _ in terms)
        scaled, negative = abs(q.numerator) * 10**digits // q.denominator, q < 0
    else:
        scaled, negative = int(ctx.floor(abs(v) * ctx.mpf(10)**digits)), v < 0
    ip, fp = divmod(scaled, 10**digits)
    assert out.getvalue().strip() == ("-" if negative and scaled else "") + f"{ip}.{fp:0{digits}d}"
