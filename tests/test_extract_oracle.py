"""Differential test: digit extraction against an mpmath direct-sum oracle.

The oracle shares no code with bbpkit: it sums the series term by term in
mpmath floating point at a precision well past the requested window.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bbpkit.extractor import ConfidenceError, ExtractRequest, extract
from bbpkit.pformula import PFormula

mpmath = pytest.importorskip("mpmath")

HEX_DIGITS = 8
GUARD_BITS = 96


def oracle_window(p: PFormula, pos: int) -> tuple[int, float]:
    """(window, distance) for frac(2^pos * |value|): the 4*HEX_DIGITS-bit window
    as an integer, and how far, in window units, the value lies from a window
    boundary."""
    ctx = mpmath.MPContext()
    ctx.prec = pos + 4 * HEX_DIGITS + GUARD_BITS + max(p.pre.numerator.bit_length(), 1) + 8
    stop = ctx.prec + sum(abs(a) for a in p.coeffs).bit_length() + 2
    total = ctx.mpf(0)
    k = 0
    while p.base_exp * k <= stop:
        block = ctx.fsum(ctx.mpf(a) / (k * p.length + j) ** p.degree
                         for j, a in enumerate(p.coeffs, start=1) if a)
        total += ctx.ldexp(block, -p.base_exp * k)
        k += 1
    value = abs(total * p.pre.numerator / p.pre.denominator)
    scaled = ctx.ldexp(value, pos + 4 * HEX_DIGITS)
    window = int(ctx.floor(scaled)) % (1 << (4 * HEX_DIGITS))
    part = scaled - ctx.floor(scaled)
    return window, float(min(part, 1 - part))


@st.composite
def small_formulas(draw):
    length = draw(st.integers(1, 4))
    coeffs = draw(st.lists(st.integers(-20, 20), min_size=length, max_size=length))
    num = draw(st.integers(1, 15)) * draw(st.sampled_from([1, -1]))
    den = draw(st.sampled_from([1, 3, 5, 7, 9, 15, 21])) << draw(st.integers(0, 8))
    return PFormula(draw(st.integers(1, 3)), draw(st.integers(1, 8)), length,
                    tuple(coeffs), Fraction(num, den))


@settings(max_examples=100, deadline=None)
@given(small_formulas(), st.integers(0, 8000))
def test_extract_agrees_with_mpmath_direct_sum(p, pos):
    window, distance = oracle_window(p, pos)
    try:
        got = extract(ExtractRequest(p, pos, HEX_DIGITS)).digits
    except ConfidenceError:
        # a refusal is right only next to a carry boundary
        assert distance < 2.0**-16, (p, pos)
        return
    assert got == f"{window:0{HEX_DIGITS}X}", (p, pos)
