"""mpmath oracles shared by the differential tests; they share no code with bbpkit.

A test that calls ``context`` is skipped when mpmath is not installed.
"""
import pytest

from bbpkit.bigmath import FixReal
from bbpkit.generator import LiPoint


def context(prec_bits: int):
    """An mpmath context 160 bits past prec_bits."""
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.MPContext()
    ctx.prec = prec_bits + 160
    return ctx


def within(v: FixReal, ctx, ref, tol=0) -> bool:
    """|v - ref| lies inside v's certified error plus tol; the oracle's own error,
    about 2^-80 ulp at its 160 extra bits, gets 2^-40 ulp."""
    slack = ctx.ldexp(1, -40) + ctx.ldexp(tol, v.frac_bits)
    return abs(ctx.mpf(v.mantissa) - ctx.ldexp(ref, v.frac_bits)) <= v.err_ulp + slack


def polylog_part(pt: LiPoint, ctx):
    """Re or Im of mpmath's Li_s at the point 2^(-q/2) * e^(i*pi*n/d)."""
    z = ctx.power(2, ctx.mpf(-pt.scale_exp) / 2)
    if pt.ang_num:
        z *= ctx.expjpi(ctx.mpf(pt.ang_num) / pt.ang_den)
    w = ctx.polylog(pt.degree, z)
    return ctx.re(w) if pt.part == "re" else ctx.im(w)
