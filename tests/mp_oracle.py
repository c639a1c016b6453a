"""mpmath oracles shared by the differential tests; they share no code with bbpkit.

A test that calls ``context`` is skipped when mpmath is not installed.
"""
import pytest

from bbpkit.bigmath import FixReal
from bbpkit.catalog import LinearExpr
from bbpkit.generator import LiPoint
from bbpkit.pformula import PFormula


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


def formula_value(p: PFormula, ctx):
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


def _atom(name: str, ctx):
    """The atom of a constant monomial, by mpmath's own functions."""
    return {"one": lambda: ctx.mpf(1), "zeta3": lambda: ctx.zeta(3), "zeta5": lambda: ctx.zeta(5),
            "catalan": lambda: +ctx.catalan, "cl2_pi3": lambda: ctx.clsin(2, ctx.pi / 3),
            "cl4_pi2": lambda: ctx.clsin(4, ctx.pi / 2)}[name]()


def expr_value(expr: LinearExpr, ctx):
    """The sum of a catalog expression's terms, each from its own oracle."""
    total = ctx.mpf(0)
    for coeff, term in expr.terms:
        if isinstance(term, PFormula):
            v = formula_value(term, ctx)
        elif isinstance(term, LiPoint):
            v = polylog_part(term, ctx)
        else:
            v = ctx.pi**term.pi_pow * ctx.log(2)**term.log2_pow * _atom(term.atom, ctx)
        total += ctx.mpf(coeff.numerator) / coeff.denominator * v
    return total
