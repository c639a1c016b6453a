"""Independent high-precision oracles.

Everything a formula can be checked against lives here: base constants
(pi by a Machin arctangent pair, log 2 by its geometric series, zeta(3),
zeta(5), Catalan's constant, the fourth-order beta value and Cl2(pi/3)
through accelerated alternating sums), Hurwitz zeta by Euler-Maclaurin
summation, Chebyshev-style acceleration of alternating series, direct
summation of polylogarithm points, and constant monomials built from the
cached bases.

All routines return certified FixReal values; precision is always an
explicit bit count.  ``constant`` and ``li_point_value`` keep each value at
the highest precision computed and serve lower precisions from it
(``bigmath.precision_cache``).  The cache table sits behind a lock, and the
Bernoulli table grows by tangent-number columns under its own lock, so
concurrent callers are safe.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from .bigmath import FixReal, ceil_div, fix_sqrt_int, precision_cache, tdiv
from .generator import LiPoint, period

__all__ = [
    "ConstMonomial",
    "ATOMS",
    "bernoulli",
    "hurwitz_zeta",
    "alt_sum",
    "constant",
    "const_value",
    "li_point_value",
    "pi_machin",
    "pi_alt",
]

_GUARD = 64

# atom name -> degree as a polylogarithm constant
ATOMS = {
    "one": 0,
    "zeta3": 3,
    "zeta5": 5,
    "catalan": 2,
    "cl2_pi3": 2,
    "cl4_pi2": 4,
}


@dataclass(frozen=True, slots=True)
class ConstMonomial:
    """pi^pi_pow * log(2)^log2_pow * atom."""

    pi_pow: int = 0
    log2_pow: int = 0
    atom: str = "one"

    def __post_init__(self) -> None:
        if self.pi_pow < 0 or self.log2_pow < 0:
            raise ValueError("powers must be non-negative")
        if self.atom not in ATOMS:
            raise ValueError(f"unknown atom {self.atom!r}")

    @property
    def total_degree(self) -> int:
        return self.pi_pow + self.log2_pow + ATOMS[self.atom]

    def __str__(self) -> str:
        names = {"one": "1", "zeta3": "zeta3", "zeta5": "zeta5", "catalan": "G",
                 "cl2_pi3": "Cl2pi3", "cl4_pi2": "Cl4pi2"}
        parts = []
        if self.pi_pow:
            parts.append("pi" if self.pi_pow == 1 else f"pi^{self.pi_pow}")
        if self.log2_pow:
            parts.append("log2" if self.log2_pow == 1 else f"log2^{self.log2_pow}")
        if self.atom != "one" or not parts:
            parts.append(names[self.atom])
        return " * ".join(parts)


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

_tan: list[int] = [1]  # column c of the tangent-number triangle; _tan[-1] = T_c
_bern: list[Fraction] = [Fraction(1, 6)]  # B_2, B_4, ..., B_2c
_bern_lock = threading.Lock()


def bernoulli(n: int) -> Fraction:
    """Exact B_n (B_1 = -1/2); B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the
    tangent numbers T_k, whose triangle (Brent & Harvey 2011) grows a column at a time."""
    if n < 0:
        raise ValueError("index must be non-negative")
    if n < 2 or n & 1:  # B_0 = 1, B_1 = -1/2, odd B_n = 0
        return Fraction(-1, 2) if n == 1 else Fraction(int(n == 0))
    with _bern_lock:
        while len(_bern) < n // 2:
            j = len(_tan) + 1
            col = [(j - 1) * _tan[0]]  # (j-1)!
            for k in range(2, j):
                col.append((j - k) * _tan[k - 1] + (j - k + 2) * col[-1])
            col.append(2 * col[-1])
            _tan[:] = col
            _bern.append(Fraction((-1) ** (j - 1) * 2 * j * col[-1], 4**j * (4**j - 1)))
        return _bern[n // 2 - 1]


# ---------------------------------------------------------------------------
# Euler-Maclaurin Hurwitz zeta
# ---------------------------------------------------------------------------

def hurwitz_zeta(s: int, a: Fraction, prec_bits: int) -> FixReal:
    """sum_{k>=0} (k+a)^(-s) for integer s >= 2 and rational a in (0, 1]."""
    if s < 2:
        raise ValueError("degree must be at least 2")
    a = Fraction(a)
    if not 0 < a <= 1:
        raise ValueError("offset must lie in (0, 1]")
    work = prec_bits + _GUARD
    u, v = a.numerator, a.denominator
    # head length: each head term is one division by a small integer, and past
    # it the correction terms pass one working ulp after about work/14 of them
    cut = work + 2 * s + 8

    acc = 0
    err = 0
    vs = v**s
    for k in range(cut):
        acc += (vs << work) // (k * v + u) ** s
        err += 1

    edge = cut * v + u  # (cut + a) * v
    # integral tail: (cut+a)^(1-s) / (s-1)
    tail = Fraction(v ** (s - 1), (s - 1) * edge ** (s - 1))
    # half-weight boundary term: (cut+a)^(-s) / 2
    tail += Fraction(vs, 2 * edge**s)
    acc += tdiv(tail.numerator << work, tail.denominator)
    err += 1

    # corrections B_2r C(s+2r-2, s-2) / (s-1) (cut+a)^(1-s-2r), exact; the summand
    # is completely monotone, so the first omitted term bounds the remainder
    vp, ep = v ** (s + 1), edge ** (s + 1)  # (cut+a)^(1-s-2r) = vp / ep
    r = 1
    while True:
        b = bernoulli(2 * r)
        tn = b.numerator * comb(s + 2 * r - 2, s - 2) * vp
        td = b.denominator * (s - 1) * ep
        if abs(tn) << (work + 1) < td:
            err += 1
            break
        acc += tdiv(tn << work, td)
        err += 1
        vp *= v * v
        ep *= edge * edge
        r += 1
        if r > cut:
            raise ArithmeticError("correction terms failed to decay; cut too small")

    return FixReal(acc, work, err)


# ---------------------------------------------------------------------------
# accelerated alternating sums
# ---------------------------------------------------------------------------

def alt_sum(f: Callable[[int], Fraction], prec_bits: int) -> FixReal:
    """Accelerated sum of (-1)^k f(k) for totally monotone decreasing f.

    Chebyshev-weight acceleration: about 1.31 terms per decimal digit, with
    the certified method error charged through the (3+sqrt(8))^(-n) bound.
    """
    work = prec_bits + _GUARD
    n = (work + 6) * 10000 // 25431 + 3  # log2(3+sqrt8) = 2.5431...

    d_prev, d = 1, 3  # ((3+sqrt8)^k + (3-sqrt8)^k) / 2
    for _ in range(n - 1):
        d_prev, d = d, 6 * d - d_prev

    b = -1  # the Chebyshev weight, an integer at every step
    c = -d
    acc = 0
    for k in range(n):
        c = b - c
        fk = f(k)
        acc += tdiv(c * fk.numerator << work, fk.denominator)
        b, rem = divmod(b * (2 * (k + n) * (k - n)), (2 * k + 1) * (k + 1))
        if rem:
            raise ArithmeticError(f"Chebyshev weight {k + 1} of {n} is not an integer")

    a0 = f(0)
    result = tdiv(acc, d)
    method_err = ceil_div(8 * abs(a0.numerator) << work, a0.denominator * d) + 1
    err = ceil_div(n, d) + 1 + method_err  # one truncation per term, then the division
    return FixReal(result, work, err)


# ---------------------------------------------------------------------------
# base constants
# ---------------------------------------------------------------------------

def _atan_inv(m: int, work: int) -> tuple[int, int]:
    """(mantissa, err_ulp) for arctan(1/m) at scale 2^-work."""
    t = (1 << work) // m
    m2 = m * m
    acc = 0
    k = 0
    while t:
        term = t // (2 * k + 1)
        acc += -term if k & 1 else term
        t //= m2
        k += 1
    return acc, 3 * k + 2


def pi_machin(bits: int) -> FixReal:
    """pi = 16 atan(1/5) - 4 atan(1/239)."""
    work = bits + 32
    a5, e5 = _atan_inv(5, work)
    a239, e239 = _atan_inv(239, work)
    return FixReal(16 * a5 - 4 * a239, work, 16 * e5 + 4 * e239)


def pi_alt(bits: int) -> FixReal:
    """pi = 8 atan(1/3) + 4 atan(1/7); used to cross-check the Machin value."""
    work = bits + 32
    a3, e3 = _atan_inv(3, work)
    a7, e7 = _atan_inv(7, work)
    return FixReal(8 * a3 + 4 * a7, work, 8 * e3 + 4 * e7)


def _log2_series(bits: int) -> FixReal:
    # log 2 = sum_{k>=1} 1 / (k * 2^k)
    work = bits + 32
    acc = 0
    for k in range(1, work + 1):
        acc += (1 << (work - k)) // k
    return FixReal(acc, work, work + 2)


def _zeta_odd(s: int, bits: int) -> FixReal:
    # zeta(s) = eta(s) / (1 - 2^(1-s)) with eta from the accelerated sum
    eta = alt_sum(lambda k: Fraction(1, (k + 1) ** s), bits + 8)
    scale = Fraction(1 << (s - 1), (1 << (s - 1)) - 1)
    return eta.scale_rat(scale, bits + 32)


def _beta_even(s: int, bits: int) -> FixReal:
    # beta(s) = sum (-1)^k / (2k+1)^s
    return alt_sum(lambda k: Fraction(1, (2 * k + 1) ** s), bits + 8)


def _cl2_pi3(bits: int) -> FixReal:
    # grouping sin(k*pi/3) by k mod 6:
    # Cl2(pi/3) = sqrt(3)/2 * sum (-1)^j [1/(3j+1)^2 + 1/(3j+2)^2]
    work = bits + 32
    z = alt_sum(lambda j: Fraction(1, (3 * j + 1) ** 2) + Fraction(1, (3 * j + 2) ** 2), bits + 8)
    return z.mul(fix_sqrt_int(3, work), work).scale_rat(Fraction(1, 2), work)


_BUILDERS: dict[str, Callable[[int], FixReal]] = {
    "pi": pi_machin,
    "log2": _log2_series,
    "zeta3": lambda bits: _zeta_odd(3, bits),
    "zeta5": lambda bits: _zeta_odd(5, bits),
    "catalan": lambda bits: _beta_even(2, bits),
    "cl4_pi2": lambda bits: _beta_even(4, bits),
    "cl2_pi3": _cl2_pi3,
    "one": lambda bits: FixReal.from_int(1, bits),
}


@precision_cache()
def constant(name: str, prec_bits: int) -> FixReal:
    """Base constant with at least prec_bits fraction bits."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown constant {name!r}")
    return _BUILDERS[name](prec_bits)


def const_value(mono: ConstMonomial, prec_bits: int) -> FixReal:
    """Certified value of a constant monomial."""
    work = prec_bits + 48
    result = FixReal.from_int(1, work)
    for _ in range(mono.pi_pow):
        result = result.mul(constant("pi", work), work)
    for _ in range(mono.log2_pow):
        result = result.mul(constant("log2", work), work)
    if mono.atom != "one":
        result = result.mul(constant(mono.atom, work), work)
    return result


# ---------------------------------------------------------------------------
# direct polylogarithm point summation
# ---------------------------------------------------------------------------

@precision_cache()
def li_point_value(pt: LiPoint, prec_bits: int) -> FixReal:
    """Direct summation of sum_k p^k trig(k x) / k^s with exact trig patterns.

    Scale factors keep |z| <= 1/sqrt(2), so the series terminates after about
    2*prec/q terms.  Term k + L of pt.terms is term k scaled by 2^(-q*L/2)
    for the period L, so one period serves every k.  Rational, sqrt(2) and
    sqrt(3) parts accumulate separately, each charged one ulp per truncation
    before its root multiplies it, and are recombined at the end.
    """
    work = prec_bits + _GUARD
    s = pt.degree
    length = period(pt)
    step = pt.scale_exp * length // 2
    one_period = [
        (shift, [(part, x.numerator, x.denominator) for part, x in enumerate(v) if x])
        for shift, v in pt.terms(length)
    ]
    acc = [0, 0, 0]  # indexed like TrigValue: rational, sqrt(2), sqrt(3)
    truncs = [0, 0, 0]
    for k in range(1, 2 * (work + 2) // pt.scale_exp + 1):
        j, i = divmod(k - 1, length)
        shift, parts = one_period[i]
        e = work - shift - j * step
        ks = k**s
        for part, num, den in parts:
            acc[part] += tdiv(num << e, den * ks) if e >= 0 else tdiv(num, den * ks << -e)
            truncs[part] += 1

    # past the last term, |tail| < 2^(-work-2.5) / (1 - 2^(-1/2)) < 1 ulp
    total = FixReal(acc[0], work, truncs[0] + 1)
    for part, root in ((1, 2), (2, 3)):
        if truncs[part]:
            charged = FixReal(acc[part], work, truncs[part])
            total = total + charged.mul(fix_sqrt_int(root, work), work)
    return total
