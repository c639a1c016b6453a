"""Binary BBP-type formulas from polylogarithm evaluation points.

A point is the real or imaginary part of Li_s at z = 2^(-q/2) * exp(i*pi*n/d)
with d in {1, 2, 3, 4}.  Coefficients are derived from first principles: the
series is folded over one period L of exp(i*x) chosen so that 2^(-q*L/2) is an
integer power of two.  Every 2*cos or 2*sin value a point reaches is c*sqrt(r),
c in {0, +-1, +-2} and r in {1, 2, 3}, from a five-entry table, so
``part_formulas`` builds each part (rational, sqrt(2), sqrt(3)) from integers c
shifted left over one denominator 2^(B+1), B = q*L/2; the point's value is the
sum of the parts, each times its root.  ``generate`` requires the sqrt(2) part
to cancel identically.  Imaginary parts at angle pi/3 retain a common sqrt(3)
factor, which moves into the prefactor flag and makes the result evaluate-only.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from .pformula import (PFormula, Scanner, canonicalize, check_degree, check_table, scan_int,
                       zero_formula)

__all__ = [
    "LiPoint",
    "PointError",
    "IrrationalCarryError",
    "period",
    "part_formulas",
    "generate",
    "scan_li_point",
    "parse_li_point",
    "serialize_li_point",
]


class PointError(ValueError):
    pass


class IrrationalCarryError(PointError):
    """A coefficient kept an irrational factor that does not cancel."""


# 2*cos(j*pi/12) as (c, r), meaning c*sqrt(r), for the first-quadrant j a point reaches
_TWICE_COS = {0: (2, 1), 2: (1, 3), 3: (1, 2), 4: (1, 1), 6: (0, 1)}


def _twice_cos(j: int) -> tuple[int, int]:
    """2*cos(j*pi/12) as (c, r), folded by cos(-x) = cos x and cos(pi - x) = -cos x."""
    j = abs((j + 12) % 24 - 12)
    if j > 6:
        c, r = _TWICE_COS[12 - j]
        return -c, r
    return _TWICE_COS[j]


@dataclass(frozen=True, slots=True)
class LiPoint:
    """Polylog evaluation site: part of Li_degree at 2^(-scale_exp/2)*e^(i*pi*ang_num/ang_den).

    ang_num == 0 (with ang_den == 1) is the degenerate positive-real-argument
    case; it requires an even scale exponent and the real part.
    """

    degree: int
    scale_exp: int
    ang_num: int
    ang_den: int
    part: str  # "re" | "im"

    def __post_init__(self) -> None:
        check_degree(self.degree, PointError)
        if self.scale_exp < 1:
            raise PointError("scale exponent must be positive")
        if self.part not in ("re", "im"):
            raise PointError(f"part must be 're' or 'im', not {self.part!r}")
        if self.ang_den not in (1, 2, 3, 4):
            raise PointError(f"unsupported angle denominator {self.ang_den}")
        if self.ang_num == 0:
            if self.part == "im":
                raise PointError("imaginary part at angle zero is identically zero")
            if self.ang_den != 1:
                raise PointError("angle zero must be written over denominator 1")
            if self.scale_exp % 2:
                raise PointError("angle-zero points need an even scale exponent")
        else:
            if not 0 < self.ang_num < 2 * self.ang_den:
                raise PointError("angle must lie in (0, 2*pi)")
            if gcd(self.ang_num, self.ang_den) != 1:
                raise PointError("angle fraction must be in lowest terms")
            # the half-odd scale factor sqrt(2) against sqrt(3)/2 trig values
            # yields sqrt(6) terms with no way to cancel
            if self.ang_den == 3 and self.scale_exp % 2:
                raise PointError("pi/3 angles need an even scale exponent")

    def __str__(self) -> str:
        return serialize_li_point(self)


_POINT_PARTS = {"ReLi": "re", "ImLi": "im", "ReLi0": "re"}


def scan_li_point(sc: Scanner) -> LiPoint:
    """``ReLi(s, q, n[/d])``, ``ImLi(s, q, n[/d])`` or ``ReLi0(s, q)``."""
    if sc.peek() not in _POINT_PARTS:
        raise sc.fail("expected ReLi, ImLi or ReLi0")
    at = sc.i
    head = sc.next()
    sc.expect("(")
    degree = scan_int(sc)
    sc.expect(",")
    scale_exp = scan_int(sc)
    ang_num, ang_den = 0, 1
    if head != "ReLi0":
        sc.expect(",")
        ang_num = scan_int(sc)
        if sc.accept("/"):
            ang_den = scan_int(sc)
    sc.expect(")")
    try:
        return LiPoint(degree, scale_exp, ang_num, ang_den, _POINT_PARTS[head])
    except PointError as exc:
        raise PointError(f"{exc} (at position {sc.position(at)})") from None


def parse_li_point(text: str) -> LiPoint:
    """Parse one point; raises ParseError or PointError, each with a position."""
    sc = Scanner(text)
    pt = scan_li_point(sc)
    sc.end()
    return pt


def serialize_li_point(pt: LiPoint) -> str:
    if pt.ang_num == 0:
        return f"ReLi0({pt.degree}, {pt.scale_exp})"
    head = "ReLi" if pt.part == "re" else "ImLi"
    return f"{head}({pt.degree}, {pt.scale_exp}, {pt.ang_num}/{pt.ang_den})"


def period(pt: LiPoint) -> int:
    """Smallest L with exp(i*L*x) = 1 and q*L even, so p^L is a power of two."""
    base = 2 * pt.ang_den // gcd(pt.ang_num, 2 * pt.ang_den)  # 1 at angle zero (d = 1)
    return base if (pt.scale_exp * base) % 2 == 0 else 2 * base


def part_formulas(pt: LiPoint, length: int) -> list[tuple[int, PFormula]]:
    """(root, formula) for each nonzero part of the point's series, folded over length terms.

    length must be a positive multiple of period(pt).  With B = q*length/2, term k is
    2^(-q*k/2) * trig(k*x) = c * sqrt(r) * 2^(B - q*k/2) / 2^(B+1), where
    c * sqrt(r) = 2*trig(k*x) comes from _twice_cos; an odd q*k writes
    2^(-q*k/2) as sqrt(2) * 2^(-(q*k+1)/2), which maps (c, 2) to (2c, 1) and
    (c, 1) to (c, 2).  The integers c << (B - q*k/2) with root r form one
    canonical P(s, 2^B, length, A) with prefactor 1/2^(B+1), and the point is
    the sum of sqrt(root) * formula over the list.  A length that is not an
    int, or a table longer than MAX_TABLE_BITS, its coefficients taken as wide
    as its base, raises PointError before any term is built.
    """
    if not isinstance(length, int):
        raise PointError(f"target length {length!r} is not an integer")
    per = period(pt)
    if length < 1:
        raise PointError(
            f"target length {length} must be a positive multiple of the period {per}")
    if length % per != 0:
        raise PointError(f"target length {length} is not a multiple of the period {per}")
    base_exp = pt.scale_exp * length // 2
    check_table(length, base_exp, base_exp, PointError)
    step = 12 * pt.ang_num // pt.ang_den  # k*x in units of pi/12
    phase = 6 if pt.part == "im" else 0  # sin x = cos(x - pi/2)
    parts = {1: [0] * length, 2: [0] * length, 3: [0] * length}
    for k in range(1, length + 1):
        c, r = _twice_cos(step * k - phase)
        qk = pt.scale_exp * k
        if qk % 2:  # only k < length, so qk + 1 <= 2B; pi/3 angles (r = 3) need an even q
            c, r = (2 * c, 1) if r == 2 else (c, 2)
            qk += 1
        parts[r][k - 1] = c << (base_exp - qk // 2)
    pre = Fraction(1, 1 << (base_exp + 1))
    return [(root, canonicalize(PFormula(pt.degree, base_exp, length, tuple(coeffs), pre)))
            for root, coeffs in parts.items() if any(coeffs)]


def generate(pt: LiPoint, target_len: int) -> PFormula:
    """Exact formula of length target_len for the point, from part_formulas.

    target_len must be a positive multiple of period(pt).  A sqrt(2) part, or a
    rational part beside a sqrt(3) part, raises IrrationalCarryError; a lone
    sqrt(3) part moves its factor to the root3 flag.
    """
    parts = dict(part_formulas(pt, target_len))
    if 2 in parts:
        raise IrrationalCarryError(f"sqrt(2) factor does not cancel for {pt}")
    if 3 in parts:
        if 1 in parts:
            raise IrrationalCarryError(f"mixed rational and sqrt(3) coefficients for {pt}")
        return replace(parts[3], root3=True)
    return parts.get(1, zero_formula(pt.degree))
