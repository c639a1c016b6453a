"""Binary BBP-type formulas from polylogarithm evaluation points.

A point is the real or imaginary part of Li_s at z = 2^(-q/2) * exp(i*pi*n/d)
with d in {1, 2, 3, 4}.  Coefficients are derived from first principles: the
series is folded over one period L of exp(i*x) chosen so that 2^(-q*L/2) is an
integer power of two, the exact trigonometric values are carried in the field
Q(sqrt2, sqrt3), and the sqrt(2) parts are required to cancel identically.
Imaginary parts at angle pi/3 retain a common sqrt(3) factor, which moves into
the prefactor flag and makes the result evaluate-only.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .pformula import (MAX_DEGREE, PFormula, PHeader, Scanner, canonicalize, evaluate, scan_int,
                       zero_formula)

__all__ = [
    "LiPoint",
    "TrigValue",
    "PointError",
    "IrrationalCarryError",
    "period",
    "generate",
    "li_series_header",
    "scan_li_point",
    "parse_li_point",
    "serialize_li_point",
]


class PointError(ValueError):
    pass


class IrrationalCarryError(PointError):
    """A coefficient kept an irrational factor that does not cancel."""


class TrigValue(NamedTuple):
    """Exact rat + root2*sqrt(2) + root3*sqrt(3); at most one part irrational."""

    rat: Fraction
    root2: Fraction
    root3: Fraction


_ZERO = Fraction(0)
_HALF = Fraction(1, 2)

# cos(t*pi) on the first quadrant, t in units of pi
_QUADRANT = {
    Fraction(0): TrigValue(Fraction(1), _ZERO, _ZERO),
    Fraction(1, 6): TrigValue(_ZERO, _ZERO, _HALF),
    Fraction(1, 4): TrigValue(_ZERO, _HALF, _ZERO),
    Fraction(1, 3): TrigValue(_HALF, _ZERO, _ZERO),
    Fraction(1, 2): TrigValue(_ZERO, _ZERO, _ZERO),
}


def _cos_pi(t: Fraction) -> TrigValue:
    """cos(t*pi), folded into the first quadrant by cos(-x) = cos x and cos(pi - x) = -cos x."""
    t %= 2
    if t > 1:
        t = 2 - t
    if t > _HALF:
        return TrigValue(*(-v for v in _cos_pi(1 - t)))
    return _QUADRANT[t]


# (d, part) -> cos or sin(m*pi/d) indexed by m mod 2d; sin x = cos(x - pi/2)
_TRIG: dict[tuple[int, str], list[TrigValue]] = {
    (d, part): [_cos_pi(Fraction(m, d) - (_HALF if part == "im" else 0)) for m in range(2 * d)]
    for d in (1, 2, 3, 4)
    for part in ("re", "im")
}


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
        if not 1 <= self.degree <= MAX_DEGREE:
            raise PointError(f"degree must be in [1, {MAX_DEGREE}]")
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

    def terms(self, length: int) -> list[tuple[int, TrigValue]]:
        """(shift, v) for k = 1..length with 2^(-q*k/2) * trig(k*x) = 2^(-shift) * v.

        trig is cos for the real part and sin for the imaginary part.  An odd
        q*k writes 2^(-q*k/2) as sqrt(2) * 2^(-(q*k+1)/2), which swaps the
        rational and sqrt(2) parts; no sqrt(3) value meets an odd q*k, since
        pi/3 angles need an even scale exponent.
        """
        table = _TRIG[self.ang_den, self.part]
        out = []
        for k in range(1, length + 1):
            tv = table[k * self.ang_num % (2 * self.ang_den)]
            qk = self.scale_exp * k
            if qk % 2:
                out.append(((qk + 1) // 2, TrigValue(2 * tv.root2, tv.rat, _ZERO)))
            else:
                out.append((qk // 2, tv))
        return out

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
    if pt.ang_num == 0:
        base = 1
    else:
        base = 2 * pt.ang_den // gcd(pt.ang_num, 2 * pt.ang_den)
    return base if (pt.scale_exp * base) % 2 == 0 else 2 * base


def li_series_header(pt: LiPoint) -> PHeader:
    """Header of the minimal formula generate() produces for this point."""
    length = period(pt)
    return PHeader(pt.degree, pt.scale_exp * length // 2, length)


def generate(pt: LiPoint, target_len: int) -> PFormula:
    """Exact formula of length target_len for the point, derived from periodicity.

    target_len must be a multiple of period(pt).  Coefficient j is fixed by
    pre * a_j = 2^(-q*j/2) * trig(j*x), read from pt.terms; surviving sqrt(2)
    parts raise IrrationalCarryError, a uniform sqrt(3) factor moves to the
    root3 flag.
    The result is checked against direct summation of the point at 80 bits.
    """
    length = int(target_len)
    per = period(pt)
    if length < 1 or length % per != 0:
        raise PointError(f"target length {length} is not a multiple of the period {per}")
    q = pt.scale_exp
    base_exp = q * length // 2

    rats: list[Fraction] = []
    root3_parts: list[Fraction] = []
    for j, (shift, v) in enumerate(pt.terms(length), 1):
        if v.root2 != 0:
            raise IrrationalCarryError(f"sqrt(2) factor does not cancel at index {j} of {pt}")
        rats.append(v.rat / (1 << shift))
        root3_parts.append(v.root3 / (1 << shift))

    if any(root3_parts):
        if any(rats):
            raise IrrationalCarryError(f"mixed rational and sqrt(3) coefficients for {pt}")
        values = root3_parts
        root3 = True
    else:
        values = rats
        root3 = False

    if not any(values):
        return zero_formula(pt.degree)

    den = 1
    for v in values:
        den = den * v.denominator // gcd(den, v.denominator)
    coeffs = tuple(int(v * den) for v in values)
    formula = canonicalize(
        PFormula(pt.degree, base_exp, length, coeffs, Fraction(1, den), root3)
    )
    _assert_matches_reference(pt, formula)
    return formula


def _assert_matches_reference(pt: LiPoint, formula: PFormula, bits: int = 80) -> None:
    # cheap numerical confirmation that the derived coefficients reproduce the
    # point value; import deferred to avoid a module cycle
    from . import reference

    lhs = evaluate(formula, bits)
    rhs = reference.li_point_value(pt, bits)
    diff = lhs - rhs
    tolerance = diff.error_fraction() + Fraction(1, 1 << (bits - 8))
    if abs(diff.value_fraction()) > tolerance:
        raise AssertionError(f"generated formula disagrees with direct summation for {pt}")
