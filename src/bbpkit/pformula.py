"""The P-notation formula algebra.

A formula ``pre * P(s, 2^B, l, A)`` stands for the exactly convergent series

    pre * sum_{k>=0} 2^(-B*k) * sum_{j=1..l} A[j] / (k*l + j)^s

with integer coefficients ``A``, a rational prefactor ``pre`` and a base that
is always a power of two.  This module covers parsing and serialization of
the text form, the canonical form (coefficient gcd folded into the prefactor,
first nonzero coefficient positive), the two value-preserving structural
transforms (stretch: index dilation; rebase: grouping of consecutive base
blocks), alignment of several formulas onto one common header, rational
linear combination, and certified fixed-point evaluation.

Formulas produced from imaginary parts at angle pi/3 carry an extra sqrt(3)
factor; it is tracked by the ``root3`` flag, kept out of the integer
coefficients, and makes a formula evaluate-only.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .bigmath import FixReal, fix_sqrt_int, tdiv

__all__ = [
    "PFormula",
    "PHeader",
    "ParseError",
    "FormulaError",
    "parse_p",
    "serialize_p",
    "canonicalize",
    "stretch",
    "rebase",
    "align",
    "combine",
    "evaluate",
    "zero_formula",
]

EVAL_GUARD_BITS = 64


class ParseError(ValueError):
    """Syntax error in P-formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class FormulaError(ValueError):
    pass


class PHeader(NamedTuple):
    degree: int
    base_exp: int
    length: int


@dataclass(frozen=True, slots=True)
class PFormula:
    """pre * P(degree, 2^base_exp, length, coeffs), optionally times sqrt(3)."""

    degree: int
    base_exp: int
    length: int
    coeffs: tuple[int, ...]
    pre: Fraction = field(default=Fraction(1))
    root3: bool = False

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise FormulaError("degree must be positive")
        if self.base_exp < 1:
            raise FormulaError("base exponent must be positive")
        if self.length < 1:
            raise FormulaError("length must be positive")
        if len(self.coeffs) != self.length:
            raise FormulaError(
                f"coefficient count {len(self.coeffs)} does not match length {self.length}"
            )

    @property
    def header(self) -> PHeader:
        return PHeader(self.degree, self.base_exp, self.length)

    def is_zero(self) -> bool:
        return self.pre == 0 or all(a == 0 for a in self.coeffs)

    def __str__(self) -> str:
        return serialize_p(self)


def zero_formula(degree: int) -> PFormula:
    return PFormula(degree, 1, 1, (0,), Fraction(0))


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(sqrt3|\d+|[-+*/,()\[\]^]|P)")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def next(self) -> tuple[str, int]:
        m = _TOKEN.match(self.text, self.pos)
        if not m:
            if self.text[self.pos :].strip() == "":
                return "", len(self.text)
            raise ParseError("unexpected character", self.pos)
        self.pos = m.end()
        return m.group(1), m.start(1)

    def peek(self) -> str:
        save = self.pos
        tok, _ = self.next()
        self.pos = save
        return tok

    def expect(self, want: str) -> None:
        tok, at = self.next()
        if tok != want:
            raise ParseError(f"expected {want!r}, found {tok!r}", at)


def _scan_int(sc: _Scanner) -> int:
    tok, at = sc.next()
    sign = 1
    while tok in ("-", "+"):
        if tok == "-":
            sign = -sign
        tok, at = sc.next()
    if not tok.isdigit():
        raise ParseError("expected integer", at)
    value = int(tok)
    if sc.peek() == "^":
        sc.expect("^")
        exp = _scan_int(sc)
        if exp < 0:
            raise ParseError("negative exponent", at)
        value = value**exp
    return sign * value


def _scan_rational(sc: _Scanner) -> Fraction:
    num = _scan_int(sc)
    if sc.peek() == "/":
        _, at = sc.next()
        den = _scan_int(sc)
        if den == 0:
            raise ParseError("zero denominator", at)
        return Fraction(num, den)
    return Fraction(num)


def parse_p(text: str) -> PFormula:
    """Parse the text form ``[rat *] [sqrt3 *] P(s, 2^B, l, [a1, ..., al])``.

    Rationals accept ``2^e`` exponent shorthand in numerator or denominator.
    Raises ParseError with a position on bad syntax, FormulaError when the
    coefficient count disagrees with the stated length.
    """
    sc = _Scanner(text)
    pre = Fraction(1)
    root3 = False
    if sc.peek() != "P":
        if sc.peek() != "sqrt3":
            pre = _scan_rational(sc)
            sc.expect("*")
        if sc.peek() == "sqrt3":
            sc.next()
            root3 = True
            sc.expect("*")
    sc.expect("P")
    sc.expect("(")
    degree = _scan_int(sc)
    sc.expect(",")
    tok, at = sc.next()
    if tok != "2":
        raise ParseError("base must be written as 2^B", at)
    sc.expect("^")
    base_exp = _scan_int(sc)
    if base_exp <= 0:
        raise FormulaError("base exponent must be positive")
    sc.expect(",")
    length = _scan_int(sc)
    sc.expect(",")
    sc.expect("[")
    coeffs = [_scan_int(sc)]
    while sc.peek() == ",":
        sc.next()
        coeffs.append(_scan_int(sc))
    sc.expect("]")
    sc.expect(")")
    tok, at = sc.next()
    if tok:
        raise ParseError("trailing input", at)
    if len(coeffs) != length:
        raise FormulaError(f"length is {length} but {len(coeffs)} coefficients given")
    return PFormula(degree, base_exp, length, tuple(coeffs), pre, root3)


def serialize_p(p: PFormula) -> str:
    """Canonical rendering; emits the prefactor unless it is 1."""
    body = f"P({p.degree}, 2^{p.base_exp}, {p.length}, [{', '.join(str(a) for a in p.coeffs)}])"
    parts = []
    if p.pre != 1:
        parts.append(str(p.pre))
    if p.root3:
        parts.append("sqrt3")
    parts.append(body)
    return " * ".join(parts)


# ---------------------------------------------------------------------------
# canonical form and structural transforms
# ---------------------------------------------------------------------------

def canonicalize(p: PFormula) -> PFormula:
    """Equal-value form with coefficient gcd 1 and first nonzero coefficient positive."""
    if p.is_zero():
        return zero_formula(p.degree)
    g = reduce(gcd, (abs(a) for a in p.coeffs if a), 0)
    first = next(a for a in p.coeffs if a)
    sign = -1 if first < 0 else 1
    if g == 1 and sign == 1:
        return p
    coeffs = tuple(a // (sign * g) for a in p.coeffs)
    return PFormula(p.degree, p.base_exp, p.length, coeffs, p.pre * sign * g, p.root3)


def stretch(p: PFormula, t: int) -> PFormula:
    """Dilate indices by t: length t*l, entries at multiples of t, prefactor * t^degree."""
    if t < 1:
        raise FormulaError("stretch factor must be positive")
    if t == 1 or p.is_zero():
        return p
    coeffs = [0] * (t * p.length)
    for j, a in enumerate(p.coeffs, start=1):
        coeffs[t * j - 1] = a
    return PFormula(
        p.degree, p.base_exp, t * p.length, tuple(coeffs), p.pre * t**p.degree, p.root3
    )


def rebase(p: PFormula, m: int) -> PFormula:
    """Group m consecutive base blocks: base exponent m*B, length m*l, equal value."""
    if m < 1:
        raise FormulaError("rebase factor must be positive")
    if m == 1 or p.is_zero():
        return p
    coeffs = []
    for t in range(m):
        scale = 1 << (p.base_exp * (m - 1 - t))
        coeffs.extend(a * scale for a in p.coeffs)
    pre = p.pre / (1 << (p.base_exp * (m - 1)))
    return PFormula(p.degree, m * p.base_exp, m * p.length, tuple(coeffs), pre, p.root3)


def align(ps: Sequence[PFormula]) -> list[PFormula]:
    """Bring all formulas onto the minimal common header, preserving values.

    The common base exponent is the lcm of the inputs' base exponents (reached
    by rebase); the common length is then the lcm of the rebased lengths
    (reached by stretch).
    """
    if not ps:
        return []
    degrees = {p.degree for p in ps}
    if len(degrees) != 1:
        raise FormulaError(f"degree mismatch: {sorted(degrees)}")
    nonzero = [p for p in ps if not p.is_zero()]
    if not nonzero:
        return list(ps)
    common_b = lcm(*(p.base_exp for p in nonzero))
    rebased = [p if p.is_zero() else rebase(p, common_b // p.base_exp) for p in ps]
    common_l = lcm(*(p.length for p in rebased if not p.is_zero()))
    return [p if p.is_zero() else stretch(p, common_l // p.length) for p in rebased]


def combine(terms: Sequence[tuple[Fraction, PFormula]]) -> PFormula:
    """Rational linear combination folded into a single canonical formula.

    Aligns all terms onto a common header, scales every coefficient vector by
    its term weight over a common denominator, sums entrywise, and
    canonicalizes.  Odd prime factors of the common denominator are folded
    out only when they divide the coefficient gcd; otherwise they stay in the
    prefactor.
    """
    if not terms:
        raise FormulaError("empty combination")
    roots = {p.root3 for _, p in terms if not p.is_zero()}
    if len(roots) > 1:
        raise FormulaError("cannot combine sqrt(3)-carrying and plain formulas")
    aligned = align([p for _, p in terms])
    live = [(c, p) for (c, _), p in zip(terms, aligned) if c != 0 and not p.is_zero()]
    if not live:
        return zero_formula(terms[0][1].degree)
    weights = [c * p.pre for c, p in live]
    den = lcm(*(w.denominator for w in weights))
    header = live[0][1].header
    total = [0] * header.length
    for (c, p), w in zip(live, weights):
        mult = w.numerator * (den // w.denominator)
        for idx, a in enumerate(p.coeffs):
            total[idx] += mult * a
    out = PFormula(
        header.degree,
        header.base_exp,
        header.length,
        tuple(total),
        Fraction(1, den),
        live[0][1].root3,
    )
    return canonicalize(out)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def evaluate(p: PFormula, prec_bits: int) -> FixReal:
    """Certified fixed-point value of the formula.

    Works at prec_bits + 64 guard bits; the outer sum over base blocks stops
    once the remaining tail, bounded through the coefficient magnitude sum,
    drops below one working ulp.  Every truncated division charges one ulp to
    the certified error bound.
    """
    if prec_bits < 8:
        raise FormulaError("prec_bits must be at least 8")
    work = prec_bits + EVAL_GUARD_BITS
    if p.is_zero():
        return FixReal(0, work, 0)
    num = p.pre.numerator
    den = p.pre.denominator
    entries = [(j, a) for j, a in enumerate(p.coeffs, start=1) if a]
    coeff_sum = sum(abs(a) for _, a in entries)
    # tail after block k is below |pre| * coeff_sum * 2^(1 - B*k)
    tail_num = abs(num) * coeff_sum << (work + 1)
    acc = 0
    err = 0
    k = 0
    while tail_num > den << (p.base_exp * k):
        shift = work - p.base_exp * k
        block = 0
        base = k * p.length
        for j, a in entries:
            d = den * (base + j) ** p.degree
            if shift >= 0:
                block += tdiv(num * a << shift, d)
            else:
                block += tdiv(num * a, d << -shift)
            err += 1
        acc += block
        k += 1
    err += 1  # dropped tail
    result = FixReal(acc, work, err)
    if p.root3:
        result = result.mul(fix_sqrt_int(3, work), work)
    return result
