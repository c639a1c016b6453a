"""The P-notation formula algebra.

A formula ``pre * P(s, 2^B, l, A)`` stands for the exactly convergent series

    pre * sum_{k>=0} 2^(-B*k) * sum_{j=1..l} A[j] / (k*l + j)^s

with integer coefficients ``A``, a rational prefactor ``pre`` and a base that
is always a power of two.  This module covers the tokenizer and grammar
shared by every text form of the package, parsing and serialization of
formulas, the canonical form (coefficient gcd folded into the prefactor,
first nonzero coefficient positive), the two value-preserving structural
transforms (stretch: index dilation; rebase: grouping of consecutive base
blocks), alignment of several formulas onto one common header, rational
linear combination, and the one certified series sum: ``_scaled_sum`` floors
each group of terms of 2^pos * value once at a working precision.  Digit
extraction reads it modulo one at its bit position; evaluation is the same
sum at position 0.

Formulas produced from imaginary parts at angle pi/3 carry an extra sqrt(3)
factor; it is tracked by the ``root3`` flag, kept out of the integer
coefficients, and makes a formula evaluate-only.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import gcd, lcm, log2
from typing import Iterator, NamedTuple, Sequence

from .bigmath import FixReal, fix_sqrt_int, precision_cache

__all__ = [
    "PFormula",
    "PHeader",
    "ParseError",
    "FormulaError",
    "MAX_POWER_BITS",
    "MAX_DEGREE",
    "Scanner",
    "scan_int",
    "scan_rational",
    "scan_p",
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
GROUP_BITS = 384  # a group of terms closes once its modulus is this wide
POW_MIN_EXP = 8 * GROUP_BITS  # below this 2^e, one shift and division beat pow(2, e, m)
MAX_DEGREE = 64  # largest series degree s; the catalog uses 5


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
        if not 1 <= self.degree <= MAX_DEGREE:
            raise FormulaError(f"degree must be in [1, {MAX_DEGREE}]")
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
# text form: the one tokenizer and grammar of the expression language
# ---------------------------------------------------------------------------

MAX_POWER_BITS = 1 << 16  # a literal or a power a^e longer than this many bits is refused
_MAX_LITERAL_DIGITS = int(MAX_POWER_BITS / log2(10))

_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[-+*/^,()\[\]]")
_STRAY = re.compile(r"[^\s0-9A-Za-z_+\-*/^,()\[\]]")


class Scanner:
    """Cursor over the tokens of one text: integers, names and punctuation.

    The text is tokenized up front; the empty token marks its end.  Token
    positions, needed only by error messages, are found when first asked for.
    """

    def __init__(self, text: str):
        stray = _STRAY.search(text)
        if stray:
            raise ParseError(f"unexpected character {stray.group()!r}", stray.start())
        self.text = text
        self.tokens = _TOKEN.findall(text) + [""]
        self.i = 0
        self._starts: list[int] | None = None

    def peek(self) -> str:
        return self.tokens[self.i]

    def next(self) -> str:
        self.i += 1
        return self.tokens[self.i - 1]

    def accept(self, want: str) -> bool:
        if self.tokens[self.i] != want:
            return False
        self.i += 1
        return True

    def expect(self, want: str) -> None:
        if not self.accept(want):
            raise self.fail(f"expected {want!r}")

    def position(self, index: int) -> int:
        """Offset in the text of token ``index``."""
        if self._starts is None:
            self._starts = [m.start() for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        return self._starts[index]

    def fail(self, message: str) -> ParseError:
        tok = self.tokens[self.i]
        return ParseError(f"{message}, found {tok or 'end of input'!r}", self.position(self.i))

    def end(self) -> None:
        if self.peek():
            raise self.fail("expected end of input")

    def unsigned(self, what: str) -> int:
        """One digit token; one with room for more than MAX_POWER_BITS bits
        raises ParseError before it is read."""
        tok = self.tokens[self.i]
        if not tok.isdigit():
            raise self.fail(f"expected {what}")
        if len(tok) > _MAX_LITERAL_DIGITS:
            raise ParseError(f"integer longer than {MAX_POWER_BITS} bits", self.position(self.i))
        self.i += 1
        return int(tok)


def scan_int(sc: Scanner) -> int:
    """``[+-]... n [^ e]`` with unsigned ``e``, the one place where a power is evaluated.

    A literal or a power whose bit length could exceed MAX_POWER_BITS raises
    ParseError before it is computed.
    """
    sign = 1
    while sc.peek() in ("+", "-"):
        if sc.next() == "-":
            sign = -sign
    at = sc.i
    value = sc.unsigned("integer")
    if sc.accept("^"):
        exp = sc.unsigned("an exponent")
        if value > 1 and (exp >= MAX_POWER_BITS or exp * log2(value) >= MAX_POWER_BITS):
            raise ParseError(f"power longer than {MAX_POWER_BITS} bits", sc.position(at))
        value **= exp
    return sign * value


def scan_rational(sc: Scanner) -> Fraction:
    """``int [/ int]``, each side in scan_int's form."""
    num = scan_int(sc)
    if not sc.accept("/"):
        return Fraction(num)
    at = sc.i - 1
    den = scan_int(sc)
    if den == 0:
        raise ParseError("zero denominator", sc.position(at))
    return Fraction(num, den)


def scan_p(sc: Scanner, pre: Fraction = Fraction(1)) -> PFormula:
    """``[rat *]... [sqrt3 *] P(s, 2^B, l, [a1, ..., al])``.

    The rationals before the body multiply into ``pre``, the prefactor.
    """
    while sc.peek() not in ("sqrt3", "P"):
        pre *= scan_rational(sc)
        sc.expect("*")
    root3 = sc.accept("sqrt3")
    if root3:
        sc.expect("*")
    at = sc.i
    sc.expect("P")
    sc.expect("(")
    degree = scan_int(sc)
    sc.expect(",")
    if not sc.accept("2"):
        raise sc.fail("base must be written as 2^B")
    sc.expect("^")
    base_exp = scan_int(sc)
    sc.expect(",")
    length = scan_int(sc)
    sc.expect(",")
    sc.expect("[")
    coeffs = [scan_int(sc)]
    while sc.accept(","):
        coeffs.append(scan_int(sc))
    sc.expect("]")
    sc.expect(")")
    try:
        return PFormula(degree, base_exp, length, tuple(coeffs), pre, root3)
    except FormulaError as exc:
        raise FormulaError(f"{exc} (at position {sc.position(at)})") from None


def parse_p(text: str) -> PFormula:
    """Parse the text form ``[rat *] [sqrt3 *] P(s, 2^B, l, [a1, ..., al])``.

    Integers accept the ``a^e`` power shorthand.  Raises ParseError with a
    position on bad syntax, FormulaError (also with a position) when the
    formula is invalid, e.g. the coefficient count disagrees with the length.
    """
    sc = Scanner(text)
    p = scan_p(sc)
    sc.end()
    return p


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

def _check_precision(p: PFormula, prec_bits: int) -> None:
    if prec_bits < 8:
        raise FormulaError("prec_bits must be at least 8")


def _groups(p: PFormula, num: int, start: int, stop: int) -> Iterator[tuple[int, int, int]]:
    """Blocks start..stop-1 of ``num * P(s, 2^B, l, A)``, summed exactly in groups.

    A group folds consecutive nonzero terms into one fraction n/m, m the
    product of their (k*l + j)^s; the first opens at block start, and each
    closes once m is wider than GROUP_BITS or after the last block.  Yields
    (k, n, m), k the block it closes in; the group adds 2^(-B*k) * n/m to the
    series.  A group whose terms cancel (n == 0) is skipped, one whose moduli
    multiply to 1 is not.
    """
    s, b, l = p.degree, p.base_exp, p.length
    terms = [(j, num * a) for j, a in enumerate(p.coeffs, start=1) if a]
    n, m = 0, 1
    for k in range(start, stop):
        n <<= b
        base = k * l
        for j, c in terms:
            d = (base + j) ** s
            n = n * d + c * m
            m *= d
            if m.bit_length() > GROUP_BITS:
                yield k, n, m
                n, m = 0, 1
    if n:
        yield stop - 1, n, m


def _blocks(p: PFormula, pos: int, work: int) -> int:
    """Blocks after which the tail of 2^pos * value drops below one ulp at 2^-work.

    The tail after block k is below 2^(pos + 1 - B*k) * |pre| * sum|A|, that is
    below one ulp once 2^(B*k) exceeds 2^pos * (|num| * sum|A| << (work + 1)) / den,
    whose bit length is at most pos plus that of the quotient's floor.
    """
    bound = abs(p.pre.numerator) * sum(abs(a) for a in p.coeffs) << (work + 1)
    return -(-(pos + (bound // p.pre.denominator).bit_length()) // p.base_exp)


def _scaled_sum(p: PFormula, pos: int, work: int, start: int, stop: int) -> tuple[int, int]:
    """(acc, groups) over blocks start..stop-1 of 2^pos * value, at 2^-work.

    Each group 2^e * n/m of ``_groups``, e = pos - t - B*k for the prefactor
    num / (2^t * odd), is divided by odd * m and floored once; acc sums the
    floors, unmasked.  From e = POW_MIN_EXP on, 2^e is reduced by
    pow(2, e, odd * m), which moves a floor by a multiple of 2^work only.
    """
    den = p.pre.denominator
    twos = (den & -den).bit_length() - 1
    odd = den >> twos
    b = p.base_exp
    acc = groups = 0
    for k, n, m in _groups(p, p.pre.numerator, start, stop):
        e = pos - twos - b * k
        m *= odd
        if e >= POW_MIN_EXP:
            n, e = n * pow(2, e, m), 0
        shift = e + work
        acc += (n << shift) // m if shift >= 0 else n // (m << -shift)
        groups += 1
    return acc, groups


@precision_cache(check=_check_precision)
def evaluate(p: PFormula, prec_bits: int) -> FixReal:
    """Certified fixed-point value of the formula: the position-0 sum of
    ``_scaled_sum``.

    Works at prec_bits + 64 guard bits and sums base blocks until the tail,
    bounded through the coefficient magnitude sum, drops below one working
    ulp.  Each group of ``_groups`` is floored once and charges one ulp to the
    certified error bound; the dropped tail charges one more.  Raises
    FormulaError below 8 bits.
    """
    work = prec_bits + EVAL_GUARD_BITS
    if p.is_zero():
        return FixReal(0, work, 0)
    acc, groups = _scaled_sum(p, 0, work, 0, _blocks(p, 0, work))
    result = FixReal(acc, work, groups + 1)
    if p.root3:
        result = result.mul(fix_sqrt_int(3, work), work)
    return result
