"""Position-addressable digit extraction.

Hex digits of a formula value starting at an arbitrary bit position after the
binary point, without computing the preceding digits.  For a prefactor
``num / (2^t * odd)`` the series is summed in the groups ``2^e * n / m`` of
``pformula._groups``, shared with ``evaluate``, and each group is taken
modulo one once under the modulus ``odd * m``: by builtin ``pow(2, e, odd *
m)`` when ``e >= POW_MIN_EXP``, else by one shift and division, down to the
working resolution.  There is one path for every prefactor; an odd
denominator only widens the moduli.  Everything is done in bits internally;
hex is only the presentation layer.
"""
from __future__ import annotations

from dataclasses import dataclass

from .pformula import GROUP_BITS, FormulaError, PFormula, _groups, evaluate

__all__ = [
    "ExtractRequest",
    "ExtractResult",
    "ExtractionError",
    "ConfidenceError",
    "extract",
    "digit_window",
    "MAX_BIT_POS",
    "MAX_HEX_DIGITS",
    "MAX_GUARD_HEX",
]

# Request limits: ExtractRequest refuses a deeper position or a wider window.
MAX_BIT_POS = 10**8
MAX_HEX_DIGITS = 1024
MAX_GUARD_HEX = 64

SIGN_PROBE_BITS = 64
POW_MIN_EXP = 8 * GROUP_BITS  # below this 2^e, one shift and division beat pow(2, e, m)


class ExtractionError(ValueError):
    pass


class ConfidenceError(ExtractionError):
    """Result too close to a carry boundary; retry with a larger guard."""


@dataclass(frozen=True, slots=True)
class ExtractRequest:
    formula: PFormula
    bit_pos: int
    hex_digits: int
    guard_hex: int = 8

    def __post_init__(self) -> None:
        if not 0 <= self.bit_pos <= MAX_BIT_POS:
            raise ExtractionError(f"bit position must be in [0, {MAX_BIT_POS}]")
        if not 1 <= self.hex_digits <= MAX_HEX_DIGITS:
            raise ExtractionError(f"hex digit count must be in [1, {MAX_HEX_DIGITS}]")
        if not 1 <= self.guard_hex <= MAX_GUARD_HEX:
            raise ExtractionError(f"guard must be in [1, {MAX_GUARD_HEX}] hex digits")


@dataclass(frozen=True, slots=True)
class ExtractResult:
    digits: str
    confidence_bits: int


def to_extractable(p: PFormula) -> PFormula:
    """The formula itself, after refusing sqrt(3)-carrying ones; ``extract``
    takes every other prefactor directly."""
    if p.root3:
        raise ExtractionError("sqrt(3)-carrying formulas are evaluate-only")
    return p


def extract(req: ExtractRequest) -> ExtractResult:
    """Hex digits of frac(2^bit_pos * |value|), with a carry-distance certificate.

    The digits always describe the magnitude; the sign of the value is
    certified by evaluation.  Each group of terms is floored once and charges
    one ulp to the error budget, plus two for the dropped tail and the sign
    flip.  Raises ConfidenceError when the accumulator lands within that
    budget of a carry boundary, or when the sign stays unresolved at
    bit_pos + 4*(hex_digits + guard_hex) + 64 bits; the sign is never guessed.
    """
    p = to_extractable(req.formula)
    if p.is_zero():
        return ExtractResult("0" * req.hex_digits, 4 * req.guard_hex)
    work = 4 * (req.hex_digits + req.guard_hex)
    mask = (1 << work) - 1
    den = p.pre.denominator
    twos = (den & -den).bit_length() - 1
    odd = den >> twos
    num = p.pre.numerator  # signed: the accumulator tracks frac(2^pos * value)
    pos = req.bit_pos - twos
    b = p.base_exp
    coeff_sum = abs(num) * sum(abs(a) for a in p.coeffs)
    # blocks k with pos - b*k + work + coeff_sum's bits + 2 > 0: the head (e >= 0)
    # and the tail until its sum, below coeff_sum * 2^(e+1), drops under half an ulp
    blocks = max(-(-(coeff_sum.bit_length() + work + pos + 2) // b), 0)
    # a group adds frac(2^e * n / (odd * m)); n * 2^e and n * pow(2, e, m) differ
    # by a multiple of m, so their floors after << work differ by a multiple of
    # 2^work, which the mask drops
    acc = 0
    err = 2  # the dropped tail and the sign flip
    for k, n, m in _groups(p, num, blocks):
        e = pos - b * k
        m *= odd
        if e >= POW_MIN_EXP:
            n, e = n * pow(2, e, m), 0
        shift = e + work
        acc = (acc + ((n << shift) // m if shift >= 0 else n // (m << -shift))) & mask
        err += 1

    tail_bits = 4 * req.guard_hex
    low = acc & ((1 << tail_bits) - 1)
    margin = min(low, (1 << tail_bits) - low) - err  # negation keeps the distance
    if margin <= 0:
        raise ConfidenceError(
            f"accumulator within {err} ulps of a carry boundary; "
            f"retry with guard_hex > {req.guard_hex}"
        )
    # a certified margin puts |2^pos * value| at least one ulp from zero, so
    # doubling the probe precision up to that ulp plus 64 bits finds the sign
    limit = req.bit_pos + work + SIGN_PROBE_BITS
    bits = SIGN_PROBE_BITS
    sign = evaluate(p, bits).certified_sign()
    while sign == 0 and bits < limit:
        bits = min(2 * bits, limit)
        sign = evaluate(p, bits).certified_sign()
    if sign == 0:
        raise ConfidenceError("sign of the value unresolved; it is too small to extract")
    if sign < 0:
        acc = -acc & mask
    digits = f"{acc >> tail_bits:0{req.hex_digits}X}"
    return ExtractResult(digits, margin.bit_length())


def digit_window(formula: PFormula, bit_pos: int, count: int, prec_bits: int) -> str:
    """Evaluator-backed oracle: hex digits of the value in [bit_pos, bit_pos+4*count).

    Requires prec_bits >= bit_pos + 4*count + 64 so the window is meaningful.
    """
    if prec_bits < bit_pos + 4 * count + 64:
        raise FormulaError("insufficient precision for the requested window")
    value = evaluate(formula, prec_bits)
    # the 64-bit evaluation guard must dominate the certified error by a wide margin
    slack = value.frac_bits - (bit_pos + 4 * count)
    if value.err_ulp >> max(slack - 8, 0):
        raise FormulaError("evaluation error too large for the requested window")
    return value.hex_frac_window(bit_pos, count)
