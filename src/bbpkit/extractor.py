"""Position-addressable digit extraction.

Hex digits of a formula value starting at an arbitrary bit position after the
binary point, without computing the preceding digits.  For a prefactor
``num / (2^t * odd)`` the term ``num * a_j * 2^e / (odd * (k*l + j)^s)`` is
taken modulo one with the modulus ``D = odd * (k*l + j)^s``: head terms
(those with a positive power of two left over, ``e >= 0``) go through builtin
modular exponentiation, a few consecutive terms at a time under the product
of their moduli; tail terms are divided directly until they drop below the
working resolution; both are accumulated modulo one in fixed point.  There is
one path for every prefactor; an odd denominator only widens the moduli.
Everything is done in bits internally; hex is only the presentation layer.
"""
from __future__ import annotations

from dataclasses import dataclass

from .pformula import FormulaError, PFormula, evaluate

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
GROUP_BITS = 384  # modulus width at which a group of head terms is reduced


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
    takes every other prefactor directly (perfbench/tracing.py wraps this by name)."""
    if p.root3:
        raise ExtractionError("sqrt(3)-carrying formulas are evaluate-only")
    return p


def extract(req: ExtractRequest) -> ExtractResult:
    """Hex digits of frac(2^bit_pos * |value|), with a carry-distance certificate.

    The digits always describe the magnitude; the sign of the value is
    certified by evaluation.  Each summed term charges one ulp to the error
    budget, plus two for the dropped tail and the sign flip.  Raises
    ConfidenceError when the accumulator lands within that budget of a carry
    boundary, or when the sign stays unresolved at bit_pos + 4*(hex_digits +
    guard_hex) + 64 bits; the sign is never guessed.
    """
    p = req.formula
    if p.root3:
        raise ExtractionError("sqrt(3)-carrying formulas are evaluate-only")
    if p.is_zero():
        return ExtractResult("0" * req.hex_digits, 4 * req.guard_hex)
    work = 4 * (req.hex_digits + req.guard_hex)
    mask = (1 << work) - 1
    den = p.pre.denominator
    twos = (den & -den).bit_length() - 1
    odd = den >> twos
    num = p.pre.numerator  # signed: the accumulator tracks frac(2^pos * value)
    pos = req.bit_pos - twos
    s, b, l = p.degree, p.base_exp, p.length
    terms = [(j, num * a) for j, a in enumerate(p.coeffs, start=1) if a]
    coeff_sum = sum(abs(c) for _, c in terms)

    # head blocks (e >= 0): consecutive terms are summed exactly into one
    # fraction n/m (m the product of their moduli D, n scaled to the current
    # block's 2^e) until m is GROUP_BITS wide, and one pow reduces the group:
    # frac(n * 2^e / m) = frac(n * pow(2, e, m) / m), whose integer part falls
    # out of the mask.  A pow on one wide modulus costs far less than several
    # on narrow ones.
    head_blocks = max(pos // b + 1, 0)
    acc, n, m = 0, 0, 1
    for k in range(head_blocks):
        e = pos - b * k
        base = k * l
        n <<= b
        for j, c in terms:
            d = odd * (base + j) ** s
            n = n * d + c * m
            m *= d
            if m.bit_length() > GROUP_BITS:
                acc += (n * pow(2, e, m) << work) // m
                n, m = 0, 1
        acc &= mask
    if m > 1:  # the last group, at the last head block's e
        acc = (acc + ((n * pow(2, e, m) << work) // m)) & mask
    # tail blocks (e < 0) until their sum, below coeff_sum * 2^(e+1), drops under half an ulp
    k = head_blocks
    while coeff_sum.bit_length() + work + pos - b * k + 2 > 0:
        wpe = work + pos - b * k
        base = k * l
        for j, c in terms:
            d = odd * (base + j) ** s
            acc += (c << wpe) // d if wpe >= 0 else c // (d << -wpe)
        acc &= mask
        k += 1
    # one ulp per term (a group's single floor costs less), the dropped tail, the sign flip
    err = k * len(terms) + 2

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
