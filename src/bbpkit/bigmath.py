"""Exact big-integer, big-rational and fixed-point real arithmetic.

Rationals are plain ``fractions.Fraction`` values.
Fixed-point reals carry an integer mantissa, a binary scale and a certified
error bound in units of the last place; every operation propagates that bound
soundly (the bound may grow, it never understates).  All values are immutable
and all operations pure, so everything here can be shared freely across
threads.

Rounding is truncation toward zero throughout, with the truncation charged to
the error bound.  ``precision_cache`` memoizes a function of a key and a
precision, serving lower precisions from the highest one computed.
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from math import isqrt
from typing import Callable, Hashable, NamedTuple

__all__ = [
    "FixReal",
    "powmod",
    "tdiv",
    "ceil_div",
    "truncated_decimal",
    "precision_cache",
    "CACHE_KEYS",
]


def tdiv(a: int, b: int) -> int:
    """Quotient of a/b truncated toward zero."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a/b for positive b."""
    return -((-a) // b)


def truncated_decimal(num: int, den: int, digits: int) -> str:
    """num/den (den > 0) truncated toward zero at ``digits`` fractional digits.

    A value that truncates to zero prints without a sign.
    """
    scaled = abs(num) * 10**digits // den
    ip, fp = divmod(scaled, 10**digits)
    sign = "-" if num < 0 and scaled else ""
    return f"{sign}{ip}.{fp:0{digits}d}"


def powmod(base: int, exp: int, modulus: int) -> int:
    """base**exp mod modulus, by builtin three-argument ``pow``.

    Hot loops call ``pow`` directly; this wrapper only adds argument checks.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if exp < 0:
        raise ValueError("exponent must be non-negative")
    return pow(base, exp, modulus)


@dataclass(frozen=True, slots=True)
class FixReal:
    """Fixed-point real: ``mantissa * 2**-frac_bits`` with a certified error.

    The true value represented lies within ``err_ulp * 2**-frac_bits`` of the
    stored value.  Mantissas may be negative; the fractional part of a value
    is defined as ``value - floor(value)``.
    """

    mantissa: int
    frac_bits: int
    err_ulp: int = 0

    def __post_init__(self) -> None:
        if self.frac_bits < 0:
            raise ValueError("frac_bits must be non-negative")
        if self.err_ulp < 0:
            raise ValueError("err_ulp must be non-negative")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, n: int, frac_bits: int = 0) -> "FixReal":
        return cls(n << frac_bits, frac_bits, 0)

    @classmethod
    def from_fraction(cls, value: Fraction, frac_bits: int) -> "FixReal":
        num = value.numerator << frac_bits
        m = tdiv(num, value.denominator)
        err = 0 if m * value.denominator == num else 1
        return cls(m, frac_bits, err)

    @classmethod
    def zero(cls, frac_bits: int = 0) -> "FixReal":
        return cls(0, frac_bits, 0)

    # -- exact views ---------------------------------------------------

    def value_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 1 << self.frac_bits)

    def error_fraction(self) -> Fraction:
        return Fraction(self.err_ulp, 1 << self.frac_bits)

    # -- arithmetic ----------------------------------------------------

    def _aligned(self, frac_bits: int) -> "FixReal":
        shift = frac_bits - self.frac_bits
        if shift < 0:
            raise ValueError("alignment may only increase frac_bits")
        return FixReal(self.mantissa << shift, frac_bits, self.err_ulp << shift)

    def __neg__(self) -> "FixReal":
        return FixReal(-self.mantissa, self.frac_bits, self.err_ulp)

    def __add__(self, other: "FixReal") -> "FixReal":
        if not isinstance(other, FixReal):
            return NotImplemented
        f = max(self.frac_bits, other.frac_bits)
        a = self._aligned(f)
        b = other._aligned(f)
        return FixReal(a.mantissa + b.mantissa, f, a.err_ulp + b.err_ulp)

    def __sub__(self, other: "FixReal") -> "FixReal":
        return self + (-other)

    def mul(self, other: "FixReal", out_bits: int) -> "FixReal":
        """Product truncated toward zero at ``out_bits`` fractional bits."""
        if out_bits < 1:
            raise ValueError("out_bits must be at least 1")
        prod = self.mantissa * other.mantissa
        err = (
            abs(self.mantissa) * other.err_ulp
            + abs(other.mantissa) * self.err_ulp
            + self.err_ulp * other.err_ulp
        )
        return FixReal(prod, self.frac_bits + other.frac_bits, err).rescale(out_bits)

    def scale_rat(self, ratio: Fraction, out_bits: int | None = None) -> "FixReal":
        """Multiply by an exact rational, truncating toward zero."""
        if out_bits is None:
            out_bits = self.frac_bits
        num = self.mantissa * ratio.numerator << out_bits
        den = ratio.denominator << self.frac_bits
        m = tdiv(num, den)
        exact = m * den == num
        err_num = self.err_ulp * abs(ratio.numerator) << out_bits
        err = ceil_div(err_num, den) + (0 if exact else 1)
        return FixReal(m, out_bits, err)

    def rescale(self, out_bits: int) -> "FixReal":
        shift = self.frac_bits - out_bits
        if shift <= 0:
            return self._aligned(out_bits)
        m = tdiv(self.mantissa, 1 << shift)
        exact = (m << shift) == self.mantissa
        return FixReal(m, out_bits, ceil_div(self.err_ulp, 1 << shift) + (0 if exact else 1))

    def __abs__(self) -> "FixReal":
        return FixReal(abs(self.mantissa), self.frac_bits, self.err_ulp)

    # -- certified queries ----------------------------------------------

    def magnitude_bound(self) -> Fraction:
        """Certified upper bound on |true value|."""
        return Fraction(abs(self.mantissa) + self.err_ulp, 1 << self.frac_bits)

    def certified_below(self, threshold: Fraction) -> bool:
        """True when |true value| < threshold is guaranteed."""
        return self.magnitude_bound() < threshold

    def certified_sign(self) -> int:
        """Sign of the true value, or 0 when the error interval straddles zero."""
        if abs(self.mantissa) <= self.err_ulp:
            return 0
        return 1 if self.mantissa > 0 else -1

    # -- rendering -------------------------------------------------------

    def decimal(self, digits: int) -> str | None:
        """The true value truncated toward zero at ``digits`` fractional digits,
        or None when the two ends of the error interval truncate differently."""
        lo, hi = (truncated_decimal(self.mantissa + e, 1 << self.frac_bits, digits)
                  for e in (-self.err_ulp, self.err_ulp))
        return lo if lo == hi else None

    def hex_frac_window(self, bit_pos: int, hex_count: int) -> str:
        """Hex digits of frac(2**bit_pos * |value|) in [bit_pos, bit_pos+4*hex_count).

        The caller is responsible for checking that frac_bits and err_ulp
        leave the window meaningful.
        """
        drop = self.frac_bits - bit_pos - 4 * hex_count
        if drop < 0:
            raise ValueError("not enough fractional bits for requested window")
        window = (abs(self.mantissa) >> drop) & ((1 << (4 * hex_count)) - 1)
        return f"{window:0{hex_count}X}"


CACHE_KEYS = 256  # keys each precision_cache keeps; the least recently used goes first


class CacheInfo(NamedTuple):
    hits: int
    misses: int


def precision_cache(check: Callable[[Hashable, int], None] | None = None):
    """Decorate ``fn(key, prec_bits) -> FixReal`` with one cache entry per key.

    The entry holds the value at the highest precision computed so far.  A
    request at or below it is served by ``rescale`` to the fraction bits a
    fresh call returns (fn must return ``prec_bits`` plus a key-dependent
    number of guard bits), which charges the truncation to the error bound; a
    higher request computes and replaces the entry.  ``check(key, prec_bits)``
    runs before every lookup.  Exceptions are not cached, an entry is never
    replaced by a lower precision, and ``cache_info()`` returns a snapshot of
    the hit and miss counts.
    """
    def decorate(fn: Callable[[Hashable, int], FixReal]) -> Callable[[Hashable, int], FixReal]:
        table: OrderedDict[Hashable, tuple[int, FixReal]] = OrderedDict()
        lock = threading.Lock()
        counts = [0, 0]  # hits, misses

        @wraps(fn)
        def cached(key: Hashable, prec_bits: int) -> FixReal:
            if check is not None:
                check(key, prec_bits)
            with lock:
                entry = table.get(key)
                if entry is not None and entry[0] >= prec_bits:
                    table.move_to_end(key)
                    counts[0] += 1
                    stored, value = entry
                    return value.rescale(value.frac_bits - stored + prec_bits)
                counts[1] += 1
            value = fn(key, prec_bits)
            with lock:
                entry = table.get(key)
                if entry is None or entry[0] < prec_bits:
                    table[key] = (prec_bits, value)
                    table.move_to_end(key)
                    if len(table) > CACHE_KEYS:
                        table.popitem(last=False)
            return value

        def cache_info() -> CacheInfo:
            with lock:
                return CacheInfo(*counts)

        cached.cache_info = cache_info
        return cached
    return decorate


def fix_sqrt_int(n: int, frac_bits: int) -> FixReal:
    """sqrt(n) for a non-negative integer n, truncated at frac_bits."""
    if n < 0:
        raise ValueError("negative operand")
    m = isqrt(n << (2 * frac_bits))
    return FixReal(m, frac_bits, 1)
