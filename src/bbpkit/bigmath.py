"""Exact big-integer, big-rational and fixed-point real arithmetic.

Rationals are plain ``fractions.Fraction`` values.
Fixed-point reals (``FixReal``) are tuple-backed immutable values of an
integer mantissa, a binary scale and a certified error bound in units of the
last place; every operation propagates that bound soundly (the bound may
grow, it never understates) and builds exactly one result.  All values are
immutable and all operations pure, so everything here can be shared freely
across threads.

Rounding is one rule with one owner, the private ``_truncated``: truncate
toward zero, round the error bound up, and add one ulp when any bit was
dropped.  ``mul``, ``scale_rat`` and ``rescale`` each reach their result
through it, and a rational is ``from_int(1).scale_rat``; it alone refuses a
negative width, and it shifts by powers of two and divides by a rational's
denominator alone.  A certified value asked for at ``prec_bits`` comes back
at exactly ``prec_bits + GUARD_BITS`` fraction bits, and a nested call
passes its own ``prec_bits`` down, so guards never stack.
``precision_cache`` memoizes a function of a key and a precision under that
contract, serving lower precisions from the highest one computed.
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from fractions import Fraction
from functools import wraps
from math import gcd, isqrt
from typing import Callable, Hashable, NamedTuple, Sequence

__all__ = [
    "FixReal",
    "powmod",
    "tdiv",
    "ceil_div",
    "primitive",
    "truncated_decimal",
    "precision_cache",
    "CACHE_KEYS",
    "GUARD_BITS",
]


def tdiv(a: int, b: int) -> int:
    """Quotient of a/b truncated toward zero."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a/b for positive b."""
    return -((-a) // b)


def primitive(values: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(g, w) with values == g * w, gcd(w) == 1 and w's first nonzero entry
    positive; g is the gcd of values (one must be nonzero), signed like it."""
    g = gcd(*values)
    if next(a for a in values if a) < 0:
        g = -g
    return g, tuple(a // g for a in values)


def truncated_decimal(num: int, den: int, digits: int, frac_bits: int = 0) -> str:
    """num / (den * 2^frac_bits) (den > 0) truncated toward zero at ``digits``
    fractional digits; the power of two is divided out by a shift.

    A value that truncates to zero prints without a sign.
    """
    scaled = (abs(num) * 10**digits >> frac_bits) // den
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


class _Fields(NamedTuple):
    mantissa: int
    frac_bits: int
    err_ulp: int = 0


def _refuse(self, other):
    raise TypeError(f"unsupported operator for FixReal and {type(other).__name__!r}")


_build = tuple.__new__  # one FixReal from a (mantissa, frac_bits, err_ulp) the caller checked


class FixReal(_Fields):
    """Fixed-point real: ``mantissa * 2**-frac_bits`` with a certified error.

    The true value represented lies within ``err_ulp * 2**-frac_bits`` of the
    stored value.  Mantissas may be negative; the fractional part of a value
    is defined as ``value - floor(value)``.

    A tuple-backed immutable value: equality, hash and repr are by value, and
    each operation builds exactly one result.  The tuple operators are
    blocked, so ordering, ``*`` and concatenation raise TypeError.
    """

    __slots__ = ()

    def __new__(cls, mantissa: int, frac_bits: int, err_ulp: int = 0) -> "FixReal":
        if frac_bits < 0:
            raise ValueError("frac_bits must be non-negative")
        if err_ulp < 0:
            raise ValueError("err_ulp must be non-negative")
        return _build(cls, (mantissa, frac_bits, err_ulp))

    def __eq__(self, other: object) -> bool:
        return type(other) is FixReal and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = __mul__ = __rmul__ = __radd__ = _refuse

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, n: int, frac_bits: int = 0) -> "FixReal":
        return cls(n << frac_bits, frac_bits, 0)

    @classmethod
    def zero(cls, frac_bits: int = 0) -> "FixReal":
        return cls(0, frac_bits, 0)

    # -- exact views ---------------------------------------------------

    def value_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 1 << self.frac_bits)

    def error_fraction(self) -> Fraction:
        return Fraction(self.err_ulp, 1 << self.frac_bits)

    # -- arithmetic ----------------------------------------------------
    #
    # Addition, subtraction and negation are exact; every step that can
    # drop bits goes through ``_truncated``.

    def __neg__(self) -> "FixReal":
        m, f, e = self
        return _build(FixReal, (-m, f, e))

    def __add__(self, other: "FixReal") -> "FixReal":
        if type(other) is not FixReal:
            return NotImplemented
        m, f, e = self
        m2, f2, e2 = other
        if f < f2:
            return _build(FixReal, ((m << (f2 - f)) + m2, f2, (e << (f2 - f)) + e2))
        return _build(FixReal, (m + (m2 << (f - f2)), f, e + (e2 << (f - f2))))

    def __sub__(self, other: "FixReal") -> "FixReal":
        if type(other) is not FixReal:
            return NotImplemented
        return self + -other

    def mul(self, other: "FixReal", out_bits: int) -> "FixReal":
        """Product truncated toward zero at ``out_bits`` fractional bits."""
        m, f, e = self
        m2, f2, e2 = other
        err = abs(m) * e2 + abs(m2) * e + e * e2
        return _truncated(m * m2, f + f2 - out_bits, out_bits, err)

    def scale_rat(self, ratio: Fraction, out_bits: int) -> "FixReal":
        """Multiply by an exact rational, truncating toward zero at ``out_bits``."""
        m, f, e = self
        num = ratio.numerator
        return _truncated(m * num, f - out_bits, out_bits, e * abs(num), ratio.denominator)

    def rescale(self, out_bits: int) -> "FixReal":
        """The value at ``out_bits`` fractional bits, by shifts only."""
        m, f, e = self
        return self if f == out_bits else _truncated(m, f - out_bits, out_bits, e)

    # -- certified queries ----------------------------------------------

    def magnitude_bound(self) -> Fraction:
        """Certified upper bound on |true value|."""
        return Fraction(abs(self.mantissa) + self.err_ulp, 1 << self.frac_bits)

    def certified_below(self, threshold: Fraction) -> bool:
        """True when |true value| < threshold is guaranteed: the magnitude
        bound against the threshold, compared in integers."""
        m, f, e = self
        return (abs(m) + e) * threshold.denominator < threshold.numerator << f

    def certified_sign(self) -> int:
        """Sign of the true value, or 0 when the error interval straddles zero."""
        if abs(self.mantissa) <= self.err_ulp:
            return 0
        return 1 if self.mantissa > 0 else -1

    # -- rendering -------------------------------------------------------

    def decimal(self, digits: int) -> str | None:
        """The true value truncated toward zero at ``digits`` fractional digits,
        or None when the two ends of the error interval truncate differently."""
        m, f, e = self
        lo, hi = (truncated_decimal(m + d, 1, digits, f) for d in (-e, e))
        return lo if lo == hi else None


def _truncated(m: int, shift: int, out_bits: int, err: int, den: int = 1) -> FixReal:
    """m / (den * 2^(out_bits + shift)), with error err in units of
    2^-(out_bits + shift), as one FixReal at out_bits: the one rounding rule.

    |m| is shifted to out_bits first, keeping the bits a right shift drops
    for the exactness test, and then divided by den alone:
    floor(floor(x / 2^s) / q) = floor(x / (q * 2^s)).  The result takes m's
    sign, its error is rounded up, and one ulp is added when any bit or
    remainder was dropped.
    """
    if out_bits < 0:
        raise ValueError("out_bits must be non-negative")
    a = abs(m)
    if shift > 0:
        dropped = a & ((1 << shift) - 1)
        a >>= shift
        err = -((-err) >> shift)
    else:
        dropped = 0
        a <<= -shift
        err <<= -shift
    if den != 1:
        a, r = divmod(a, den)
        dropped = dropped or r
        err = -((-err) // den)
    return _build(FixReal, (-a if m < 0 else a, out_bits, err + (1 if dropped else 0)))


GUARD_BITS = 64  # fraction bits every certified value carries past the precision asked for
CACHE_KEYS = 256  # keys each precision_cache keeps; the least recently used goes first


class CacheInfo(NamedTuple):
    hits: int
    misses: int


def precision_cache(check: Callable[[Hashable, int], None] | None = None):
    """Decorate ``fn(key, prec_bits) -> FixReal`` with one cache entry per key.

    fn must return exactly ``prec_bits + GUARD_BITS`` fraction bits, or the
    call raises ArithmeticError.  The entry holds the value at the highest
    precision computed so far.  A request at or below it is served by
    ``rescale`` to ``prec_bits + GUARD_BITS``, which charges the truncation to
    the error bound; a higher request computes and replaces the entry.
    ``check(key, prec_bits)`` runs before every lookup.  Exceptions are not
    cached, an entry is never replaced by a lower precision, and
    ``cache_info()`` returns a snapshot of the hit and miss counts.
    """
    def decorate(fn: Callable[[Hashable, int], FixReal]) -> Callable[[Hashable, int], FixReal]:
        table: OrderedDict[Hashable, FixReal] = OrderedDict()
        lock = threading.Lock()
        counts = [0, 0]  # hits, misses

        @wraps(fn)
        def cached(key: Hashable, prec_bits: int) -> FixReal:
            if check is not None:
                check(key, prec_bits)
            bits = prec_bits + GUARD_BITS
            with lock:
                entry = table.get(key)
                if entry is not None and entry.frac_bits >= bits:
                    table.move_to_end(key)
                    counts[0] += 1
                    return entry.rescale(bits)
                counts[1] += 1
            value = fn(key, prec_bits)
            if value.frac_bits != bits:
                raise ArithmeticError(f"{fn.__name__} returned {value.frac_bits} fraction bits "
                                      f"at prec_bits {prec_bits}, not {bits}")
            with lock:
                entry = table.get(key)
                if entry is None or entry.frac_bits < bits:
                    table[key] = value
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
