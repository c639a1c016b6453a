"""PSLQ integer-relation search.

The standard single-level PSLQ (weighted diagonal row selection with
gamma = 2/sqrt(3), corner Givens rotation, Hermite-style size reduction) over
big integers with f = prec_bits fraction bits.  The rotation takes
cos = floor(H_mm 2^g / t0) and sin = floor(H_m,m+1 2^g / t0) once, g = f + 64,
and gives row i >= m, for a = H_im, b = H_i,m+1 and k = cos (a + b),
H_im = (k - b (cos - sin)) >> g and H_i,m+1 = (k + a (-sin - cos)) >> g.  An
entry differs from the exact floor((a H_mm + b H_m,m+1) / t0), or its
partner, only when that quotient lies within (|a| + |b|) 2^-g of an integer.
Size reduction is one flat loop over each row's columns; the quotient t is
read off the ranges kept with H_jj where it is 0, 1 or -1, and a unit t adds
or subtracts rows.  After the first, a row stops below column m unless a
non-zero quotient at m+1 or m changed it, since no other diagonal and, in
rows below m, no entry left of column m moved.  Candidate relations (columns
of B) are confirmed, each once, by an exact certified re-evaluation, so
rounding can delay but never corrupt a result.  Any relation has norm at
least 1 / max |H_jj|; the one bound 2^f // max |H_jj| is both what a report
gives and what excludes: past max_norm, no relation with coefficients below
it exists at the working precision.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import add, sub

from .bigmath import FixReal, primitive

__all__ = ["RelationResult", "PslqReport", "PrecisionExhausted", "pslq", "check_work",
           "MAX_PSLQ_WORK"]

# iteration cap * n * (n + r) of one search, r as in check_work: about 190 to 420 ns a unit
MAX_PSLQ_WORK = 1 << 32


class PrecisionExhausted(ArithmeticError):
    """Working precision ran out before a relation could be confirmed or excluded."""


@dataclass(frozen=True, slots=True)
class RelationResult:
    coeffs: tuple[int, ...]
    residual: FixReal

    def __post_init__(self) -> None:
        if not any(self.coeffs):
            raise ValueError("relation coefficients must not all be zero")


@dataclass(frozen=True, slots=True)
class PslqReport:
    relation: RelationResult | None
    exclusion_bound: int
    iterations: int

    @property
    def status(self) -> str:
        return "found" if self.relation else "excluded"


def check_work(n: int, prec_bits: int, max_norm: int) -> int:
    """The iteration cap of a search over n values, after refusing fewer than
    two values, a max_norm below 1, and a search whose cap times n * (n + r)
    is past MAX_PSLQ_WORK: each iteration touches n^2 row entries and n
    full-width ones, each costing r = (prec_bits/256)^2 when n > 2 (a
    rotation) and r = (prec_bits/1024)^2 when n = 2 (a pair never rotates,
    but squares a full-width diagonal and reduces a full-width row)."""
    if n < 2:
        raise ValueError("need at least two values")
    if max_norm < 1:
        raise ValueError("max_norm must be positive")
    max_iter = 64 * n * n * max(max_norm.bit_length(), 8)
    units = max_iter * n * (n + (prec_bits >> (8 if n > 2 else 10)) ** 2)
    if units > MAX_PSLQ_WORK:
        raise ValueError(f"pslq work {units} above {MAX_PSLQ_WORK}")
    return max_iter


def _confirm(coeffs: tuple[int, ...], values: list[FixReal], prec_bits: int) -> FixReal | None:
    total = FixReal.zero(prec_bits)
    for c, v in zip(coeffs, values):
        if c:
            total = total + v.scale_rat(Fraction(c), prec_bits)
    # a residual whose interval excludes 0 proves the relation false
    if total.certified_sign() == 0 and total.certified_below(Fraction(1, 1 << (prec_bits // 2))):
        return total
    return None


def pslq(values: list[FixReal], max_norm: int, prec_bits: int) -> PslqReport:
    """Search for integers c (not all zero) with sum c_i * values_i = 0.

    Returns a found relation (gcd-normalized, first nonzero coefficient
    positive, residual certified below 2^(-prec_bits/2) with an error
    interval that contains 0) or an exclusion bound showing no relation with
    |coefficients| <= max_norm exists at this precision.  Raises ValueError
    before any work when ``check_work`` refuses the search, and
    PrecisionExhausted when the y-vector reaches the noise floor without
    either outcome.
    """
    n = len(values)
    max_iter = check_work(n, prec_bits, max_norm)
    f = prec_bits
    xs = [v.rescale(f).mantissa for v in values]
    if any(x == 0 for x in xs):
        raise PrecisionExhausted("an input value is indistinguishable from zero")

    # scale to a unit vector
    norm = isqrt(sum(x * x for x in xs))
    y = [(x << f) // norm for x in xs]

    # lower trapezoidal H from the partial-sum frame
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + y[i] * y[i]
    s = [isqrt(v) for v in suffix[:n]]
    if s[-1] == 0:  # s never increases: a nonzero last sum makes every divisor below nonzero
        raise PrecisionExhausted("degenerate partial sums")
    H = [[0] * (n - 1) for _ in range(n)]
    for i in range(n):
        if i < n - 1:
            H[i][i] = (s[i + 1] << f) // s[i]
        for j in range(i):
            H[i][j] = (-(y[i] * y[j]) << f) // (s[j] * s[j + 1])

    B = [[int(i == j) for j in range(n)] for i in range(n)]  # B[j]: column j of the transform

    # gamma^2 = 4/3; compare w_i = 4^i 3^(n-1-i) H_ii^2 exactly
    scale = [4**i * 3 ** (n - 1 - i) for i in range(n - 1)]
    w = [0] * (n - 1)
    diag = [0] * (n - 1)
    ranges = [(0, 0, 0, 0, True)] * (n - 1)  # _quotient_ranges(H_jj)

    def refresh(j: int) -> None:
        hjj = H[j][j]
        if hjj == 0:
            raise PrecisionExhausted("vanishing diagonal during reduction")
        w[j] = scale[j] * hjj * hjj
        diag[j] = abs(hjj)
        ranges[j] = _quotient_ranges(hjj)

    def reduce_row(i: int, top: int, j_stop: int = 0) -> None:
        # Until a non-zero t changes row i, its quotients below column j_stop are 0.
        hi, bi = H[i], B[i]
        for j in range(top, -1, -1):
            a = hi[j]
            lo1, lo, up, up1, pos = ranges[j]
            if lo <= a <= up:
                if j <= j_stop:
                    return
                continue
            j_stop = 0
            hj = H[j]
            if not lo1 <= a <= up1:
                t = (2 * a + hj[j]) // (2 * hj[j])  # the nearest integer to a/H_jj, halves up
                y[j] += t * y[i]
                hi[: j + 1] = [u - t * v for u, v in zip(hi, hj[: j + 1])]
                B[j] = [u + t * v for u, v in zip(B[j], bi)]
            elif (a > up) == pos:  # t = 1
                y[j] += y[i]
                for k in range(j + 1):
                    hi[k] -= hj[k]
                B[j] = list(map(add, B[j], bi))
            else:  # t = -1
                y[j] -= y[i]
                for k in range(j + 1):
                    hi[k] += hj[k]
                B[j] = list(map(sub, B[j], bi))

    for j in range(n - 1):
        refresh(j)
    for i in range(1, n):
        reduce_row(i, i - 1)

    one = 1 << f
    refused: set[tuple[int, ...]] = set()  # primitive candidates _confirm turned down
    noise_floor = 1 << 32
    detect = 1 << 80  # y mantissa below 2^(80-f): try the candidate column
    g = f + 64  # the rotation's guard bits

    for iteration in range(1, max_iter + 1):
        m = w.index(max(w))  # the first maximum
        y[m], y[m + 1] = y[m + 1], y[m]
        H[m], H[m + 1] = H[m + 1], H[m]
        B[m], B[m + 1] = B[m + 1], B[m]

        if m < n - 2:
            hmm, hmm1 = H[m][m], H[m][m + 1]
            t0 = isqrt(hmm * hmm + hmm1 * hmm1)
            if t0 == 0:
                raise PrecisionExhausted("vanishing corner during rotation")
            cos, sin = (hmm << g) // t0, (hmm1 << g) // t0
            c_s, s_c = cos - sin, -sin - cos
            for hi in H[m:]:
                a, b = hi[m], hi[m + 1]
                k = cos * (a + b)
                hi[m] = (k - b * c_s) >> g
                hi[m + 1] = (k + a * s_c) >> g
            H[m][m + 1] = 0
        for j in range(m, min(m + 2, n - 1)):  # the only diagonals that moved
            refresh(j)

        for i in range(m + 1, n):
            reduce_row(i, min(i - 1, m + 1), m)

        # any relation has euclidean norm at least 1 / max_j |H_jj|
        bound = one // max(diag)
        # detection: the smallest |y| column, and all below detect at the noise floor
        min_abs = min(map(abs, y))
        if min_abs < detect:
            ranked = sorted(zip(map(abs, y), range(n)))
            for size, idx in ranked if min_abs < noise_floor else ranked[:1]:
                if size >= detect:
                    break
                coeffs = primitive(B[idx])[1]
                if coeffs in refused:  # _confirm is deterministic: it would refuse it again
                    continue
                residual = _confirm(coeffs, values, prec_bits)
                if residual is not None:
                    return PslqReport(RelationResult(coeffs, residual), bound, iteration)
                refused.add(coeffs)
            if min_abs < noise_floor:
                raise PrecisionExhausted(
                    "y-vector reached the noise floor without a confirmable relation"
                )

        if bound > max_norm:
            return PslqReport(None, bound, iteration)

    raise PrecisionExhausted(f"no decision after {max_iter} iterations")


def _quotient_ranges(b: int) -> tuple[int, int, int, int, bool]:
    """(lo1, lo, hi, hi1, b > 0) for b != 0: the nearest integer to a/b (halves up)
    is 0 for lo <= a <= hi, sign(b) for hi < a <= hi1 and -sign(b) for lo1 <= a < lo."""
    d = abs(b)
    lo, hi = (-(d >> 1), (d - 1) >> 1) if b > 0 else (-((d - 1) >> 1), d >> 1)
    return lo - d, lo, hi, hi + d, b > 0
