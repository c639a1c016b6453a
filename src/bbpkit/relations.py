"""PSLQ integer-relation search.

The PSLQ implementation is the standard single-level algorithm (weighted
diagonal row selection with gamma = 2/sqrt(3), corner Givens rotation,
Hermite-style size reduction) run over fixed-point big integers.  Reduction
after the first is incremental: an iteration swaps rows m and m+1 of H and
rotates columns m and m+1, so no other diagonal and, in rows below m, no
entry left of column m changes.  Those entries were reduced to a - t*b in
[-|b|/2, |b|/2), whose nearest-integer quotient is exactly 0, so a row stops
below column m unless a non-zero quotient at m+1 or m changed it; the
iterates are those of the full reduction.  Only B is kept, since its
columns are the candidate relations; the usual matrix A would never be read.
Candidate relations are always confirmed by an exact certified
re-evaluation against the input values before being returned, so internal
rounding can delay but never corrupt a result.  When the search stops
without a relation, the standard smallest-diagonal bound certifies that no
relation with coefficients below the reported norm exists at the working
precision.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .bigmath import FixReal, primitive

__all__ = ["RelationResult", "PslqReport", "PrecisionExhausted", "pslq", "check_work",
           "MAX_PSLQ_WORK"]

# iteration cap * n * (n + r) of one search, r as in check_work: about 90 to 700 ns a unit
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
    status: str  # "found" | "excluded"


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
    H = [[0] * (n - 1) for _ in range(n)]
    for i in range(n):
        if i < n - 1:
            if s[i] == 0:
                raise PrecisionExhausted("degenerate partial sums")
            H[i][i] = (s[i + 1] << f) // s[i]
        for j in range(i):
            d = s[j] * s[j + 1]
            if d == 0:
                raise PrecisionExhausted("degenerate partial sums")
            H[i][j] = (-(y[i] * y[j]) << f) // d

    B = [[int(i == j) for j in range(n)] for i in range(n)]  # B[j]: column j of the transform

    def reduce_row(i: int, j_start: int, j_stop: int = 0) -> None:
        # Until a non-zero t changes row i, its quotients below column j_stop are 0.
        for j in range(j_start, -1, -1):
            if j < j_stop:
                return
            hi, hj = H[i], H[j]
            a, b = hi[j], hj[j]
            if b == 0:
                raise PrecisionExhausted("vanishing diagonal during reduction")
            if a.bit_length() + 1 < b.bit_length():
                continue  # |a| < |b|/2: the nearest integer to a/b is 0
            if b < 0:
                a, b = -a, -b
            t = (2 * a + b) // (2 * b)  # the nearest integer to a/b, halves up
            if t == 0:
                continue
            j_stop = 0
            y[j] += t * y[i]
            for k in range(j + 1):
                hi[k] -= t * hj[k]
            bj, bi = B[j], B[i]
            for k in range(n):
                bj[k] += t * bi[k]

    for i in range(1, n):
        reduce_row(i, i - 1)

    # gamma^2 = 4/3; compare w_i = 4^i 3^(n-1-i) H_ii^2 exactly
    scale = [4**i * 3 ** (n - 1 - i) for i in range(n - 1)]
    w = [scale[i] * H[i][i] * H[i][i] for i in range(n - 1)]
    diag = [abs(H[i][i]) for i in range(n - 1)]
    # _diag_bound(H) > max_norm exactly when 0 < max(diag) <= excluded
    excluded = (1 << f) // (max_norm + 1)
    noise_floor = 1 << 32
    detect = 1 << 80  # y mantissa below 2^(80-f): try the candidate column

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
            for i in range(m, n):
                a_, b_ = H[i][m], H[i][m + 1]
                H[i][m] = (a_ * hmm + b_ * hmm1) // t0
                H[i][m + 1] = (b_ * hmm - a_ * hmm1) // t0
        for j in range(m, min(m + 2, n - 1)):  # the only diagonals that moved
            hjj = H[j][j]
            w[j] = scale[j] * hjj * hjj
            diag[j] = abs(hjj)

        for i in range(m + 1, n):
            reduce_row(i, min(i - 1, m + 1), m)

        # detection: some y entry collapsed to the working resolution
        min_abs = min(map(abs, y))
        if min_abs < detect:
            idx = min(range(n), key=lambda i: abs(y[i]))
            if any(B[idx]):
                coeffs = primitive(B[idx])[1]
                residual = _confirm(coeffs, values, prec_bits)
                if residual is not None:
                    return PslqReport(RelationResult(coeffs, residual),
                                      _diag_bound(H, n, f), iteration, "found")
            if min_abs < noise_floor:
                raise PrecisionExhausted(
                    "y-vector reached the noise floor without a confirmable relation"
                )

        if 0 < max(diag) <= excluded:
            return PslqReport(None, _diag_bound(H, n, f), iteration, "excluded")

    raise PrecisionExhausted(f"no decision after {max_iter} iterations")


def _diag_bound(H: list[list[int]], n: int, f: int) -> int:
    # any relation has euclidean norm at least 1 / max_j |H_jj|
    biggest = max(abs(H[j][j]) for j in range(n - 1))
    if biggest == 0:
        return 0
    return (1 << f) // biggest
