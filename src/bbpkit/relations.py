"""PSLQ integer-relation search.

The standard PSLQ (weighted diagonal row selection with gamma = 2/sqrt(3),
corner Givens rotation, Hermite-style size reduction) over big integers with
f = prec_bits fraction bits, in its multi-pair form (Bailey & Broadhurst,
Math. Comp. 70, 2001): an iteration swaps up to max(1, floor(2n/5)) disjoint
pairs (m, m+1), picked greedily in descending w_m = gamma^2m H_mm^2 from w's
first maximum and passing over any pair with w_m < w_m+1.  Each picked
corner is rotated: cos = floor(H_mm 2^g / t0) and sin = floor(H_m,m+1 2^g / t0)
are taken once, g = f + 64, and give row i >= m, for a = H_im, b = H_i,m+1
and k = cos (a + b), H_im = (k - b (cos - sin)) >> g and
H_i,m+1 = (k + a (-sin - cos)) >> g.  An entry differs from the exact
floor((a H_mm + b H_m,m+1) / t0), or its partner, only when that quotient
lies within (|a| + |b|) 2^-g of an integer.
Disjoint pairs swap disjoint rows and rotate disjoint columns, so their
order does not matter.
Size reduction is then one pass over every row, each from its rightmost
column down; the quotient t is read off the ranges kept with H_jj where it
is 0, 1 or -1, and a unit t adds or subtracts rows.  Each column of B is
one integer of W-bit signed fields (_PackedColumns, W = 64 at first,
doubled when a column's entries need it), so a reduction step updates a
column with one big-integer multiply-add.  The iteration cap counts swaps:
check_work's cap over the most pairs an iteration may swap.  Candidate relations
(columns of B) are confirmed, each once, by an exact certified
re-evaluation, so rounding can delay but never corrupt a result.  Any
relation has norm at least 1 / max |H_jj|; the one bound 2^f // max |H_jj|
is both what a report gives and what excludes: past max_norm, no relation
with coefficients below it exists at the working precision.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .bigmath import FixReal, primitive

__all__ = ["RelationResult", "PslqReport", "PrecisionExhausted", "pslq", "check_work",
           "MAX_PSLQ_WORK"]

# swap cap * n * (n + r) of one search, r as in check_work: about 110 to 1500 ns a unit
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
    """The swap cap of a search over n values, after refusing fewer than two
    values, a max_norm below 1, and a search whose cap times n * (n + r) is
    past MAX_PSLQ_WORK: each swap costs about n^2 row entries and n
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

    B = _PackedColumns(n)  # the columns of the transform
    add = B.add

    # gamma^2 = 4/3; compare w_i = 4^i 3^(n-1-i) H_ii^2 exactly
    scale = [4**i * 3 ** (n - 1 - i) for i in range(n - 1)]
    w = [0] * (n - 1)
    ranges = [(0, 0, 0, 0, True)] * (n - 1)  # _quotient_ranges(H_jj)

    def refresh(j: int) -> None:
        hjj = H[j][j]
        if hjj == 0:
            raise PrecisionExhausted("vanishing diagonal during reduction")
        w[j] = scale[j] * hjj * hjj
        ranges[j] = _quotient_ranges(hjj)

    def size_reduce() -> None:
        """Every H_ij, j < i, to a zero quotient against H_jj, each row from its right."""
        for i in range(1, n):
            hi = H[i]
            for j in range(i - 1, -1, -1):
                a = hi[j]
                lo1, lo, up, up1, pos = ranges[j]
                if lo <= a <= up:
                    continue
                hj = H[j]
                if not lo1 <= a <= up1:
                    t = (2 * a + hj[j]) // (2 * hj[j])  # the nearest integer to a/H_jj, halves up
                    y[j] += t * y[i]
                    hi[: j + 1] = [u - t * v for u, v in zip(hi, hj[: j + 1])]
                    add(j, i, t)
                elif (a > up) == pos:  # t = 1
                    y[j] += y[i]
                    for k in range(j + 1):
                        hi[k] -= hj[k]
                    add(j, i, 1)
                else:  # t = -1
                    y[j] -= y[i]
                    for k in range(j + 1):
                        hi[k] += hj[k]
                    add(j, i, -1)

    for j in range(n - 1):
        refresh(j)
    size_reduce()

    one = 1 << f
    refused: set[tuple[int, ...]] = set()  # primitive candidates _confirm turned down
    noise_floor = 1 << 32
    detect = 1 << 80  # y mantissa below 2^(80-f): try the candidate column
    g = f + 64  # the rotation's guard bits

    most = _pair_count(n)
    cap = -(-max_iter // most)  # max_iter counts swaps
    for iteration in range(1, cap + 1):
        picks = _pick_pairs(w, most)
        for m in picks:  # disjoint pairs: no swap or rotation moves another pair's corner
            y[m], y[m + 1] = y[m + 1], y[m]
            H[m], H[m + 1] = H[m + 1], H[m]
            B.swap(m)
            if m < n - 2:
                hmm, hmm1 = H[m][m], H[m][m + 1]
                # t0 >= 1: H_m,m+1 is the old H_m+1,m+1, which refresh found non-zero and
                # which no other (disjoint) pair and no size reduction has touched since
                t0 = isqrt(hmm * hmm + hmm1 * hmm1)
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

        size_reduce()

        # any relation has euclidean norm at least 1 / max_j |H_jj|
        bound = one // max(abs(H[j][j]) for j in range(n - 1))
        # detection: the smallest |y| column, and all below detect at the noise floor
        min_abs = min(map(abs, y))
        if min_abs < detect:
            ranked = sorted(zip(map(abs, y), range(n)))
            for size, idx in ranked if min_abs < noise_floor else ranked[:1]:
                if size >= detect:
                    break
                coeffs = primitive(B.column(idx))[1]
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

    raise PrecisionExhausted(f"no decision after {cap} iterations ({max_iter} swaps)")


def _quotient_ranges(b: int) -> tuple[int, int, int, int, bool]:
    """(lo1, lo, hi, hi1, b > 0) for b != 0: the nearest integer to a/b (halves up)
    is 0 for lo <= a <= hi, sign(b) for hi < a <= hi1 and -sign(b) for lo1 <= a < lo."""
    d = abs(b)
    lo, hi = (-(d >> 1), (d - 1) >> 1) if b > 0 else (-((d - 1) >> 1), d >> 1)
    return lo - d, lo, hi, hi + d, b > 0


def _pair_count(n: int) -> int:
    """The most pairs one iteration swaps over n values: floor(2n/5), Bailey
    and Broadhurst's beta = 0.4, and at least one (floor(n/2) gave up at the
    noise floor on planted relations that one pair finds at that precision)."""
    return max(1, 2 * n // 5)


def _pick_pairs(w: list[int], most: int) -> list[int]:
    """Up to `most` disjoint pairs (m, m+1), given by m, taken greedily in
    descending w_m; the first is w's first maximum.  A pair with w_m < w_m+1
    is passed over: w_m >= w_m+1, which the first pick always meets, means
    |H_mm| >= gamma |H_m+1,m+1|, and with |H_m+1,m| <= |H_mm| / 2 the swap
    then cannot grow the diagonal at m."""
    last = len(w) - 1
    taken = [False] * (len(w) + 1)
    picks = []
    for m in sorted(range(len(w)), key=w.__getitem__, reverse=True):  # stable: ties keep order
        if not (taken[m] or taken[m + 1]) and (m == last or w[m] >= w[m + 1]):
            taken[m] = taken[m + 1] = True
            picks.append(m)
            if len(picks) == most:
                break
    return picks


def _pack(column: list[int], width: int) -> int:
    """sum column[k] * 2^(width*k): one integer of width-bit signed fields."""
    x = 0
    for v in reversed(column):
        x = (x << width) + v
    return x


def _unpack(x: int, n: int, width: int) -> list[int]:
    """The n fields of _pack(column, width), each in [-2^(width-1), 2^(width-1))."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    x += _pack([half] * n, width)  # no field borrows now: each lies in [0, 2^width)
    return [((x >> (width * k)) & mask) - half for k in range(n)]


class _PackedColumns:
    """n integer columns, each one _pack integer, so that col_j += t * col_i
    is one big-integer multiply-add.  bounds[j] >= max |entry| of column j
    grows by |t| * bounds[i] with each update and is kept below 2^(width-1),
    where every field still unpacks: an update that would pass it first sets
    every bound exactly from the unpacked columns, doubles width while an
    exact bound, or the update's, reaches 2^(width-2), and repacks every
    column."""

    __slots__ = ("n", "width", "half", "cols", "bounds")

    def __init__(self, n: int) -> None:
        """The identity."""
        self.n, self.width, self.half = n, 64, 1 << 63
        self.cols = [1 << (64 * j) for j in range(n)]
        self.bounds = [1] * n

    def column(self, j: int) -> list[int]:
        return _unpack(self.cols[j], self.n, self.width)

    def swap(self, m: int) -> None:
        """Exchange columns m and m + 1."""
        cols, bounds = self.cols, self.bounds
        cols[m], cols[m + 1] = cols[m + 1], cols[m]
        bounds[m], bounds[m + 1] = bounds[m + 1], bounds[m]

    def add(self, j: int, i: int, t: int) -> None:
        """col_j += t * col_i."""
        bounds = self.bounds
        grow = bounds[j] + abs(t) * bounds[i]
        if grow >= self.half:
            grow = self._refit(j, i, abs(t))
        self.cols[j] += t * self.cols[i]
        bounds[j] = grow

    def _refit(self, j: int, i: int, size: int) -> int:
        """Exact bounds, a wider field if they need it; the bound of col_j + size * col_i."""
        columns = [self.column(k) for k in range(self.n)]
        bounds = self.bounds
        bounds[:] = [max(map(abs, c)) for c in columns]
        grow = bounds[j] + size * bounds[i]
        width = self.width
        while max(grow, *bounds) >> (width - 2):
            width *= 2
        self.width, self.half = width, 1 << (width - 1)
        self.cols = [_pack(c, width) for c in columns]
        return grow
