import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import bbpkit
from bbpkit.bigmath import FixReal
from bbpkit.catalog import bits_for_digits, default_catalog, evaluate_expr, parse_expr
from bbpkit.cli import MAX_DIGITS
from bbpkit.reference import ConstMonomial, const_value
from bbpkit.relations import (MAX_PSLQ_WORK, PrecisionExhausted, RelationResult, _PackedColumns,
                              _pack, _pair_count, _pick_pairs, _quotient_ranges, check_work, pslq)


def test_certify_pi_minus_pi():
    residual = evaluate_expr(parse_expr("1 * pi + -1 * pi"), bits_for_digits(100))
    assert residual.certified_below(Fraction(1, 10**100))


def test_certify_printed_zero_relations():
    cat = default_catalog()
    for rid in ("zero-deg2-2e12-a-table", "zero-deg2-2e12-b-table"):
        residual = evaluate_expr(cat.get(rid).rhs, bits_for_digits(200))
        assert residual.certified_below(Fraction(1, 10**200)), rid


def test_certify_monotone_in_precision():
    expr = parse_expr(default_catalog().get("zero-deg3-2e12").rhs.__str__())
    r_hi = evaluate_expr(expr, bits_for_digits(150))
    assert r_hi.certified_below(Fraction(1, 10**150))
    assert r_hi.certified_below(Fraction(1, 10**80))


def test_pslq_unit_pair():
    vals = [FixReal.from_fraction(Fraction(1), 256), FixReal.from_fraction(Fraction(1), 256)]
    rep = pslq(vals, 10, 256)
    assert rep.status == "found"
    assert rep.relation.coeffs == (1, -1)


def test_pslq_finds_a_multiple_of_a_rational():
    vals = [FixReal.from_fraction(Fraction(355, 113), 256),
            FixReal.from_fraction(Fraction(710, 113), 256)]
    rep = pslq(vals, 10**6, 256)
    assert rep.relation.coeffs == (2, -1)


def test_pslq_planted_multiples():
    rng = random.Random(5)
    x = Fraction(rng.randrange(10**15, 10**18), rng.randrange(10**15, 10**18))
    vals = [FixReal.from_fraction(k * x, 384) for k in (1, 2, 3)]
    rep = pslq(vals, 100, 384)
    assert rep.status == "found"
    c = rep.relation.coeffs
    assert c[0] + 2 * c[1] + 3 * c[2] == 0
    assert any(c)


def test_pslq_planted_random_norm_100():
    rng = random.Random(11)
    base = [Fraction(rng.randrange(1, 10**12), rng.randrange(1, 10**12)) for _ in range(4)]
    planted = [rng.randrange(-100, 101) for _ in range(4)]
    while not any(planted):
        planted[0] = 1
    # make the last value close the relation exactly
    last = -sum(c * b for c, b in zip(planted[:-1], base[:-1]))
    if planted[-1] == 0:
        planted[-1] = 1
    base[-1] = last / planted[-1]
    bits = 680  # 200-digit working precision
    vals = [FixReal.from_fraction(b, bits) for b in base]
    rep = pslq(vals, 10**4, bits)
    assert rep.status == "found"
    c = rep.relation.coeffs
    # verified by substitution, not by coefficient equality
    assert sum(ci * bi for ci, bi in zip(c, base)) == 0


def test_pslq_normalization():
    vals = [FixReal.from_fraction(Fraction(2), 256), FixReal.from_fraction(Fraction(1), 256)]
    rep = pslq(vals, 10, 256)
    c = rep.relation.coeffs
    from math import gcd
    assert gcd(*[abs(x) for x in c]) == 1
    assert next(x for x in c if x) > 0


def test_pslq_exclusion_bound():
    bits = 300
    v = [
        FixReal(isqrt(2 << (2 * bits)), bits, 1),
        FixReal(isqrt(3 << (2 * bits)), bits, 1),
        FixReal.from_int(1, bits),
    ]
    rep = pslq(v, 40, bits)
    assert rep.status == "excluded"
    assert rep.relation is None
    assert rep.exclusion_bound > 40


def test_pslq_found_relation_residual_threshold():
    vals = [FixReal.from_fraction(Fraction(3, 7), 320), FixReal.from_fraction(Fraction(9, 14), 320)]
    rep = pslq(vals, 100, 320)
    assert rep.relation is not None
    assert rep.relation.residual.certified_below(Fraction(1, 1 << 160))


def test_pslq_refuses_a_relation_its_residual_disproves():
    # over the nine monomials pi^a * log2^b (a, b < 3) at 20 digits the search
    # once returned [1442, 142, -631, ...], whose residual is certified non-zero
    bits = bits_for_digits(20)
    vals = [const_value(ConstMonomial(a, b), bits) for a in range(3) for b in range(3)]
    with pytest.raises(PrecisionExhausted):
        pslq(vals, 10**6, bits)


def test_pslq_input_validation():
    one = FixReal.from_int(1, 64)
    with pytest.raises(ValueError, match="at least two values"):
        pslq([one], 10, 64)
    with pytest.raises(ValueError, match="max_norm must be positive"):
        pslq([one, one], 0, 64)
    with pytest.raises(PrecisionExhausted):
        pslq([FixReal.zero(64), FixReal.from_int(1, 64)], 10, 64)


def test_relation_result_rejects_zero_vector():
    with pytest.raises(ValueError):
        RelationResult((0, 0), FixReal.zero(8))


def _seeded_values(seed: int, n: int, bits: int, planted: int) -> tuple[list[FixReal], list[int]]:
    """n square roots of seeded integers at `bits` fraction bits; when planted > 0
    the last value is their combination with seeded coefficients c in
    [-planted, planted], returned with the values (c is empty otherwise)."""
    rng = random.Random(seed)
    xs = [isqrt(rng.randrange(2, 10**9) << (2 * bits)) for _ in range(n - bool(planted))]
    vals = [FixReal(x, bits, 1) for x in xs]
    c = []
    if planted:
        c = [rng.randrange(-planted, planted + 1) for _ in xs]
        vals.append(FixReal(sum(ci * x for ci, x in zip(c, xs)), bits, sum(map(abs, c)) + 1))
    return vals, c


# (seed, n, bits, planted, max_norm) -> (status, coeffs, exclusion_bound, iterations),
# rows 0-5 recorded from the full (non-incremental) size reduction, rows 24 and 25
# (rotations at width) from the rotation that divided every entry by t0, and rows
# 6-23 (n >= 5) from the multi-pair iteration, which kept each row's status and
# coefficient vector
PINNED_SEARCHES = [
    (0, 2, 64, 0, 100, "excluded", None, 140, 3),
    (1, 2, 64, 1, 100, "found", (1, -1), 18446744073709551616, 1),
    (2, 3, 128, 0, 1000, "excluded", None, 2193, 17),
    (3, 3, 128, 5, 1000, "found", (3, -3, -1), 3, 5),
    (4, 4, 200, 0, 10000, "excluded", None, 10524, 58),
    (5, 4, 256, 20, 1000000, "found", (2, 13, -19, -1), 12, 12),
    (6, 5, 300, 0, 10000, "excluded", None, 10127, 50),
    (7, 5, 400, 50, 1000000, "found", (44, 41, -18, 38, 1), 67, 19),
    (8, 6, 400, 0, 10000, "excluded", None, 10990, 84),
    (9, 6, 500, 9, 1000000, "found", (4, 9, -1, -7, -5, 1), 7, 19),
    (10, 7, 500, 0, 100000, "excluded", None, 105427, 143),
    (11, 7, 600, 30, 100000000, "found", (1, 2, -2, -24, -7, 18, 1), 22, 39),
    (12, 8, 600, 0, 100000, "excluded", None, 110942, 124),
    (13, 8, 700, 9, 100000000, "found", (4, 2, 5, 2, 4, 5, 7, 1), 3, 15),
    (14, 9, 700, 0, 100000, "excluded", None, 118381, 190),
    (15, 10, 800, 5, 100000000, "found", (5, -5, 3, 0, 2, 4, 0, -2, 0, 1), 5, 27),
    (16, 10, 900, 0, 1000000, "excluded", None, 1121062, 207),
    (17, 11, 1000, 3, 100000000, "found", (1, 2, -1, -3, -3, -2, 0, 3, 2, 0, -1), 2, 23),
    (18, 12, 1000, 0, 100000, "excluded", None, 102000, 288),
    (19, 12, 1000, 4, 100000000, "found", (0, 2, 0, 3, 0, -2, -1, 0, 3, -1, 0, 1), 2, 35),
    (20, 16, 466, 0, 10000, "excluded", None, 10582, 309),
    (21, 16, 466, 3, 1000000, "found", (1, -2, 3, -3, -3, -1, 1, 0, -3, -2, 3, 3, -2, -2, 2, -1), 5,
     73),
    (22, 24, 466, 0, 1000, "excluded", None, 1027, 380),
    (23, 24, 466, 2, 1000000, "found",
     (2, 2, 2, -1, -1, 2, -2, -1, 0, 2, 1, 2, -2, 0, 1, -2, 1, 0, -2, 0, -2, 0, 0, 1), 2, 85),
    (24, 3, 10000, 0, 1000000, "excluded", None, 1086156, 29),
    (25, 3, 10000, 100, 1000000, "found", (97, 46, 1), 93, 5),
]


@pytest.mark.parametrize("seed, n, bits, planted, max_norm, status, coeffs, bound, iterations",
                         PINNED_SEARCHES)
def test_pslq_iterates_are_pinned(seed, n, bits, planted, max_norm, status, coeffs, bound,
                                  iterations):
    vals, _ = _seeded_values(seed, n, bits, planted)
    rep = pslq(vals, max_norm, bits)
    assert (rep.status, rep.exclusion_bound, rep.iterations) == (status, bound, iterations)
    assert (rep.relation.coeffs if rep.relation else None) == coeffs
    if coeffs:
        assert sum(c * v.mantissa for c, v in zip(coeffs, vals)) == 0


def test_each_candidate_is_confirmed_once(monkeypatch):
    # the search turns down 85 distinct columns of B, met 89 times, and gives up
    calls = []
    confirm = bbpkit.relations._confirm

    def counted(coeffs, values, prec_bits):
        calls.append(coeffs)
        return confirm(coeffs, values, prec_bits)

    monkeypatch.setattr(bbpkit.relations, "_confirm", counted)
    vals, _ = _seeded_values(33, 24, 466, 0)
    with pytest.raises(PrecisionExhausted, match="noise floor"):
        pslq(vals, 10**6, 466)
    assert len(calls) == len(set(calls)) == 85


def test_a_noise_floor_give_up_confirms_only_the_columns_below_detect(monkeypatch):
    # the planted relation, with the last value moved 2^40 ulps off it: its
    # column of B collapses to |y| < 2^32 (the noise floor), its residual is
    # certified non-zero, and the other three columns still have |y| >= 2^287.
    # At the noise floor the search walks the columns in ascending |y| and
    # stops at the first one at or above detect = 2^80; the columns of the
    # unimodular B are independent, so one _confirm call in the whole search
    # means the walk stopped at its second column.
    calls = []
    confirm = bbpkit.relations._confirm

    def counted(coeffs, values, prec_bits):
        calls.append(coeffs)
        return confirm(coeffs, values, prec_bits)

    monkeypatch.setattr(bbpkit.relations, "_confirm", counted)
    vals, c = _seeded_values(7, 4, 300, 9)
    mantissa, bits, err = vals[-1]
    vals[-1] = FixReal(mantissa + (1 << 40), bits, err)
    with pytest.raises(PrecisionExhausted, match="noise floor"):
        pslq(vals, 10**6, bits)
    assert c == [-8, -7, 8] and calls == [(8, 7, -8, 1)]


# -- the per-iteration rules against the code they replaced ------------------

def _nint_div(a: int, b: int) -> int:
    """The nearest integer to a/b, halves up, as the search computed it before."""
    if b < 0:
        a, b = -a, -b
    return (2 * a + b) // (2 * b)


WIDE = st.integers(min_value=-(1 << 300), max_value=1 << 300)


@given(WIDE, WIDE.filter(bool))
@example(1, 4)  # a quarter
@example(-2, 4)  # -1/2 rounds up to 0
@example(2, 4)  # 1/2 rounds up to 1
@example(2, -4)  # -1/2 again
@example(-2, -4)
@example(3, -7)
@example(-3, 7)
@example(6, 4)  # 3/2 rounds up to 2
@example(-6, 4)  # -3/2 rounds up to -1
@example(-7, 4)
def test_quotient_ranges_hold_exactly_the_small_quotients(a, b):
    lo1, lo, hi, hi1, positive = _quotient_ranges(b)
    t = _nint_div(a, b)
    assert (lo <= a <= hi) == (t == 0)
    assert (lo1 <= a <= hi1) == (abs(t) <= 1)
    if abs(t) == 1:  # t = 1 above the zero range when b > 0, below it when b < 0
        assert ((a > hi) == positive) == (t == 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=1 << 32), st.integers(min_value=2, max_value=9),
       st.integers(min_value=64, max_value=2000), st.integers(min_value=1, max_value=1000),
       st.integers(min_value=1, max_value=4096))
@example(2, 2, 166, 1, 10**6)  # the pair (v, -v)
@example(7, 6, 2000, 1000, 4096)
def test_planted_relations_are_found_and_never_excluded(seed, n, bits, height, max_norm):
    vals, c = _seeded_values(seed, n, bits, height)
    assume(any(c))
    c.append(-1)
    norm2 = sum(ci * ci for ci in c)
    try:
        rep = pslq(vals, max_norm, bits)
    except PrecisionExhausted:
        rep = None
    if rep is not None and rep.status == "excluded":
        assert rep.exclusion_bound ** 2 < norm2
    # measured over 12000 searches seeded from 11 (n from 2 to 9, |c_i| up to 10^4,
    # bits from n * bit_length(max |c_i|) + 30 to + 264): every search that gave up
    # had bits <= n * bit_length(max |c_i|) + 54
    if max_norm * max_norm >= norm2 and bits >= n * max(map(abs, c)).bit_length() + 64:
        assert rep is not None and rep.status == "found"
        assert sum(ci * v.mantissa for ci, v in zip(rep.relation.coeffs, vals)) == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=30).flatmap(
    lambda n: st.lists(st.integers(min_value=1, max_value=6), min_size=n - 1, max_size=n - 1)))
def test_pairs_are_disjoint_and_picked_greedily(w):
    n = len(w) + 1
    most = _pair_count(n)
    picks = _pick_pairs(w, most)
    assert picks[0] == w.index(max(w))
    assert 1 <= len(picks) <= most == max(1, 2 * n // 5)
    rows = [r for m in picks for r in (m, m + 1)]
    assert len(rows) == len(set(rows))
    # each pick is the first maximum of the pairs free of earlier picks whose
    # swap cannot grow their diagonal
    for k, m in enumerate(picks + [None]):
        free = [j for j in range(n - 1) if all(abs(j - p) > 1 for p in picks[:k])
                and (j == n - 2 or w[j] >= w[j + 1])]
        if m is None:
            assert len(picks) == most or not free
        else:
            assert m == max(free, key=lambda j: (w[j], -j))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=8).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40), min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.lists(st.tuples(st.integers(min_value=0, max_value=n - 1),
                       st.integers(min_value=0, max_value=n - 1),
                       st.integers(min_value=-(1 << 80), max_value=1 << 80)),
             min_size=1, max_size=30))))
def test_packed_columns_follow_the_list_arithmetic(case):
    plain, ops = case
    n = len(plain)
    j0, i0, t0 = ops[0]
    assume(any(plain[i0]))
    packed = _PackedColumns(n)
    packed.cols = [_pack(c, packed.width) for c in plain]
    packed.bounds = [max(map(abs, c)) for c in plain]
    big = 1 << 70  # the first update needs fields past 2^71 bits: one widening or more
    ops[0] = (j0 if j0 != i0 else (i0 + 1) % n, i0, big if t0 >= 0 else -big)
    for j, i, t in ops:
        if i == j:  # a swap of columns i and i + 1 (wrapping at the end to 0 and 1)
            m = min(i, n - 2)
            packed.swap(m)
            plain[m], plain[m + 1] = plain[m + 1], plain[m]
        else:
            packed.add(j, i, t)
            plain[j] = [u + t * v for u, v in zip(plain[j], plain[i])]
        assert [packed.column(k) for k in range(n)] == plain
        assert all(max(map(abs, c)) <= b < 1 << (packed.width - 1)
                   for c, b in zip(plain, packed.bounds))
    assert packed.width >= 128


def test_the_iteration_cap_counts_swaps(monkeypatch):
    # an n = 12 search swaps up to 4 pairs an iteration, and this one is found at iteration 35
    monkeypatch.setattr(bbpkit.relations, "check_work", lambda n, bits, max_norm: 40)
    vals, _ = _seeded_values(19, 12, 1000, 4)
    with pytest.raises(PrecisionExhausted, match=r"no decision after 10 iterations \(40 swaps\)"):
        pslq(vals, 10**8, 1000)


# -- the work cap -------------------------------------------------------------

def _admitted_sizes():
    """(n, bits, max_norm) of every search the tests, the demos and the
    benchmark run, and of the largest ones the CLI fuzzer can draw."""
    at120 = bits_for_digits(120)
    sizes = [(24, at120, 1 << 16), (23, at120, 1 << 16)]  # criterion 4 and demos/04
    sizes += [(len(r.lhs.terms) + len(r.rhs.terms), at120, 1 << 32) for r in default_catalog()]
    sizes += [(n, bits, max_norm) for _, n, bits, _, max_norm, *_ in PINNED_SEARCHES]
    sizes += [(2, 256, 10**6), (3, 384, 100), (4, 680, 10**4), (3, 300, 40), (2, 320, 100),
              (9, bits_for_digits(20), 10**6), (2, 64, 10)]
    sizes += [(2, bits_for_digits(400), 10**6), (3, bits_for_digits(999), 10**5),
              (3, 4096, 10**5)]
    sizes += [(2, bits_for_digits(MAX_DIGITS), 10**6)]  # the widest pair: two values never rotate
    return sizes


def test_work_cap_admits_every_search_that_is_run():
    for n, bits, max_norm in _admitted_sizes():
        assert check_work(n, bits, max_norm) == 64 * n * n * max(max_norm.bit_length(), 8)


def _cli_pslq(values: str, *flags: str) -> tuple[subprocess.CompletedProcess, float]:
    """`bbp pslq --values values *flags` in a child process, and its wall time."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bbpkit.__file__)))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "bbpkit.cli", "pslq", "--values", values, *flags],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=30)
    return proc, time.perf_counter() - start


def test_work_cap_refuses_forty_values_at_3000_digits():
    with pytest.raises(ValueError, match=str(MAX_PSLQ_WORK)):
        check_work(40, bits_for_digits(3000), 10**6)
    with pytest.raises(ValueError, match=str(MAX_PSLQ_WORK)):  # n > 2: rotations are charged
        check_work(3, bits_for_digits(30000), 10**6)
    for max_norm in (10**1000, 10**50000):  # a pair still does full-width work each iteration
        with pytest.raises(ValueError, match=str(MAX_PSLQ_WORK)):
            check_work(2, bits_for_digits(MAX_DIGITS), max_norm)
    values = "; ".join(f"1 * ReLi(2, {2 * q}, 0)" for q in range(1, 41))
    proc, elapsed = _cli_pslq(values, "--digits", "3000")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "pslq work" in proc.stderr
    assert elapsed < 1.0


@pytest.mark.parametrize("values, flags, message", [
    ("1 * zeta3; 1 * zeta5; 1 * G", ("--digits", "30000"), "pslq work"),
    ("1 * zeta3; 1 * zeta5; 1 * G", ("--digits", "20000", "--max-norm", "0"),
     "max_norm must be positive"),
    ("1 * zeta3; 1 * zeta5; 1/0 * G", ("--digits", "20000"), "zero denominator"),
])
def test_refused_search_exits_before_any_value_is_evaluated(values, flags, message):
    # each value takes seconds to evaluate at these precisions
    proc, elapsed = _cli_pslq(values, *flags)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and message in proc.stderr
    assert elapsed < 1.0
