import random
import sys
import threading
from fractions import Fraction
from math import isqrt

import pytest

from bbpkit import reference
from bbpkit.bigmath import FixReal, fix_sqrt_int
from bbpkit.generator import LiPoint
from bbpkit.reference import (
    ConstMonomial,
    alt_sum,
    bernoulli,
    const_value,
    constant,
    hurwitz_zeta,
    li_point_value,
    pi_alt,
    pi_machin,
)

# 60 significant digits each, frozen from an independent multiprecision source
KNOWN = {
    "pi": "3.14159265358979323846264338327950288419716939937510582097494",
    "log2": "0.693147180559945309417232121458176568075500134360255254120680",
    "zeta3": "1.20205690315959428539973816151144999076498629234049888179227",
    "zeta5": "1.03692775514336992633136548645703416805708091950191281197419",
    "catalan": "0.915965594177219015054603514932384110774149374281672134266498",
    "cl4_pi2": "0.988944551741105336108422633228377821315860887062733910781992",
    "cl2_pi3": "1.01494160640965362502120255427452028594168930753029979201749",
}


def _close(value: FixReal, decimal_string: str, digits: int = 55) -> bool:
    ip, fp = decimal_string.split(".")
    want = Fraction(int(ip + fp[:digits]), 10**digits)
    return abs(value.value_fraction() - want) < Fraction(2, 10**digits)


@pytest.mark.parametrize("name", sorted(KNOWN))
def test_base_constants(name):
    assert _close(constant(name, 260), KNOWN[name])


def test_machin_pair_cross_check():
    # two unrelated arctangent decompositions agree, pinning the pi oracle
    d = pi_machin(700) - pi_alt(700)
    assert d.certified_below(Fraction(1, 1 << 680))


def test_constant_cache_serves_lower_precision():
    hi = constant("pi", 500)
    lo = constant("pi", 200)
    d = hi.rescale(200).value_fraction() - lo.value_fraction()
    assert abs(d) <= Fraction(8, 1 << 200)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


@pytest.fixture
def empty_bernoulli_table(monkeypatch):
    """A function that empties the Bernoulli table, as at import, for the test."""
    def empty():
        monkeypatch.setattr(reference, "_tan", [1])
        monkeypatch.setattr(reference, "_bern", [Fraction(1, 6)])
    return empty


def test_bernoulli_table_grows_out_of_order(empty_bernoulli_table):
    want = {n: bernoulli(n) for n in (2, 400, 1000)}
    empty_bernoulli_table()
    for n in (400, 2, 1000):
        assert bernoulli(n) == want[n], n


def test_bernoulli_threads_while_table_grows(empty_bernoulli_table):
    indices = list(range(0, 701, 7)) + [1, 3, 600, 700]
    want = {n: bernoulli(n) for n in indices}  # one thread
    empty_bernoulli_table()
    results, errors = [], []

    def worker(seed):
        order = indices[:]
        random.Random(seed).shuffle(order)
        try:
            results.extend((n, bernoulli(n)) for n in order)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(results) == 4 * len(indices)
    for n, got in results:
        assert got == want[n], n


# -- Hurwitz zeta ------------------------------------------------------------

def test_hurwitz_basel():
    z = hurwitz_zeta(2, Fraction(1), 400)
    pi = constant("pi", 460)
    want = pi.mul(pi, 440).scale_rat(Fraction(1, 6), 440)
    d = z - want
    assert abs(d.value_fraction()) <= d.error_fraction()


def test_hurwitz_half_offset():
    z = hurwitz_zeta(2, Fraction(1, 2), 400)
    pi = constant("pi", 460)
    want = pi.mul(pi, 440).scale_rat(Fraction(1, 2), 440)
    d = z - want
    assert abs(d.value_fraction()) <= d.error_fraction()


def test_hurwitz_fourth_power_consistency():
    z = hurwitz_zeta(4, Fraction(1), 300)
    pi = constant("pi", 380)
    p2 = pi.mul(pi, 360)
    want = p2.mul(p2, 340).scale_rat(Fraction(1, 90), 340)
    d = z - want
    assert abs(d.value_fraction()) <= d.error_fraction()


def test_hurwitz_third_offset_against_brute_force():
    # head sum of a million exact terms plus integral-test bracket for the tail
    n_terms = 10**6
    work = 160
    s, a = 3, Fraction(1, 3)
    head = 0
    vs = 27  # 3^s
    for k in range(n_terms):
        head += (vs << work) // (3 * k + 1) ** s
    # integral bounds: I(N+a) <= tail <= f(N) + I(N+a), I(x) = x^(1-s)/(s-1)
    lower = Fraction(head, 1 << work) + Fraction(9, 2 * (3 * n_terms + 1) ** 2)
    upper = lower + Fraction(27, (3 * n_terms + 1) ** 3) + Fraction(2, 1 << work)
    z = hurwitz_zeta(s, a, 140).value_fraction()
    assert lower - Fraction(1, 1 << 130) <= z <= upper + Fraction(1, 1 << 130)


def test_hurwitz_domain_errors():
    with pytest.raises(ValueError):
        hurwitz_zeta(1, Fraction(1), 64)
    with pytest.raises(ValueError):
        hurwitz_zeta(2, Fraction(3, 2), 64)


# -- accelerated alternating sums ---------------------------------------------

def test_alt_sum_log2():
    s = alt_sum(lambda k: Fraction(1, k + 1), 300)
    d = s - constant("log2", 340)
    assert abs(d.value_fraction()) <= d.error_fraction()


def test_alt_sum_catalan_cross_check():
    s = alt_sum(lambda k: Fraction(1, (2 * k + 1) ** 2), 200)
    assert _close(s, KNOWN["catalan"], 55)


def test_alt_sum_beta4_cross_check():
    s = alt_sum(lambda k: Fraction(1, (2 * k + 1) ** 4), 200)
    assert _close(s, KNOWN["cl4_pi2"], 55)


def test_cl2_pi3_agrees_with_the_hurwitz_route():
    # residues of sin(k*pi/3) mod 6: Cl2(pi/3) = sqrt(3)/72 * [zeta(2, 1/6) + zeta(2, 1/3)
    # - zeta(2, 2/3) - zeta(2, 5/6)], a route that shares no code with alt_sum
    for bits in (340, 3400):
        z = (hurwitz_zeta(2, Fraction(1, 6), bits) + hurwitz_zeta(2, Fraction(1, 3), bits)
             - hurwitz_zeta(2, Fraction(2, 3), bits) - hurwitz_zeta(2, Fraction(5, 6), bits))
        hur = z.mul(fix_sqrt_int(3, bits), bits).scale_rat(Fraction(1, 72), bits)
        d = constant("cl2_pi3", bits) - hur
        assert abs(d.value_fraction()) <= d.error_fraction(), bits
        assert d.error_fraction() < Fraction(1, 1 << (bits - 8))


# -- constant monomials ----------------------------------------------------------

def test_const_monomial_one():
    v = const_value(ConstMonomial(), 128)
    assert v.value_fraction() == 1


def test_const_monomial_pi_squared():
    v = const_value(ConstMonomial(pi_pow=2), 200)
    assert v.decimal(10) == "9.8696044010"


def test_const_monomial_degree():
    assert ConstMonomial(pi_pow=2).total_degree == 2
    assert ConstMonomial(pi_pow=1, log2_pow=3).total_degree == 4
    assert ConstMonomial(atom="zeta5").total_degree == 5
    assert ConstMonomial(atom="catalan").total_degree == 2


def test_const_monomial_rejects_unknown_atom():
    with pytest.raises(ValueError):
        ConstMonomial(atom="feigenbaum")


def test_pilog2_monomial_vs_catalog_formula():
    # evaluated against the catalog's combined series through a separate route
    from bbpkit.catalog import default_catalog
    from bbpkit.pformula import evaluate

    rec = default_catalog().get("table-pilog2-2e60")
    table_value = evaluate(rec.rhs.terms[0][1], 700)
    mono = const_value(ConstMonomial(pi_pow=1, log2_pow=1), 700)
    d = table_value - mono
    assert d.certified_below(Fraction(1, 10**200))


# -- direct polylogarithm summation ---------------------------------------------

def test_li_point_negative_half_log():
    # Li_1 at -1/2 is -log(3/2); oracle: log(3/2) = sum (-1)^(k+1) / (k 2^k)
    v = li_point_value(LiPoint(1, 2, 1, 1, "re"), 300)
    s = alt_sum(lambda k: Fraction(1, (k + 1) * 2 ** (k + 1)), 300)
    d = v + s
    assert abs(d.value_fraction()) <= d.error_fraction()


def test_li_point_dilog_half():
    # Re Li_2[1/2] = pi^2/12 - log^2(2)/2
    v = li_point_value(LiPoint(2, 2, 0, 1, "re"), 400)
    pi = constant("pi", 460)
    lg = constant("log2", 460)
    want = pi.mul(pi, 440).scale_rat(Fraction(1, 12), 440) - lg.mul(lg, 440).scale_rat(
        Fraction(1, 2), 440
    )
    d = v - want
    assert abs(d.value_fraction()) <= d.error_fraction()


def test_li_point_catalan_identity_150_digits():
    # 3 Im Li_2[(1/sqrt2) e^{3 pi i/4}] - Im Li_2[(1/sqrt8) e^{pi i/4}] = G
    bits = 560
    a = li_point_value(LiPoint(2, 1, 3, 4, "im"), bits)
    b = li_point_value(LiPoint(2, 3, 1, 4, "im"), bits)
    combo = a.scale_rat(Fraction(3), bits) - b
    d = combo - constant("catalan", bits)
    assert d.certified_below(Fraction(1, 10**150))


@pytest.mark.parametrize("pt", [LiPoint(2, 2, 1, 4, "re"), LiPoint(2, 2, 1, 3, "im"),
                                LiPoint(3, 1, 3, 4, "re"), LiPoint(1, 3, 1, 4, "im")])
def test_li_point_charges_each_part_its_root(pt):
    # a truncation in the sqrt(2) or sqrt(3) part costs up to that root in ulps
    bits = 400
    v = li_point_value.__wrapped__(pt, bits)  # fresh, not served from the cache
    n = [0, 0, 0]
    for _, tv in pt.terms(2 * (v.frac_bits + 2) // pt.scale_exp):
        for part, x in enumerate(tv):
            n[part] += x != 0

    def ceil_root(r: int, count: int) -> int:
        x = r * count * count
        return isqrt(x) + (isqrt(x) ** 2 < x)

    assert v.err_ulp >= n[0] + ceil_root(2, n[1]) + ceil_root(3, n[2]), n


def test_li_point_determinism():
    pt = LiPoint(3, 1, 1, 4, "re")
    assert li_point_value(pt, 200) == li_point_value(pt, 200)
