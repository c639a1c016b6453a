"""The precision cache behind evaluate, li_point_value, constant, const_value
and evaluate_expr."""
import random
import sys
import threading

import pytest

from bbpkit.bigmath import CACHE_KEYS, GUARD_BITS, FixReal, precision_cache
from bbpkit.catalog import default_catalog, evaluate_expr, parse_expr
from bbpkit.generator import LiPoint
from bbpkit.pformula import FormulaError, parse_p, evaluate
from bbpkit.reference import ConstMonomial, const_value, constant, li_point_value


def _overlap(a: FixReal, b: FixReal) -> bool:
    """The certified intervals of a and b share a point."""
    d = a - b
    return abs(d.mantissa) <= d.err_ulp


def test_cache_info_counts_a_hit_and_a_miss():
    p = parse_p("5/7 * P(3, 2^5, 2, [11, -7])")
    before = evaluate.cache_info()
    evaluate(p, 300)
    mid = evaluate.cache_info()
    evaluate(p, 200)
    after = evaluate.cache_info()
    assert (mid.hits - before.hits, mid.misses - before.misses) == (0, 1)
    assert (after.hits - mid.hits, after.misses - mid.misses) == (1, 0)


CONSTANTS = ("pi", "log2", "zeta3", "zeta5", "catalan", "cl4_pi2", "cl2_pi3")


@pytest.mark.parametrize("fn,key", [
    (evaluate, parse_p("-3 * P(2, 2^3, 3, [4, 0, -9])")),
    (evaluate, parse_p("1/5 * sqrt3 * P(2, 2^1, 1, [1])")),
    (li_point_value, LiPoint(2, 2, 1, 4, "re")),
    (li_point_value, LiPoint(3, 2, 3, 4, "im")),
    *((constant, name) for name in CONSTANTS),
    (const_value, ConstMonomial()),
    (const_value, ConstMonomial(0, 0, "cl2_pi3")),
    (const_value, ConstMonomial(2, 1, "zeta3")),
    (evaluate_expr, parse_expr("5/3")),
    (evaluate_expr, parse_expr("3 * G + -1/2 * P(2, 2^3, 2, [1, -1]) + 7 * ReLi(2, 2, 1/2)")),
])
def test_every_cached_value_carries_exactly_the_guard_bits(fn, key):
    # fresh and from a hit, the one contract: prec_bits + GUARD_BITS fraction bits
    assert fn.__wrapped__(key, 300).frac_bits == 300 + GUARD_BITS
    fn(key, 700)
    before = fn.cache_info()
    assert fn(key, 300).frac_bits == 300 + GUARD_BITS
    assert fn.cache_info().hits == before.hits + 1


@pytest.mark.parametrize("width", [0, GUARD_BITS - 1, GUARD_BITS + 1])
def test_a_value_of_another_width_raises_and_is_not_cached(width):
    @precision_cache()
    def value(key, prec_bits):
        return FixReal.from_int(key, prec_bits + width)

    for _ in range(2):
        with pytest.raises(ArithmeticError):
            value(1, 16)
    assert value.cache_info() == (0, 2)


@pytest.mark.parametrize("fn,key", [
    (evaluate, parse_p("-3 * P(2, 2^3, 3, [4, 0, -9])")),
    (li_point_value, LiPoint(3, 2, 3, 4, "im")),
    (constant, "zeta5"),
])
def test_hit_from_higher_precision_matches_a_fresh_value(fn, key):
    stored = fn(key, 900)
    before = fn.cache_info()
    hit = fn(key, 250)
    assert fn.cache_info().hits == before.hits + 1
    fresh = fn.__wrapped__(key, 250)
    assert hit.frac_bits == fresh.frac_bits
    assert _overlap(hit, fresh)
    assert _overlap(hit, stored)  # the truncation is charged to the error bound


@pytest.mark.parametrize("seed", range(3))
def test_warm_sides_and_monomials_match_fresh_values(seed):
    rng = random.Random(seed)
    for record in rng.sample(default_catalog().records, 5):
        high = rng.randrange(200, 1200)
        low = rng.randrange(8, high + 1)
        calls = [(evaluate_expr, record.lhs), (evaluate_expr, record.rhs)]
        calls += [(const_value, term) for _, term in record.lhs.terms + record.rhs.terms
                  if isinstance(term, ConstMonomial)]
        for fn, key in calls:
            stored = fn(key, high)
            before = fn.cache_info()
            warm = fn(key, low)
            assert fn.cache_info() == (before.hits + 1, before.misses), (record.id, key)
            fresh = fn.__wrapped__(key, low)
            assert warm.frac_bits == fresh.frac_bits, (record.id, key)
            assert _overlap(warm, fresh), (record.id, key)
            assert _overlap(warm, stored), (record.id, key)


def test_higher_request_recomputes_and_replaces_the_entry():
    p = parse_p("P(4, 2^6, 2, [1, 3])")
    evaluate(p, 100)
    before = evaluate.cache_info()
    high = evaluate(p, 500)
    assert evaluate.cache_info().misses == before.misses + 1
    assert high == evaluate.__wrapped__(p, 500)
    served = evaluate(p, 400)  # from the 500-bit entry, not the 100-bit one
    assert evaluate.cache_info().hits == before.hits + 1
    assert served.frac_bits == evaluate.__wrapped__(p, 400).frac_bits
    assert served.err_ulp <= 2


def test_precision_floor_holds_after_a_higher_precision_call():
    p = parse_p("P(1, 2^2, 1, [3])")
    evaluate(p, 400)
    with pytest.raises(FormulaError):
        evaluate(p, 4)


def test_oldest_key_is_evicted_first():
    computed = []

    @precision_cache()
    def value(key, prec_bits):
        computed.append(key)
        return FixReal.from_int(key, prec_bits + GUARD_BITS)

    for key in range(CACHE_KEYS + 1):
        value(key, 16)
    assert value.cache_info().misses == CACHE_KEYS + 1
    value(CACHE_KEYS, 16)
    assert value.cache_info().hits == 1
    value(0, 16)
    assert value.cache_info().misses == CACHE_KEYS + 2
    assert computed[-1] == 0


def test_a_late_lower_precision_result_keeps_the_higher_entry():
    entered, release = threading.Event(), threading.Event()

    @precision_cache()
    def value(key, prec_bits):
        if prec_bits == 100:  # the slow call: missed, still computing
            entered.set()
            release.wait(timeout=10)
        return FixReal.from_int(key, prec_bits + GUARD_BITS)

    slow = threading.Thread(target=value, args=(7, 100))
    slow.start()
    assert entered.wait(timeout=10)
    value(7, 500)
    release.set()
    slow.join(timeout=10)
    assert not slow.is_alive()
    value(7, 400)
    assert value.cache_info() == (1, 2)


def test_exceptions_are_not_cached():
    @precision_cache()
    def failing(key, prec_bits):
        raise ArithmeticError(key)

    for _ in range(2):
        with pytest.raises(ArithmeticError):
            failing("x", 32)
    assert failing.cache_info().misses == 2


def test_threads_at_mixed_precisions_agree_with_single_threaded_values():
    calls = [(constant, name, bits) for name in ("pi", "log2", "zeta3", "catalan")
             for bits in (64, 700, 1500, 2600)]
    calls += [(evaluate, parse_p(text), bits)
              for text in ("1/9 * P(2, 2^7, 4, [5, -1, 2, 3])", "P(3, 2^9, 3, [1, 1, -6])")
              for bits in (40, 300, 1100, 2000)]
    calls += [(fn, key, bits)
              for fn, key in ((const_value, ConstMonomial(2, 1, "zeta3")),
                              (evaluate_expr, parse_expr("3 * G + -1/2 * P(2, 2^3, 2, [1, -1])")))
              for bits in (40, 700, 1500)]
    want = {(fn, key, bits): fn.__wrapped__(key, bits) for fn, key, bits in calls}
    results, errors = [], []

    def worker(seed):
        order = calls[:]
        random.Random(seed).shuffle(order)
        try:
            for fn, key, bits in order:
                results.append(((fn, key, bits), fn(key, bits)))
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
    assert len(results) == 4 * len(calls)
    for call, got in results:
        assert got.frac_bits == want[call].frac_bits, call
        assert _overlap(got, want[call]), call
