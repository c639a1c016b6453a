import random

import pytest

from bbpkit.extractor import (
    MAX_BIT_POS,
    MAX_GUARD_HEX,
    MAX_HEX_DIGITS,
    ExtractRequest,
    ExtractionError,
    digit_window,
    extract,
    to_extractable,
)
from bbpkit.pformula import FormulaError, evaluate, parse_p, stretch, zero_formula


TWO_LOG_TWO = parse_p("P(1, 2^1, 1, [1])")


def test_two_log_two_leading_window():
    # frac(2 log 2) = 0.62E42FEFA39E... in hex
    assert digit_window(TWO_LOG_TWO, 0, 8, 128) == "62E42FEF"
    r = extract(ExtractRequest(TWO_LOG_TWO, 0, 8))
    assert r.digits == "62E42FEF"
    assert r.confidence_bits > 0


def test_window_of_zero_formula():
    assert digit_window(zero_formula(2), 0, 8, 128) == "00000000"
    assert extract(ExtractRequest(zero_formula(2), 5, 8)).digits == "00000000"


def test_window_concatenation():
    w16 = digit_window(TWO_LOG_TWO, 0, 16, 256)
    assert w16 == digit_window(TWO_LOG_TWO, 0, 8, 256) + digit_window(TWO_LOG_TWO, 32, 8, 256)


def test_window_requires_precision():
    with pytest.raises(FormulaError):
        digit_window(TWO_LOG_TWO, 100, 8, 128)


def test_extract_matches_window_on_sample_formulas():
    rng = random.Random(99)
    formulas = [
        TWO_LOG_TWO,
        parse_p("1/16 * P(2, 2^4, 8, [-8, 0, 4, -4, 2, 0, -1, 1])"),
        parse_p("3/2^7 * P(2, 2^12, 24, [2048, 0, -10240, -7168, -512, 0, 256, 1792, "
                "1280, 0, -64, 128, -32, 0, 160, 112, 8, 0, -4, -28, -20, 0, 1, -2])"),
        parse_p("-5/2^3 * P(4, 2^8, 4, [64, -16, 0, 1])"),
    ]
    for f in formulas:
        for _ in range(4):
            pos = rng.randrange(0, 3000)
            want = digit_window(f, pos, 8, pos + 32 + 96)
            got = extract(ExtractRequest(f, pos, 8)).digits
            assert got == want, (f, pos)


def test_extract_matches_window_across_the_catalog():
    # twenty (formula, position) samples drawn from derived catalog formulas,
    # positions up to 2e4; one full-precision evaluation per formula feeds the
    # oracle windows for both of its positions
    from bbpkit.catalog import default_catalog
    from bbpkit.cli import derive_minimal
    from bbpkit.pformula import canonicalize

    cat = default_catalog()
    ids = [
        "deg2-log2sq-2e12", "deg2-pi2-2e12", "deg2-catalan-2e12", "deg2-pilog2-2e12",
        "deg3-zeta3-2e12", "deg3-pi3-2e60", "deg5-zeta5-2e60",
        "table-pi2-2e60", "table-catalan-2e60", "table-log2sq-2e60",
    ]
    rng = random.Random(424242)
    checked = 0
    for rid in ids:
        rec = cat.get(rid)
        terms = rec.rhs.terms
        if len(terms) == 1 and not hasattr(terms[0][1], "terms") and hasattr(terms[0][1], "coeffs"):
            formula = canonicalize(terms[0][1])
        else:
            formula = derive_minimal(rec)
        positions = sorted(rng.randrange(0, 20_001) for _ in range(2))
        prec = positions[-1] + 32 + 96
        for pos in positions:
            want = digit_window(formula, pos, 8, prec)
            got = extract(ExtractRequest(formula, pos, 8)).digits
            assert got == want, (rid, pos)
            checked += 1
    assert checked == 20


def test_extract_position_shift_drops_leading_digit():
    r0 = extract(ExtractRequest(TWO_LOG_TWO, 0, 8))
    r4 = extract(ExtractRequest(TWO_LOG_TWO, 4, 8))
    assert r4.digits[:7] == r0.digits[1:]


def test_zero_relation_vector_has_no_extractable_digits():
    # a formula whose value is exactly zero sits on the carry boundary, so the
    # confidence certificate must refuse rather than report digits
    from bbpkit.catalog import default_catalog
    from bbpkit.extractor import ConfidenceError
    from bbpkit.pformula import canonicalize

    vec = canonicalize(default_catalog().get("zero-deg2-2e12-b-table").rhs.terms[0][1])
    with pytest.raises(ConfidenceError):
        extract(ExtractRequest(vec, 100, 8))


def test_extract_deterministic():
    req = ExtractRequest(TWO_LOG_TWO, 1234, 8)
    assert extract(req) == extract(req)


def test_extract_odd_prime_denominator_matches_window():
    # the odd factor joins every modulus; a power-of-two prefactor takes the same path
    for text, pos in (("1/7 * P(3, 2^6, 3, [9, 0, -2])", 900),
                      ("1/4 * P(3, 2^6, 3, [9, 0, -2])", 900),
                      ("1/7 * P(1, 2^1, 1, [1])", 3)):
        f = parse_p(text)
        assert extract(ExtractRequest(f, pos, 8)).digits == digit_window(f, pos, 8, pos + 128)


def test_extract_odd_denominator_matches_window():
    f = parse_p("1/6 * P(2, 2^4, 2, [3, -1])")
    for pos in (0, 1, 100, 777):
        assert extract(ExtractRequest(f, pos, 8)).digits == digit_window(f, pos, 8, pos + 128)


def test_extract_folds_odd_denominator_into_modulus():
    # stretching by the odd factor clears the denominator at unchanged value;
    # extraction must give the same digits with and without that detour
    f = parse_p("-5/48 * P(3, 2^6, 3, [9, 0, -2])")
    g = stretch(f, 3)
    assert g.pre.denominator & (g.pre.denominator - 1) == 0
    d = evaluate(f, 200) - evaluate(g, 200)
    assert abs(d.value_fraction()) <= d.error_fraction()
    for pos in (0, 100, 1500):
        want = digit_window(f, pos, 8, pos + 128)
        assert extract(ExtractRequest(f, pos, 8)).digits == want
        assert extract(ExtractRequest(g, pos, 8)).digits == want


def test_tiny_negative_value_sign_is_certified():
    # |value| = 2^-199 log 2 is far below a 64-bit sign probe; the sign must be
    # certified at higher precision, not taken as positive
    f = parse_p("-1/2^200 * P(1, 2^1, 1, [1])")
    want = digit_window(f, 200, 8, 400)
    assert want == "62E42FEF"
    assert extract(ExtractRequest(f, 200, 8)).digits == want


def test_to_extractable_rejects_root3():
    f = parse_p("sqrt3 * P(2, 2^6, 6, [1, 1, 0, -1, -1, 0])")
    with pytest.raises(ExtractionError):
        to_extractable(f)
    with pytest.raises(ExtractionError):
        extract(ExtractRequest(f, 0, 8))


def test_negative_value_digits_describe_magnitude():
    f = parse_p("-1/16 * P(2, 2^4, 8, [8, 0, -4, 4, -2, 0, 1, -1])")
    for pos in (0, 7, 40):
        assert extract(ExtractRequest(f, pos, 8)).digits == digit_window(f, pos, 8, pos + 128)


def test_request_validation():
    with pytest.raises(ExtractionError):
        ExtractRequest(TWO_LOG_TWO, -1, 8)
    with pytest.raises(ExtractionError):
        ExtractRequest(TWO_LOG_TWO, 0, 0)
    with pytest.raises(ExtractionError):
        ExtractRequest(TWO_LOG_TWO, 0, 8, 0)
    ExtractRequest(TWO_LOG_TWO, MAX_BIT_POS, MAX_HEX_DIGITS, MAX_GUARD_HEX)
    with pytest.raises(ExtractionError):
        ExtractRequest(TWO_LOG_TWO, MAX_BIT_POS + 1, 8)
    with pytest.raises(ExtractionError):
        ExtractRequest(TWO_LOG_TWO, 0, MAX_HEX_DIGITS + 1)
    with pytest.raises(ExtractionError):
        ExtractRequest(TWO_LOG_TWO, 0, 8, MAX_GUARD_HEX + 1)
