from dataclasses import replace
from fractions import Fraction
from math import floor

import pytest
from hypothesis import example, given, settings, strategies as st

from bbpkit.pformula import (
    MAX_POWER_BITS,
    MAX_TABLE_BITS,
    POW_MIN_EXP,
    FormulaError,
    ParseError,
    PFormula,
    PHeader,
    align,
    canonicalize,
    combine,
    evaluate,
    parse_p,
    rebase,
    serialize_p,
    stretch,
    zero_formula,
    _blocks,
    _scaled_sum,
)

# the worked base-2^12 length-24 combination for log^2 2
LOG2SQ_VECTOR = (
    2048, 0, -10240, -7168, -512, 0, 256, 1792, 1280, 0, -64, 128,
    -32, 0, 160, 112, 8, 0, -4, -28, -20, 0, 1, -2,
)


# -- parsing -------------------------------------------------------------------

def test_parse_simplest_formula():
    p = parse_p("P(1, 2^1, 1, [1])")
    assert p == PFormula(1, 1, 1, (1,), Fraction(1))


def test_parse_worked_example_text():
    text = "1/2^10 * P(2, 2^12, 24, [" + ", ".join(map(str, LOG2SQ_VECTOR)) + "])"
    p = parse_p(text)
    assert p.degree == 2 and p.base_exp == 12 and p.length == 24
    assert p.pre == Fraction(1, 1024)
    assert p.coeffs == LOG2SQ_VECTOR


def test_parse_arity_error():
    with pytest.raises(FormulaError):
        parse_p("P(2, 2^4, 8, [1, 2])")


def test_parse_nonpositive_base_exponent():
    with pytest.raises(FormulaError):
        parse_p("P(2, 2^0, 1, [1])")


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_p("P(2; 2^4, 2, [1, 2])")
    assert exc.value.position >= 0


def test_power_bit_length_is_bounded():
    assert parse_p(f"1/2^{MAX_POWER_BITS - 1} * P(1, 2^1, 1, [1])").pre == Fraction(
        1, 1 << (MAX_POWER_BITS - 1))
    for text in (f"1/2^{MAX_POWER_BITS} * P(1, 2^1, 1, [1])",
                 "1/3^999999999 * P(1, 2^1, 1, [1])",
                 "1/3^99999999999999999999 * P(1, 2^1, 1, [1])"):
        with pytest.raises(ParseError, match="bits") as exc:
            parse_p(text)
        assert exc.value.position == 2


def test_exponent_is_one_unsigned_integer():
    # a chain of powers would recurse once per link; a signed one is not a power
    for text, position in (("1/2^2^2 * P(1, 2^1, 1, [1])", 5), ("1/2^-1 * P(1, 2^1, 1, [1])", 4),
                           ("1/2" + "^2" * 5000 + " * P(1, 2^1, 1, [1])", 5)):
        with pytest.raises(ParseError) as exc:
            parse_p(text)
        assert exc.value.position == position


def test_formula_error_carries_position():
    with pytest.raises(FormulaError, match=r"\(at position 4\)"):
        parse_p("2 * P(2, 2^4, 8, [1, 2])")


def test_round_trip_canonical_forms():
    for text in (
        "P(1, 2^1, 1, [1])",
        "-3/7 * P(2, 2^12, 4, [5, 0, -1, 2])",
        "sqrt3 * P(2, 2^6, 6, [1, 1, 0, -1, -1, 0])",
    ):
        p = parse_p(text)
        assert parse_p(serialize_p(p)) == p


def test_equal_formulas_hash_equal_however_built():
    fields = (3, 5, 2, (11, -7), Fraction(5, 7), True)
    plain = parse_p("5/7 * P(3, 2^5, 2, [11, -7])")
    assert plain._hash is None  # nothing is hashed at construction
    hash(plain)
    replaced = replace(plain, root3=True)
    assert replaced._hash is None  # the copy does not carry the old hash
    built = PFormula(*fields)
    parsed = parse_p("5/7 * sqrt3 * P(3, 2^5, 2, [11, -7])")
    assert replaced == built == parsed != plain
    assert hash(replaced) == hash(built) == hash(parsed) == hash(fields)
    assert hash(parsed) == hash(fields)  # the kept hash is served again
    assert hash(plain) == hash(fields[:-1] + (False,))


def test_hash_slot_is_left_out_of_repr_and_equality():
    hashed, fresh = parse_p("P(2, 2^4, 2, [1, -3])"), parse_p("P(2, 2^4, 2, [1, -3])")
    hash(hashed)
    assert hashed == fresh and fresh._hash is None
    assert repr(hashed) == repr(fresh) and "_hash" not in repr(hashed)
    assert {hashed: 1}[fresh] == 1


# -- canonical form --------------------------------------------------------------

def test_canonicalize_absorbs_gcd():
    p = PFormula(2, 3, 3, (2, 4, 6), Fraction(1, 2))
    c = canonicalize(p)
    assert c.coeffs == (1, 2, 3) and c.pre == Fraction(1)


def test_canonicalize_idempotent():
    p = canonicalize(PFormula(2, 3, 3, (2, 4, 6), Fraction(1, 2)))
    assert canonicalize(p) == p


def test_canonicalize_sign_convention():
    p = PFormula(1, 2, 3, (-3, 0, 9), Fraction(1))
    c = canonicalize(p)
    assert c.coeffs == (1, 0, -3) and c.pre == Fraction(-3)


def test_canonicalize_zero():
    p = PFormula(2, 5, 3, (0, 0, 0), Fraction(7))
    assert canonicalize(p) == zero_formula(2)
    assert canonicalize(PFormula(2, 5, 1, (3,), Fraction(0))) == zero_formula(2)


# -- structural transforms --------------------------------------------------------

def test_stretch_identity():
    p = parse_p("P(2, 2^4, 2, [3, -1])")
    assert stretch(p, 1) == p


def test_stretch_layout():
    p = parse_p("P(2, 2^4, 2, [3, -1])")
    s = stretch(p, 3)
    assert s.length == 6 and s.base_exp == 4
    assert s.coeffs == (0, 0, 3, 0, 0, -1)
    assert s.pre == p.pre * 9


def test_rebase_identity():
    p = parse_p("P(2, 2^4, 2, [3, -1])")
    assert rebase(p, 1) == p


def test_table_budget_bounds_rebase_and_stretch():
    p = parse_p("P(1, 2^1, 1, [1])")
    # rebase by m builds m coefficients on the base 2^m from one 1-bit coefficient
    assert rebase(p, 4095).length == 4095  # 4095 * (4095 + 1) is just inside 2^24
    for build in (lambda: rebase(p, 4096), lambda: stretch(p, MAX_TABLE_BITS // 2 + 1)):
        with pytest.raises(FormulaError, match=f"longer than {MAX_TABLE_BITS} bits"):
            build()


def test_rebase_layout():
    p = parse_p("P(3, 2^4, 2, [3, -1])")
    r = rebase(p, 2)
    assert r.base_exp == 8 and r.length == 4
    assert r.coeffs == (3 * 16, -16, 3, -1)
    assert r.pre == Fraction(1, 16)


def test_zero_formula_reaches_the_header_asked_for():
    z = zero_formula(2)
    assert stretch(z, 3).header == PHeader(2, 1, 3) and stretch(z, 3).is_zero()
    assert rebase(z, 4).header == PHeader(2, 4, 4) and rebase(z, 4).is_zero()


@pytest.mark.parametrize("factor", [2, 3, 5])
def test_stretch_preserves_value(factor):
    p = parse_p("1/3 * P(2, 2^4, 3, [7, -2, 1])")
    a = evaluate(p, 340)
    b = evaluate(stretch(p, factor), 340)
    d = a - b
    assert abs(d.value_fraction()) <= d.error_fraction() + Fraction(1, 10**100)


@pytest.mark.parametrize("factor", [2, 3, 4])
def test_rebase_preserves_value(factor):
    p = parse_p("-2/5 * P(3, 2^5, 2, [1, 4])")
    a = evaluate(p, 340)
    b = evaluate(rebase(p, factor), 340)
    d = a - b
    assert abs(d.value_fraction()) <= d.error_fraction() + Fraction(1, 10**100)


# -- align -------------------------------------------------------------------------

def _minimal_common_header_bruteforce(headers, limit=16):
    # enumerate reachable (B, l) pairs per input and intersect
    reach = []
    for (b, l) in headers:
        opts = set()
        for m in range(1, limit):
            for t in range(1, limit):
                opts.add((b * m, l * m * t))
        reach.append(opts)
    common = set.intersection(*reach)
    return min(common, key=lambda h: (h[0], h[1]))


def test_align_minimal_header_example():
    ps = [
        parse_p("P(2, 2^4, 2, [1, 1])"),
        parse_p("P(2, 2^4, 8, [1, 0, 0, 0, 0, 0, 0, 1])"),
        parse_p("P(2, 2^12, 8, [1, 0, 0, 0, 0, 0, 0, 1])"),
    ]
    out = align(ps)
    headers = {(p.base_exp, p.length) for p in out}
    assert headers == {(12, 24)}
    assert _minimal_common_header_bruteforce([(4, 2), (4, 8), (12, 8)]) == (12, 24)
    for before, after in zip(ps, out):
        d = evaluate(before, 200) - evaluate(after, 200)
        assert abs(d.value_fraction()) <= d.error_fraction()


def test_align_single_input_unchanged():
    p = parse_p("P(2, 2^4, 2, [1, 1])")
    assert align([p]) == [p]


def test_align_shared_header_unchanged():
    ps = [parse_p("P(2, 2^4, 2, [1, 1])"), parse_p("P(2, 2^4, 2, [5, -3])")]
    assert align(ps) == ps


def test_align_returns_a_zero_formula_as_given():
    z = PFormula(2, 3, 1, (0,))
    ps = [parse_p("P(2, 2^4, 2, [1, 1])"), z, parse_p("P(2, 2^2, 1, [1])")]
    assert [p.header for p in align(ps)] == [(2, 4, 2), (2, 3, 1), (2, 4, 2)]
    assert align(ps)[1] is z
    assert align([z, zero_formula(2)]) == [z, zero_formula(2)]


def test_align_empty_input():
    assert align([]) == []


def test_align_degree_mismatch():
    with pytest.raises(FormulaError):
        align([parse_p("P(2, 2^4, 2, [1, 1])"), parse_p("P(3, 2^4, 2, [1, 1])")])


# -- combine ------------------------------------------------------------------------

def test_combine_single_term_canonicalizes():
    p = PFormula(2, 3, 3, (2, 4, 6), Fraction(1, 2))
    assert combine([(Fraction(1), p)]) == canonicalize(p)


def test_combine_cancellation_gives_zero():
    p = parse_p("P(2, 2^4, 2, [3, -1])")
    assert combine([(Fraction(1), p), (Fraction(-1), p)]).is_zero()


def test_combine_reproduces_worked_example():
    # Li2[-1/4], and the two sqrt(2)-scale points at angles 3pi/4 and pi/4
    t1 = parse_p("1/16 * P(2, 2^4, 2, [-4, 1])")
    t2 = parse_p("1/16 * P(2, 2^4, 8, [-8, 0, 4, -4, 2, 0, -1, 1])")
    t3 = parse_p("1/2^12 * P(2, 2^12, 8, [1024, 0, -128, -64, -16, 0, 2, 1])")
    out = combine([(Fraction(2), t1), (Fraction(-4), t2), (Fraction(-4), t3)])
    assert out.header == PHeader(2, 12, 24)
    assert out.coeffs == LOG2SQ_VECTOR
    assert out.pre == Fraction(1, 1024)


def test_combine_degree_mismatch():
    with pytest.raises(FormulaError):
        combine([(Fraction(1), parse_p("P(2, 2^4, 2, [1, 1])")),
                 (Fraction(1), parse_p("P(3, 2^4, 2, [1, 1])"))])


_ONE = parse_p("P(1, 2^1, 1, [1])")


@pytest.mark.parametrize("call, message", [
    (lambda: combine([]), "empty combination"),
    (lambda: combine([(Fraction(1), _ONE), (Fraction(1), PFormula(1, 1, 1, (1,), Fraction(1), True))]),
     "cannot combine sqrt\\(3\\)-carrying and plain formulas"),
    (lambda: stretch(_ONE, 0), "stretch factor must be positive"),
    (lambda: rebase(_ONE, 0), "rebase factor must be positive"),
], ids=["empty-combine", "mixed-root3-combine", "stretch-by-0", "rebase-by-0"])
def test_transform_refusals(call, message):
    with pytest.raises(FormulaError, match=f"^{message}$"):
        call()


_small_formula = st.builds(
    lambda s, b, coeffs, num, den: PFormula(
        s, b, len(coeffs), tuple(coeffs), Fraction(num, den)
    ),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=5),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=20),
)


@settings(max_examples=40, deadline=None)
@given(_small_formula, _small_formula,
       st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=12),
       st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=12))
def test_combine_linearity(p1, p2, c1, c2):
    if p1.degree != p2.degree:
        p2 = PFormula(p1.degree, p2.base_exp, p2.length, p2.coeffs, p2.pre)
    out = combine([(c1, p1), (c2, p2)])
    lhs = evaluate(out, 128)
    rhs = evaluate(p1, 128).scale_rat(c1, 192) + evaluate(p2, 128).scale_rat(c2, 192)
    d = lhs - rhs
    assert abs(d.value_fraction()) <= d.error_fraction()


@settings(max_examples=40, deadline=None)
@given(_small_formula, st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_transform_value_invariance(p, t, m):
    base = evaluate(p, 128)
    for q in (stretch(p, t), rebase(p, m), stretch(rebase(p, m), t)):
        d = evaluate(q, 128) - base
        assert abs(d.value_fraction()) <= d.error_fraction()


# -- evaluation -----------------------------------------------------------------------

def test_evaluate_two_log_two():
    # sum_{k>=0} 2^-k/(k+1) telescopes to twice the alternating-free log 2 series
    v = evaluate(parse_p("P(1, 2^1, 1, [1])"), 220)
    assert v.decimal(40) == "1.3862943611198906188344642429163531361510"


def test_evaluate_zero_formula():
    v = evaluate(zero_formula(2), 64)
    assert v.mantissa == 0 and v.err_ulp == 0


def test_evaluate_requires_min_precision():
    with pytest.raises(FormulaError):
        evaluate(parse_p("P(1, 2^1, 1, [1])"), 4)


def test_evaluate_is_deterministic():
    p = parse_p("1/3 * P(2, 2^4, 3, [7, -2, 1])")
    assert evaluate(p, 128) == evaluate(p, 128)


# -- the scaled series sum behind evaluate and extract ------------------------------

# signed numerators over odd and even denominators
_sum_formula = st.builds(
    lambda s, b, coeffs, num, den: PFormula(s, b, len(coeffs), tuple(coeffs), Fraction(num, den)),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=10),
    st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=4),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=64),
)
# positions on both sides of the switch to pow(2, e, m)
_positions = st.one_of(st.integers(0, 300), st.integers(POW_MIN_EXP - 300, POW_MIN_EXP + 300))


def _exact_scaled(p, pos, work, start, stop):
    """2^(pos + work) times blocks start..stop-1 of the value, as a Fraction."""
    return sum((p.pre * a / (k * p.length + j) ** p.degree
                * Fraction(2) ** (pos + work - p.base_exp * k)
                for k in range(start, stop) for j, a in enumerate(p.coeffs, start=1)),
               Fraction(0))


@settings(max_examples=150, deadline=None)
@given(_sum_formula, _positions, st.integers(8, 128),
       st.integers(0, 40), st.integers(0, 60), st.integers(0, 60))
@example(parse_p("-5/12 * P(2, 2^3, 2, [3, -1])"), POW_MIN_EXP + 7, 64, 0, 5, 40)
def test_scaled_sum_is_within_its_groups_of_the_exact_floor(p, pos, work, start, cut, length):
    # each group is floored once, so the sum of floors lies below the exact
    # floor by fewer than `groups` ulps, modulo 2^work once pow reduces 2^e;
    # the two sides of a cut add up the same way
    stop, mid = start + length, start + min(cut, length)
    exact = floor(_exact_scaled(p, pos, work, start, stop))
    (lo_acc, lo_groups), (hi_acc, hi_groups) = (_scaled_sum(p, pos, work, start, mid),
                                                _scaled_sum(p, pos, work, mid, stop))
    for acc, groups in (_scaled_sum(p, pos, work, start, stop),
                        (lo_acc + hi_acc, lo_groups + hi_groups)):
        assert (exact - acc) % (1 << work) < max(groups, 1), (acc, groups)


@settings(max_examples=60, deadline=None)
@given(_sum_formula, _positions, st.integers(8, 128))
def test_blocks_leave_a_tail_below_one_ulp(p, pos, work):
    blocks = _blocks(p, pos, work)[0]
    tail = abs(_exact_scaled(p, pos, work, blocks, blocks + 20))
    rest = (abs(p.pre) * sum(abs(a) for a in p.coeffs)
            * Fraction(2) ** (pos + work + 1 - p.base_exp * (blocks + 20)))
    assert tail + rest < 1
