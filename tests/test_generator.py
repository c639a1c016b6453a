from fractions import Fraction

import pytest

from bbpkit.generator import (
    IrrationalCarryError,
    LiPoint,
    PointError,
    generate,
    parse_li_point,
    part_formulas,
    period,
    serialize_li_point,
)
from bbpkit.pformula import MAX_TABLE_BITS, ParseError, PHeader, canonicalize, evaluate, rebase
from mp_oracle import context, polylog_part, within


def test_point_validation():
    with pytest.raises(PointError):
        LiPoint(0, 1, 1, 4, "re")
    with pytest.raises(PointError):
        LiPoint(2, 1, 1, 5, "re")  # unsupported denominator
    with pytest.raises(PointError):
        LiPoint(2, 2, 2, 4, "re")  # not in lowest terms
    with pytest.raises(PointError):
        LiPoint(2, 2, 9, 4, "re")  # angle past 2*pi
    with pytest.raises(PointError):
        LiPoint(2, 3, 0, 1, "re")  # angle zero needs an even scale exponent
    with pytest.raises(PointError):
        LiPoint(2, 2, 0, 1, "im")  # identically zero
    with pytest.raises(PointError):
        LiPoint(2, 3, 1, 3, "re")  # odd scale at a pi/3 angle never cancels


def test_point_text_round_trip():
    for text in ("ReLi(2, 1, 3/4)", "ImLi(3, 5, 1/4)", "ReLi0(4, 2)", "ReLi(2, 6, 1/1)"):
        pt = parse_li_point(text)
        assert parse_li_point(serialize_li_point(pt)) == pt


@pytest.mark.parametrize("text,error,position", [
    ("ReLi(1, 1, 3/4/5)", ParseError, 14),
    ("ReLi(1, 1, 3/4) x", ParseError, 16),
    ("ReLi(1, 1)", ParseError, 9),
    ("Li(1, 1, 3/4)", ParseError, 0),
    ("ReLi(2, 2, 2/4)", PointError, 0),
])
def test_point_text_errors_carry_position(text, error, position):
    with pytest.raises(error, match=rf"\(at position {position}\)$"):
        parse_li_point(text)


def test_period_examples():
    assert period(LiPoint(1, 1, 1, 4, "re")) == 8  # quarter-angle, odd scale
    assert period(LiPoint(2, 2, 1, 1, "re")) == 2  # alternating signs
    assert period(LiPoint(2, 4, 1, 1, "re")) == 2
    assert period(LiPoint(2, 2, 1, 3, "re")) == 6  # sixth root of unity
    assert period(LiPoint(2, 2, 0, 1, "re")) == 1


def test_header_examples():
    # one period of terms: base 2^(q * period / 2), length period
    for pt, header in [(LiPoint(2, 1, 1, 4, "re"), PHeader(2, 4, 8)),
                       (LiPoint(1, 2, 1, 1, "re"), PHeader(1, 2, 2)),
                       (LiPoint(3, 3, 1, 4, "re"), PHeader(3, 12, 8))]:
        assert generate(pt, period(pt)).header == header


def test_generate_quarter_angle_instance():
    # scale 1/sqrt2 at angle 3pi/4, length 8: the classic base-2^4 pattern
    p = generate(LiPoint(1, 1, 3, 4, "re"), 8)
    assert canonicalize(p) == canonicalize(
        type(p)(1, 4, 8, (-8, 0, 4, -4, 2, 0, -1, 1), Fraction(1, 16))
    )
    # numeric value is -(1/2) log(5/2)
    v = evaluate(p, 200)
    assert v.decimal(30) == "-0.458145365937077532591763605884"


def test_generate_alternating_real_pattern():
    # negative real argument, dense length-24 rendering
    s, q = 3, 2
    p = generate(LiPoint(s, q, 1, 1, "re"), 24)
    assert p.base_exp == q * 12
    c = canonicalize(p)
    # a_j = (-1)^j 2^(B - q*j/2) before canonical sign (first entry negative)
    expect = tuple((-1) ** j * (1 << (24 - j)) for j in range(1, 25))
    assert c.coeffs == tuple(-e for e in expect) or c.coeffs == expect
    even = [c.coeffs[2 * j - 1] for j in range(1, 13)]
    assert [abs(x) for x in even] == [1 << (2 * (12 - j)) for j in range(1, 13)]


def test_generate_imaginary_quarter_turn():
    # Im part at angle pi/2: entries only at odd indices mod 4
    p = generate(LiPoint(2, 2, 1, 2, "im"), 4)
    nz = {j + 1 for j, a in enumerate(p.coeffs) if a}
    assert nz == {1, 3}
    # brute-force the defining series for 40 terms as the oracle
    total = Fraction(0)
    pattern = {1: 1, 3: -1}
    for k in range(1, 41):
        t = pattern.get(k % 4, 0)
        if t:
            total += Fraction(t, 2**k * k**2)
    v = evaluate(p, 180)
    assert abs(v.value_fraction() - total) < Fraction(1, 2**38)


def test_generate_matches_direct_summation_everywhere():
    pts = [
        LiPoint(2, 1, 1, 4, "im"),
        LiPoint(4, 3, 1, 4, "re"),
        LiPoint(3, 4, 1, 2, "re"),
        LiPoint(2, 2, 2, 3, "re"),
        LiPoint(5, 2, 0, 1, "re"),
        LiPoint(4, 3, 1, 2, "re"),  # odd scale, angle pi/2: cancels through zeros
    ]
    ctx = context(340)
    for pt in pts:
        p = generate(pt, period(pt))
        assert within(evaluate(p, 340), ctx, polylog_part(pt, ctx), ctx.mpf(10) ** -100), pt


def test_generate_root3_flag():
    pt = LiPoint(2, 2, 1, 3, "im")
    p = generate(pt, period(pt))
    assert p.root3
    ctx = context(340)
    assert within(evaluate(p, 340), ctx, polylog_part(pt, ctx), ctx.mpf(10) ** -100)


def test_generate_consistent_with_rebase_and_stretch():
    pt = LiPoint(2, 1, 3, 4, "re")
    base = generate(pt, 8)
    assert canonicalize(generate(pt, 24)) == canonicalize(rebase(base, 3))


def test_generate_rejects_non_multiple_length():
    with pytest.raises(PointError):
        generate(LiPoint(1, 1, 3, 4, "re"), 12)


def test_a_length_that_is_not_an_int_is_refused():
    pt = LiPoint(2, 1, 3, 4, "re")
    with pytest.raises(PointError, match="16.5 is not an integer"):
        part_formulas(pt, 16.5)
    with pytest.raises(PointError, match="8.0 is not an integer"):
        generate(pt, 8.0)


def test_part_formulas_refuses_a_table_past_the_budget():
    pt = LiPoint(2, 2, 0, 1, "re")  # period 1: length L folds onto the base 2^L
    assert part_formulas(pt, 2896)  # 2896 * (2896 + 2896) is just inside 2^24
    with pytest.raises(PointError, match=f"longer than {MAX_TABLE_BITS} bits"):
        part_formulas(pt, 2897)


def test_generate_rejects_surviving_sqrt2():
    with pytest.raises(IrrationalCarryError):
        generate(LiPoint(2, 1, 1, 1, "re"), 2)  # odd scale at angle pi
    with pytest.raises(IrrationalCarryError):
        generate(LiPoint(2, 2, 1, 4, "re"), 8)  # even scale at a quarter angle
    with pytest.raises(IrrationalCarryError):
        generate(LiPoint(2, 3, 1, 2, "im"), 4)  # odd scale, sine at pi/2


def test_generate_zero_series():
    # sine at angle pi vanishes identically
    p = generate(LiPoint(2, 2, 1, 1, "im"), 2)
    assert p.is_zero()
