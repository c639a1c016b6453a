from fractions import Fraction

import pytest

from bbpkit.catalog import (
    CatalogError,
    IdentityRecord,
    default_catalog,
    derive_bbp,
    load_catalog,
    parse_expr,
    serialize_expr,
    verify,
)
from bbpkit.generator import LiPoint
from bbpkit.pformula import PFormula, PHeader, canonicalize
from bbpkit.reference import ConstMonomial


# -- expression grammar -------------------------------------------------------

def test_parse_monomial_expression():
    e = parse_expr("1/12 * pi^2 + -1/2 * log2^2")
    assert len(e.terms) == 2
    (c1, t1), (c2, t2) = e.terms
    assert c1 == Fraction(1, 12) and t1 == ConstMonomial(pi_pow=2)
    assert c2 == Fraction(-1, 2) and t2 == ConstMonomial(log2_pow=2)


def test_parse_mixed_products_and_points():
    e = parse_expr("3/32 * pi * log2^3 + 2 * ImLi(4, 3, 1/4)")
    (c1, t1), (c2, t2) = e.terms
    assert t1 == ConstMonomial(pi_pow=1, log2_pow=3)
    assert t2 == LiPoint(4, 3, 1, 4, "im")


def test_parse_inline_p_form():
    e = parse_expr("1/2^10 * P(2, 2^12, 24, [" + ", ".join(["1"] * 24) + "])")
    coeff, term = e.terms[0]
    assert coeff == 1
    assert isinstance(term, PFormula)
    assert term.pre == Fraction(1, 1024)


def test_parse_bare_zero_and_minus():
    z = parse_expr("0")
    assert z.terms[0][0] == 0
    e = parse_expr("5 * Cl2pi3 - 1 * pi * log2")
    assert e.terms[1][0] == Fraction(-1)


def test_expression_round_trip():
    for text in (
        "1 * G",
        "3 * ImLi(2, 1, 3/4) + -1 * ImLi(2, 3, 1/4)",
        "1/12 * pi^2 + -1/2 * log2^2",
        "403/4 * zeta5 + -2/3 * pi^4 * log2 + 1 * pi^2 * log2^3 + -3/2 * log2^5",
    ):
        e = parse_expr(text)
        assert parse_expr(serialize_expr(e)) == e


def test_every_catalog_side_round_trips():
    sides = [e for rec in default_catalog() for e in (rec.lhs, rec.rhs)]
    assert len(sides) == 2 * len(default_catalog())
    assert [e for e in sides if parse_expr(serialize_expr(e)) != e] == []


def test_prefactor_rationals_belong_to_the_inline_formula():
    e = parse_expr("1 * 1/2^10 * P(1, 2^1, 1, [1])")
    assert e.terms == ((Fraction(1), PFormula(1, 1, 1, (1,), Fraction(1, 1024))),)
    assert parse_expr("pi - P(1, 2^1, 1, [1])").terms == (
        (Fraction(1), ConstMonomial(pi_pow=1)),
        (Fraction(1), PFormula(1, 1, 1, (1,), Fraction(-1))),
    )
    assert parse_expr("-P(1, 2^1, 1, [1])").terms == (
        (Fraction(1), PFormula(1, 1, 1, (1,), Fraction(-1))),
    )


@pytest.mark.parametrize("text,position", [
    ("1 * ReLi(1, 1, 3/4/5)", 18),
    ("1 * pi + ", 9),
    ("* pi", 0),
    ("2^999999999 * pi", 0),
    ("1 * pi 2", 7),
])
def test_malformed_expression_error_has_position(text, position):
    with pytest.raises(CatalogError, match=rf"\(at position {position}\)$"):
        parse_expr(text)


def test_unknown_record_id():
    with pytest.raises(CatalogError, match="unknown record id 'nope'"):
        default_catalog().get("nope")


def test_duplicate_terms_merge():
    e = parse_expr("2 * pi + 3 * pi")
    assert len(e.terms) == 1
    assert e.terms[0][0] == 5


def test_rejects_garbage():
    with pytest.raises(CatalogError):
        parse_expr("")
    with pytest.raises(CatalogError):
        parse_expr("2 * tau")
    with pytest.raises(CatalogError):
        parse_expr("2 * pi * ImLi(2, 1, 3/4)")


# -- catalog loading -----------------------------------------------------------

def test_default_catalog_inventory():
    cat = default_catalog()
    assert len(cat) >= 45
    kinds = {k: 0 for k in ("generator", "bbp_ready", "zero_relation", "printed_formula")}
    for rec in cat:
        kinds[rec.kind] += 1
        assert rec.anchor
    assert all(v > 0 for v in kinds.values())
    # seven zero-relation identities plus the printed vectors
    ids = [r.id for r in cat if r.kind == "zero_relation"]
    assert len([i for i in ids if not i.endswith("-table")]) == 7


def test_load_rejects_empty_file(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    with pytest.raises(CatalogError):
        load_catalog(str(p))


def test_load_rejects_duplicate_id(tmp_path):
    p = tmp_path / "dup.txt"
    block = '[identity]\nid = "x"\nanchor = "a"\nkind = "generator"\nlhs = "0"\nrhs = "0"\n'
    p.write_text(block + "\n" + block)
    with pytest.raises(CatalogError) as exc:
        load_catalog(str(p))
    assert "x" in str(exc.value)


def test_load_reports_position_on_parse_error(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text('[identity]\nid = "x"\nanchor = "a"\nkind = "generator"\nlhs = "???"\nrhs = "0"\n')
    with pytest.raises(CatalogError) as exc:
        load_catalog(str(p))
    assert ":1" in str(exc.value)


def test_record_validation():
    zero = parse_expr("0")
    with pytest.raises(CatalogError):
        IdentityRecord("", "a", "generator", zero, zero)
    with pytest.raises(CatalogError):
        IdentityRecord("x", "", "generator", zero, zero)
    with pytest.raises(CatalogError):
        IdentityRecord("x", "a", "conjecture", zero, zero)


# -- verification ----------------------------------------------------------------

def test_verify_reflection_record_at_200():
    rep = verify(default_catalog().get("deg2-reflection-half"), 200)
    assert rep.passed


def test_verify_zeta5_record_at_200():
    rep = verify(default_catalog().get("deg5-zeta5-2e60"), 200)
    assert rep.passed


def test_verify_structurally_equal_sides():
    e = parse_expr("1 * pi^2")
    rec = IdentityRecord("t", "a", "generator", e, e)
    rep = verify(rec, 50)
    assert rep.passed and rep.residual.mantissa == 0


# -- derivation --------------------------------------------------------------------

def test_derive_single_pterm_record_is_canonical_form():
    cat = default_catalog()
    rec = cat.get("table-log2sq-2e12")
    out = derive_bbp(rec, PHeader(2, 12, 24))
    assert out == canonicalize(rec.rhs.terms[0][1])


def test_derive_worked_example():
    cat = default_catalog()
    out = derive_bbp(cat.get("deg2-kummer-half-i"), PHeader(2, 12, 24))
    want = canonicalize(cat.get("table-log2sq-2e12").rhs.terms[0][1])
    assert out == want


def test_derive_rejects_monomial_terms():
    rec = default_catalog().get("deg2-reflection-half")
    bad = IdentityRecord("t", "a", "generator", rec.lhs, rec.lhs)
    with pytest.raises(CatalogError):
        derive_bbp(bad, PHeader(2, 12, 24))


def test_derive_rejects_unreachable_header():
    rec = default_catalog().get("deg2-kummer-half-i")
    with pytest.raises(CatalogError):
        derive_bbp(rec, PHeader(2, 10, 24))
