from dataclasses import replace
from fractions import Fraction

import pytest

from bbpkit import catalog
from bbpkit.bigmath import GUARD_BITS
from bbpkit.catalog import (
    MAX_CATALOG_BYTES,
    CatalogError,
    IdentityRecord,
    LinearExpr,
    default_catalog,
    derive_bbp,
    load_catalog,
    parse_expr,
    serialize_expr,
    verify,
)
from bbpkit.cli import MAX_BITS
from bbpkit.generator import LiPoint, generate, part_formulas, period
from bbpkit.pformula import PFormula, PHeader, _blocks, canonicalize, combine, rebase, stretch
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


def test_equal_expressions_hash_equal_however_built():
    pi_term = (Fraction(2), ConstMonomial(1))
    p_term = (Fraction(1), PFormula(1, 1, 1, (1,), Fraction(3)))
    parsed = parse_expr("2 * pi + 3 * P(1, 2^1, 1, [1])")
    assert parsed._hash is None  # nothing is hashed at construction
    hash(parsed)
    built = LinearExpr((pi_term, p_term))
    replaced = replace(parse_expr("1 * log2"), terms=(pi_term, p_term))
    assert replaced._hash is None
    assert parsed == built == replaced
    assert hash(parsed) == hash(built) == hash(replaced) == hash(((pi_term, p_term),))
    hash(built)
    assert built == LinearExpr((pi_term, p_term)) and "_hash" not in repr(built)


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


def test_default_catalog_is_the_packaged_file_through_load_catalog():
    packaged = load_catalog(catalog.PACKAGED_CATALOG)
    assert len(default_catalog()) == len(packaged)
    for got, want in zip(default_catalog(), packaged):
        assert got == want


def test_default_catalog_refuses_a_missing_packaged_file(tmp_path, monkeypatch):
    path = str(tmp_path / "catalog.txt")
    monkeypatch.setattr(catalog, "PACKAGED_CATALOG", path)
    default_catalog.cache_clear()
    try:
        with pytest.raises(CatalogError) as exc:
            default_catalog()
    finally:
        default_catalog.cache_clear()
    assert str(exc.value).startswith(f"cannot read catalog {path!r}: ")
    assert "\n" not in str(exc.value)


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


def test_load_refuses_an_unreadable_path(tmp_path):
    for path in (tmp_path / "missing.txt", tmp_path):
        with pytest.raises(CatalogError) as exc:
            load_catalog(str(path))
        assert str(exc.value).startswith(f"cannot read catalog {str(path)!r}: ")
        assert "\n" not in str(exc.value)


RECORD = '[identity]\nid = "x"\nanchor = "a"\nkind = "generator"\nlhs = "0"\nrhs = "0"\n'


@pytest.mark.parametrize("text, message", [
    ('version = "7"\n# comment\n\n' + RECORD, None),
    ('id = "x"\n' + RECORD, "f.txt:1: field outside a record block"),
    (RECORD + "lhs\n", "f.txt:7: cannot parse line 'lhs'"),
    (RECORD + 'lhs = "1"\n', "f.txt:7: duplicate field 'lhs'"),
    (RECORD + 'comb = "typo"\n', "f.txt:7: unknown field 'comb'"),
    (RECORD + '[identity]\nid = "y"\n', "f.txt:7: record missing fields "
                                          "['anchor', 'kind', 'lhs', 'rhs'] (id='y')"),
    (RECORD.replace('"0"\n', '"1/0"\n', 1),
     "f.txt:1: bad record 'x': zero denominator (at position 1)"),
    ("# only a comment\n", "f.txt: catalog contains no records"),
    (b"\xff" + RECORD.encode(), "f.txt: not UTF-8 (invalid start byte at byte 0)"),
])
def test_load_reports_each_error_with_its_line(tmp_path, text, message):
    path = tmp_path / "f.txt"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    if message is None:
        assert [r.id for r in load_catalog(str(path))] == ["x"]
        return
    with pytest.raises(CatalogError) as exc:
        load_catalog(str(path))
    assert str(exc.value) == f"{tmp_path}/{message}"


def test_load_refuses_a_file_past_the_size_limit(tmp_path):
    path = tmp_path / "long.txt"
    path.write_bytes(b"#" * MAX_CATALOG_BYTES + b"\n")
    with pytest.raises(CatalogError, match=f"longer than {MAX_CATALOG_BYTES} bytes"):
        load_catalog(str(path))
    path.write_bytes(b"#" * (MAX_CATALOG_BYTES - len(RECORD) - 1) + b"\n" + RECORD.encode())
    assert [r.id for r in load_catalog(str(path))] == ["x"]  # at the limit


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


def test_evaluate_expr_refuses_an_unknown_term_type():
    with pytest.raises(CatalogError, match="unknown term type str"):
        catalog.evaluate_expr.__wrapped__(LinearExpr(((Fraction(1), "pi"),)), 100)


def test_evaluate_expr_calls_the_term_functions_bound_in_its_module(monkeypatch):
    # a wrapper bound over catalog.const_value after import (as a tracer binds one) sees the call
    seen = []
    const_value = catalog.const_value
    monkeypatch.setattr(catalog, "const_value", lambda m, bits: seen.append(m) or const_value(m, bits))
    catalog.evaluate_expr.__wrapped__(parse_expr("2 * pi"), 100)
    assert seen == [ConstMonomial(1)]


def test_work_budget_admits_every_catalog_term_at_the_largest_precision():
    # the budget check alone, which raises past MAX_WORK: these sums take minutes.
    # The widest `eval`, `verify` or `pslq` sums each formula term, and each part
    # of each point, at MAX_BITS + GUARD_BITS; MAX_BITS + 96 leaves a margin past that.
    work = MAX_BITS + 96
    assert work > MAX_BITS + GUARD_BITS
    checked = 0
    for record in default_catalog():
        for _, term in record.lhs.terms + record.rhs.terms:
            if isinstance(term, LiPoint):
                formulas = [p for _, p in part_formulas(term, period(term))]
            elif isinstance(term, PFormula):
                formulas = [term]
            else:
                continue
            for p in formulas:
                _blocks(p, 0, work)
            checked += len(formulas)
    assert checked == 272


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


def _derive_term_by_term(record: IdentityRecord, target: PHeader) -> PFormula:
    """The reference: align each rhs term onto the target, then combine."""
    parts = []
    for coeff, term in record.rhs.terms:
        if isinstance(term, LiPoint):
            term = generate(term, period(term))
        elif not isinstance(term, PFormula):
            raise CatalogError("non-derivable term")
        if term.degree != target.degree or target.base_exp % term.base_exp:
            raise CatalogError("unreachable base")
        term = rebase(term, target.base_exp // term.base_exp)
        if target.length % term.length:
            raise CatalogError("unreachable length")
        parts.append((coeff, stretch(term, target.length // term.length)))
    out = combine(parts)
    if not out.is_zero() and out.header != target:
        raise CatalogError("combination landed elsewhere")
    return out


@pytest.mark.parametrize("record", list(default_catalog()), ids=lambda r: r.id)
def test_derive_transforms_the_combined_formula_as_each_term_would(record):
    try:
        d, b, l = derive_bbp(record).header
    except CatalogError:
        d, b, l = 2, 60, 120  # a non-derivable rhs: every target is refused
    reachable = [PHeader(d, b, l), PHeader(2, 60, 120), PHeader(d, 2 * b, 2 * l),
                 PHeader(d, 3 * b, 6 * l)]
    unreachable = [PHeader(d, 2 * b, l), PHeader(d + 1, b, l)]
    if b > 1:  # a base that is not a multiple, with room for any length
        unreachable.append(PHeader(d, 2 * b + 1, 2 * (2 * b + 1) * l))
    for target in reachable + unreachable:
        try:
            want = _derive_term_by_term(record, target)
        except CatalogError:
            with pytest.raises(CatalogError):
                derive_bbp(record, target)
        else:
            assert target in reachable
            assert derive_bbp(record, target) == want
