"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""
import itertools
import time
from fractions import Fraction

import pytest

from bbpkit.catalog import bits_for_digits, default_catalog, derive_bbp, verify
from bbpkit.extractor import ExtractRequest, digit_window, extract
from bbpkit.generator import LiPoint, generate, period
from bbpkit.pformula import PFormula, PHeader, canonicalize, evaluate
from bbpkit.reference import constant, const_value, ConstMonomial, hurwitz_zeta, li_point_value
from bbpkit.relations import pslq
from mp_oracle import context, polylog_part, within

CATALOG = default_catalog()


def _report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_catalog_certification():
    """Every shipped record passes verification at 200 decimal digits."""
    t0 = time.time()
    failures = []
    for rec in CATALOG:
        if not verify(rec, 200).passed:
            failures.append(rec.id)
    elapsed = time.time() - t0
    assert len(CATALOG) >= 45
    assert not failures, failures
    assert elapsed < 600
    _report(f"1 PASS: {len(CATALOG)} records certified at 200 digits in {elapsed:.1f}s")


def test_criterion_2_worked_example_reproduction():
    """The combination pipeline reproduces the printed log^2 2 vector exactly."""
    derived = derive_bbp(CATALOG.get("deg2-kummer-half-i"), PHeader(2, 12, 24))
    stored = canonicalize(CATALOG.get("table-log2sq-2e12").rhs.terms[0][1])
    assert derived == stored
    assert derived.pre in (Fraction(1, 1024), Fraction(-1, 1024))
    _report("2 PASS: worked log^2 2 combination matches the printed 24-entry vector")


@pytest.mark.parametrize(
    "table_id,pre",
    [
        ("table-pi2-2e60", Fraction(3, 2**54)),
        ("table-log2sq-2e60", Fraction(1, 2**57)),
        ("table-pilog2-2e60", Fraction(1, 2**55)),
        ("table-catalan-2e60", Fraction(1, 2**60)),
    ],
)
def test_criterion_3_printed_table_reproduction(table_id, pre):
    """All four base-2^60 length-120 tables are re-derived structurally."""
    table = CATALOG.get(table_id)
    stored_raw = table.rhs.terms[0][1]
    assert abs(stored_raw.pre) == pre
    derived = derive_bbp(CATALOG.get(table.combo), PHeader(2, 60, 120))
    stored = canonicalize(stored_raw)
    structural = derived == stored
    if not structural:  # pragma: no cover - erratum path, numerically mandatory
        bits = bits_for_digits(200)
        d = evaluate(derived, bits) - evaluate(stored_raw, bits)
        assert d.certified_below(Fraction(1, 10**200)), (
            f"suspected erratum in {table_id}: structural and numerical mismatch"
        )
        _report(f"3 NOTE: {table_id} differs structurally (suspected erratum), values agree")
    _report(f"3 PASS: {table_id} re-derived {'structurally' if structural else 'numerically'}")


def test_criterion_4_zero_relations():
    """All seven zero relations certify below 10^-200; the degree-2 base-2^12
    relation lattice is rediscovered by the integer-relation search at 120
    digits and contains both printed vectors."""
    zero_ids = [r.id for r in CATALOG
                if r.kind == "zero_relation" and not r.id.endswith("-table")]
    assert len(zero_ids) == 7
    for rid in zero_ids + [r.id for r in CATALOG if r.id.endswith("-table")
                           and r.kind == "zero_relation"]:
        rep = verify(CATALOG.get(rid), 200)
        assert rep.passed, rid
    _report("4 PASS: seven zero relations (and three printed vectors) certified at 200 digits")

    bits = bits_for_digits(120)
    basis = [
        evaluate(PFormula(2, 12, 24, tuple(int(i == j) for i in range(24))), bits)
        for j in range(24)
    ]
    first = pslq(basis, 1 << 16, bits)
    assert first.status == "found"
    r1 = first.relation.coeffs
    # the relation space has rank two; drop a unit-pivot coordinate and search
    # the section for the second generator
    pivot = next(i for i, c in enumerate(r1) if abs(c) == 1)
    second = pslq([basis[j] for j in range(24) if j != pivot], 1 << 16, bits)
    assert second.status == "found"
    assert (first.iterations, second.iterations) == (381, 457)
    c2 = second.relation.coeffs
    r2 = tuple(list(c2[:pivot]) + [0] + list(c2[pivot:]))

    def lattice_coordinates(target):
        for i, j in itertools.combinations(range(24), 2):
            det = r1[i] * r2[j] - r1[j] * r2[i]
            if det:
                a, rem_a = divmod(target[i] * r2[j] - target[j] * r2[i], det)
                b, rem_b = divmod(r1[i] * target[j] - r1[j] * target[i], det)
                if rem_a or rem_b:
                    return None
                if all(a * r1[k] + b * r2[k] == target[k] for k in range(24)):
                    return a, b
                return None
        return None

    recovered = {}
    for tid in ("zero-deg2-2e12-a-table", "zero-deg2-2e12-b-table"):
        vec = canonicalize(CATALOG.get(tid).rhs.terms[0][1]).coeffs
        coords = lattice_coordinates(vec)
        assert coords is not None, f"{tid} not in the recovered relation lattice"
        recovered[tid] = coords
    _report(
        "4 PASS: pslq at 120 digits recovered the degree-2 base-2^12 relation lattice; "
        f"printed vectors sit at integer coordinates {recovered}"
    )


def test_criterion_5_extraction_consistency():
    """Extraction agrees with the evaluator window at positions 0, 4e3, 4e4,
    and the 4e4 extraction finishes within 60 seconds."""
    zeta3 = derive_bbp(CATALOG.get("deg3-zeta3-2e12"))
    pi2 = canonicalize(CATALOG.get("table-pi2-2e60").rhs.terms[0][1])
    for name, formula in (("zeta3-2e12", zeta3), ("pi2-2e60", pi2)):
        big_eval_bits = 40_000 + 32 + 96
        for pos in (0, 4_000, 40_000):
            t0 = time.time()
            got = extract(ExtractRequest(formula, pos, 8))
            elapsed = time.time() - t0
            want = digit_window(formula, pos, 8, big_eval_bits)
            assert got.digits == want, (name, pos)
            if pos == 40_000:
                assert elapsed < 60, f"{name} extraction took {elapsed:.1f}s"
                _report(
                    f"5 PASS: {name} digits at 4e4 = {got.digits} "
                    f"(= evaluator window, {elapsed:.2f}s)"
                )


def test_criterion_6_generator_reference_agreement():
    """evaluate(generate(pt)) matches mpmath's polylog to 100 digits across
    the supported point grid (degrees <= 5, scale exponents <= 6)."""
    pts = []
    for s in range(1, 6):
        for q in range(1, 7):
            if q % 2:
                for n in (1, 3):
                    pts.append(LiPoint(s, q, n, 4, "re"))
                    pts.append(LiPoint(s, q, n, 4, "im"))
            else:
                pts.append(LiPoint(s, q, 1, 1, "re"))
                pts.append(LiPoint(s, q, 1, 2, "re"))
                pts.append(LiPoint(s, q, 1, 2, "im"))
                pts.append(LiPoint(s, q, 1, 3, "re"))
                pts.append(LiPoint(s, q, 1, 3, "im"))
                pts.append(LiPoint(s, q, 2, 3, "re"))
                pts.append(LiPoint(s, q, 0, 1, "re"))
    t0 = time.time()
    bits = 340  # 100 digits plus slack
    ctx = context(bits)
    tol = ctx.mpf(10) ** -100
    for pt in pts:
        f = generate(pt, period(pt))
        assert within(evaluate(f, bits), ctx, polylog_part(pt, ctx), tol), pt
    elapsed = time.time() - t0
    assert elapsed < 300
    _report(f"6 PASS: {len(pts)} grid points agree to 100 digits in {elapsed:.1f}s")


def test_criterion_7_oracle_self_consistency():
    """hurwitz_zeta(2,1) = pi^2/6 and the accelerated zeta(3) matches the
    trilogarithm-ladder rearrangement, both at 200 digits."""
    bits = bits_for_digits(200)
    tol = Fraction(1, 10**200)

    z21 = hurwitz_zeta(2, Fraction(1), bits)
    pi = constant("pi", bits + 16)
    d = z21 - pi.mul(pi, bits + 8).scale_rat(Fraction(1, 6), bits + 8)
    assert d.certified_below(tol)

    # zeta(3) = 8/7 * (pi^2 log2 / 12 - log^3 2 / 6 + Li_3(1/2))
    zeta3 = constant("zeta3", bits)
    pieces = (
        const_value(ConstMonomial(pi_pow=2, log2_pow=1), bits).scale_rat(Fraction(1, 12), bits)
        - const_value(ConstMonomial(log2_pow=3), bits).scale_rat(Fraction(1, 6), bits)
        + li_point_value(LiPoint(3, 2, 0, 1, "re"), bits)
    )
    d = zeta3 - pieces.scale_rat(Fraction(8, 7), bits)
    assert d.certified_below(tol)
    _report("7 PASS: Basel value and ladder-rearranged zeta(3) agree at 200 digits")


@pytest.mark.parametrize("s,q", [(2, 1), (3, 3)])
def test_criterion_8_prefactor_adjudication(s, q):
    """The derived quarter-angle prefactor 1/2^(12q) is numerically right; the
    alternative 1/2^(12q-s) rendering is off by exactly 2^s."""
    pt = LiPoint(s, q, 1, 4, "re")
    f = generate(pt, 24)
    assert f.base_exp == 12 * q
    bits = 340
    ctx = context(bits)
    want = polylog_part(pt, ctx)
    assert within(evaluate(f, bits), ctx, want, ctx.mpf(10) ** -100)

    inflated = PFormula(f.degree, f.base_exp, f.length, f.coeffs, f.pre * 2**s, f.root3)
    gap = abs(want) * (2**s - 1) / 2
    assert not within(evaluate(inflated, bits), ctx, want, gap)
    _report(
        f"8 PASS: (s={s}, q={q}) quarter-angle series carries prefactor 1/2^{12*q}; "
        f"the 1/2^{12*q - s} variant misses by a factor 2^{s}"
    )
