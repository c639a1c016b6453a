"""Identity catalog: rational linear combinations over polylog points,
constant monomials and inline P-forms, with verification and derivation.

The catalog file is record-per-block structured text:

    [identity]
    id = "deg2-catalan-2e12"
    anchor = "solved pair of Abel dilogarithm evaluations, imaginary parts"
    kind = "bbp_ready"
    lhs = "1 * G"
    rhs = "3 * ImLi(2, 1, 3/4) + -1 * ImLi(2, 3, 1/4)"

Expression grammar (the tokenizer and grammar of pformula and generator):
terms joined by + or -, each a product of rationals and either constant atoms
(pi and log2 with ^ powers adding up to at most MAX_MONOMIAL_POWER, and at
most one of zeta3, zeta5, G, Cl2pi3, Cl4pi2), one polylog point
(ReLi/ImLi/ReLi0 form) or one inline [sqrt3 *] P(...) formula.  The
rationals before a P(...) are its prefactor, and that term's coefficient is 1.
Integers accept the a^e shorthand.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from importlib import resources
from typing import Iterable, NamedTuple, Union

from .bigmath import CACHE_KEYS, FixReal
from .generator import LiPoint, generate, period, scan_li_point
from .pformula import (ParseError, PFormula, PHeader, Scanner, combine, evaluate, rebase,
                       scan_p, scan_rational, stretch)
from .reference import ConstMonomial, const_value, li_point_value

__all__ = [
    "Term",
    "LinearExpr",
    "IdentityRecord",
    "Catalog",
    "CatalogError",
    "MAX_MONOMIAL_POWER",
    "VerifyReport",
    "parse_expr",
    "serialize_expr",
    "evaluate_expr",
    "load_catalog",
    "default_catalog",
    "verify",
    "derive_bbp",
]

Term = Union[PFormula, LiPoint, ConstMonomial]

KINDS = ("generator", "bbp_ready", "zero_relation", "printed_formula")

MAX_MONOMIAL_POWER = 64  # largest pi^a * log2^b degree a + b in one term; the catalog uses 5

_SPECIAL_ATOMS = {"zeta3": "zeta3", "zeta5": "zeta5", "G": "catalan", "Cl2pi3": "cl2_pi3",
                  "Cl4pi2": "cl4_pi2"}


class CatalogError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class LinearExpr:
    """Non-empty rational-weighted sum of formula / point / monomial terms."""

    terms: tuple[tuple[Fraction, Term], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise CatalogError("linear expression must have at least one term")

    @classmethod
    def make(cls, terms: Iterable[tuple[Fraction, Term]]) -> "LinearExpr":
        """Build with structural duplicates merged and zero terms dropped."""
        merged: dict[Term, Fraction] = {}
        order: list[Term] = []
        for coeff, term in terms:
            if term not in merged:
                merged[term] = Fraction(0)
                order.append(term)
            merged[term] += Fraction(coeff)
        live = tuple((merged[t], t) for t in order if merged[t] != 0)
        if not live:
            live = ((Fraction(0), ConstMonomial()),)
        return cls(live)

    def __str__(self) -> str:
        return serialize_expr(self)


def serialize_expr(expr: LinearExpr) -> str:
    parts = []
    for coeff, term in expr.terms:
        if isinstance(term, ConstMonomial) and term == ConstMonomial():
            parts.append(str(coeff))
        else:
            parts.append(f"{coeff} * {term}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

def _scan_term(sc: Scanner) -> tuple[Fraction, Term]:
    """``[+-]... factor (* factor)...``: rationals times one constant monomial,
    one polylog point or one P(...); the rationals before a P(...) are its
    prefactor, and that term's coefficient is 1."""
    coeff = Fraction(1)
    while sc.peek() in ("+", "-"):
        if sc.next() == "-":
            coeff = -coeff
    powers = {"pi": 0, "log2": 0}
    special = "one"
    point = None
    while True:
        tok = sc.peek()
        alone = point is None and special == "one" and not any(powers.values())
        if tok in ("P", "sqrt3") and alone:
            return Fraction(1), scan_p(sc, coeff)
        if tok in ("ReLi", "ImLi", "ReLi0") and alone:
            point = scan_li_point(sc)
        elif tok in powers and point is None:
            at = sc.i
            sc.next()
            powers[tok] += sc.unsigned("a power") if sc.accept("^") else 1
            if sum(powers.values()) > MAX_MONOMIAL_POWER:
                raise ParseError(f"pi and log2 powers above {MAX_MONOMIAL_POWER} in one term",
                                 sc.position(at))
        elif tok in _SPECIAL_ATOMS and point is None and special == "one":
            sc.next()
            special = _SPECIAL_ATOMS[tok]
        elif tok.isdigit() or tok in ("+", "-"):
            coeff *= scan_rational(sc)
        else:
            raise sc.fail("a term is rationals times one constant monomial, "
                          "one polylog point or one P(...)")
        if not sc.accept("*"):
            return coeff, point or ConstMonomial(powers["pi"], powers["log2"], special)


def parse_expr(text: str) -> LinearExpr:
    """Parse the rational-linear-combination grammar into a LinearExpr.

    Raises CatalogError, with the position of the offending token.
    """
    try:
        sc = Scanner(text)
        terms = [_scan_term(sc)]
        while sc.peek() in ("+", "-"):
            terms.append(_scan_term(sc))
        sc.end()
    except ValueError as exc:
        raise CatalogError(str(exc)) from None
    return LinearExpr.make(terms)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def term_value(term: Term, prec_bits: int) -> FixReal:
    if isinstance(term, PFormula):
        return evaluate(term, prec_bits)
    if isinstance(term, LiPoint):
        return li_point_value(term, prec_bits)
    if isinstance(term, ConstMonomial):
        return const_value(term, prec_bits)
    raise CatalogError(f"unknown term type {type(term).__name__}")


def evaluate_expr(expr: LinearExpr, prec_bits: int) -> FixReal:
    work = prec_bits + 32
    total = FixReal.zero(work)
    for coeff, term in expr.terms:
        if coeff == 0:
            continue
        total = total + term_value(term, work).scale_rat(coeff, work)
    return total


def bits_for_digits(decimal_digits: int) -> int:
    # 10/3 slightly overshoots log2(10)/1, which is what a guard wants
    return decimal_digits * 10 // 3 + 66


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class IdentityRecord:
    id: str
    anchor: str
    kind: str
    lhs: LinearExpr
    rhs: LinearExpr
    notes: str = ""
    combo: str = ""  # for printed tables: id of the combination that derives it

    def __post_init__(self) -> None:
        if not self.id:
            raise CatalogError("record id must be non-empty")
        if not self.anchor:
            raise CatalogError(f"record {self.id!r} has an empty anchor")
        if self.kind not in KINDS:
            raise CatalogError(f"record {self.id!r} has unknown kind {self.kind!r}")


@dataclass(frozen=True)
class Catalog:
    records: tuple[IdentityRecord, ...]
    version: str = "1"

    def __post_init__(self) -> None:
        seen = set()
        for rec in self.records:
            if rec.id in seen:
                raise CatalogError(f"duplicate record id {rec.id!r}")
            seen.add(rec.id)

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def get(self, record_id: str) -> IdentityRecord:
        for rec in self.records:
            if rec.id == record_id:
                return rec
        raise CatalogError(f"unknown record id {record_id!r}")


_KEY_RE = re.compile(r"^(\w+)\s*=\s*\"(.*)\"\s*$")


def _parse_catalog_text(text: str, origin: str) -> Catalog:
    version = "1"
    records: list[IdentityRecord] = []
    block: dict[str, str] | None = None
    block_line = 0

    def close_block() -> None:
        nonlocal block
        if block is None:
            return
        missing = [k for k in ("id", "anchor", "kind", "lhs", "rhs") if k not in block]
        if missing:
            raise CatalogError(
                f"{origin}:{block_line}: record missing fields {missing} "
                f"(id={block.get('id', '?')!r})"
            )
        try:
            rec = IdentityRecord(
                id=block["id"],
                anchor=block["anchor"],
                kind=block["kind"],
                lhs=parse_expr(block["lhs"]),
                rhs=parse_expr(block["rhs"]),
                notes=block.get("notes", ""),
                combo=block.get("combo", ""),
            )
        except ValueError as exc:
            raise CatalogError(
                f"{origin}:{block_line}: bad record {block.get('id', '?')!r}: {exc}"
            ) from exc
        records.append(rec)
        block = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[identity]":
            close_block()
            block = {}
            block_line = lineno
            continue
        m = _KEY_RE.match(line)
        if not m:
            raise CatalogError(f"{origin}:{lineno}: cannot parse line {line!r}")
        key, value = m.group(1), m.group(2)
        if block is None:
            if key == "version":
                version = value
                continue
            raise CatalogError(f"{origin}:{lineno}: field outside a record block")
        if key in block:
            raise CatalogError(f"{origin}:{lineno}: duplicate field {key!r}")
        block[key] = value
    close_block()
    if not records:
        raise CatalogError(f"{origin}: catalog contains no records")
    return Catalog(tuple(records), version)


def load_catalog(path: str) -> Catalog:
    with open(path, encoding="utf-8") as fh:
        return _parse_catalog_text(fh.read(), path)


@cache
def default_catalog() -> Catalog:
    """The packaged catalog, parsed once per process (every part is frozen)."""
    data = resources.files("bbpkit").joinpath("data/catalog.txt").read_text("utf-8")
    return _parse_catalog_text(data, "<packaged catalog>")


# ---------------------------------------------------------------------------
# verification and derivation
# ---------------------------------------------------------------------------

class VerifyReport(NamedTuple):
    record_id: str
    residual: FixReal
    passed: bool
    decimal_digits: int


def verify(record: IdentityRecord, decimal_digits: int = 200) -> VerifyReport:
    """Numerically certify lhs - rhs against 10^-decimal_digits."""
    bits = bits_for_digits(decimal_digits)
    lhs = evaluate_expr(record.lhs, bits)
    rhs = evaluate_expr(record.rhs, bits)
    residual = lhs - rhs
    passed = residual.certified_below(Fraction(1, 10**decimal_digits))
    return VerifyReport(record.id, residual, passed, decimal_digits)


DERIVE_CHECK_DIGITS = 60  # a derived formula must match its lhs to this many digits


@lru_cache(maxsize=CACHE_KEYS)
def derive_bbp(record: IdentityRecord, target_header: PHeader | None = None) -> PFormula:
    """Run the generate/align/combine pipeline on the record's right side.

    Every rhs term must be a polylog point or an inline formula.  With no
    target header the terms combine on their minimal common header; a target
    header must be reachable from the minimal generated headers by rebase and
    stretch.  The output value is confirmed against the lhs before returning.
    Results are kept per (record, header), the record by value, so a record
    that shares an id but not its sides is derived and checked afresh; a
    refusal is not kept.
    """
    target = None if target_header is None else PHeader(*target_header)
    parts: list[tuple[Fraction, PFormula]] = []
    for coeff, term in record.rhs.terms:
        if isinstance(term, LiPoint):
            p = generate(term, period(term))
        elif isinstance(term, PFormula):
            p = term
        else:
            raise CatalogError(
                f"record {record.id!r} rhs contains a non-derivable term {term}"
            )
        if target is not None:
            if p.degree != target.degree:
                raise CatalogError(f"degree of {term} does not match target {target}")
            if target.base_exp % p.base_exp:
                raise CatalogError(f"target base 2^{target.base_exp} unreachable from {term}")
            p = rebase(p, target.base_exp // p.base_exp)
            if target.length % p.length:
                raise CatalogError(f"target length {target.length} unreachable from {term}")
            p = stretch(p, target.length // p.length)
        parts.append((coeff, p))
    out = combine(parts)
    if target is not None and not out.is_zero() and out.header != target:
        raise CatalogError(f"combination landed on {out.header}, wanted {target}")

    bits = bits_for_digits(DERIVE_CHECK_DIGITS)
    diff = evaluate(out, bits) - evaluate_expr(record.lhs, bits)
    if not diff.certified_below(Fraction(1, 10 ** (DERIVE_CHECK_DIGITS - 2))):
        raise CatalogError(f"derived formula for {record.id!r} disagrees with its lhs")
    return out
