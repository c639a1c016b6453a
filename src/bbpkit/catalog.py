"""Identity catalog: rational linear combinations over polylog points,
constant monomials and inline P-forms, with verification and derivation.

The catalog file is record-per-block structured text:

    [identity]
    id = "deg2-catalan-2e12"
    anchor = "solved pair of Abel dilogarithm evaluations, imaginary parts"
    kind = "bbp_ready"
    lhs = "1 * G"
    rhs = "3 * ImLi(2, 1, 3/4) + -1 * ImLi(2, 3, 1/4)"

Expression grammar: terms joined by + (or -), each a rational coefficient
times either a product of constant atoms (pi, log2, zeta3, zeta5, G, Cl2pi3,
Cl4pi2, with ^ powers on pi/log2), a polylog point (ReLi/ImLi/ReLi0 form), or
an inline P(...) formula.  Rationals accept the 2^e shorthand.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources
from typing import Iterable, NamedTuple, Union

from .bigmath import FixReal
from .generator import LiPoint, generate, parse_li_point, period
from .pformula import PFormula, PHeader, combine, evaluate, parse_p, rebase, stretch
from .reference import ConstMonomial, const_value, li_point_value

__all__ = [
    "Term",
    "LinearExpr",
    "IdentityRecord",
    "Catalog",
    "CatalogError",
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

_ATOM_NAMES = {
    "pi": ("pi", None),
    "log2": ("log2", None),
    "zeta3": (None, "zeta3"),
    "zeta5": (None, "zeta5"),
    "G": (None, "catalan"),
    "Cl2pi3": (None, "cl2_pi3"),
    "Cl4pi2": (None, "cl4_pi2"),
}


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

_RAT = re.compile(r"^[+-]?\s*\d+(?:\^\d+)?(?:\s*/\s*\d+(?:\^\d+)?)?$")


def _int_pow(text: str) -> int:
    if "^" in text:
        base, exp = text.split("^")
        return int(base) ** int(exp)
    return int(text)


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    sign = 1
    while text and text[0] in "+-":
        if text[0] == "-":
            sign = -sign
        text = text[1:].strip()
    if "/" in text:
        num, den = (_int_pow(part.strip()) for part in text.split("/"))
        if den == 0:
            raise CatalogError(f"zero denominator in {text!r}")
        return sign * Fraction(num, den)
    return sign * Fraction(_int_pow(text))


def _split_terms(text: str) -> list[str]:
    chunks = []
    depth = 0
    start = 0
    prev_significant = ""
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > start:
            if prev_significant not in ("", "*", "/", "^", ",", "+", "-", "(", "["):
                chunks.append(text[start:i])
                start = i if ch == "-" else i + 1  # keep '-' as the term's sign
        if not ch.isspace():
            prev_significant = ch
    chunks.append(text[start:])
    return [c.strip() for c in chunks if c.strip()]


def _parse_monomial_factors(factors: list[str], where: str) -> ConstMonomial:
    pi_pow = 0
    log2_pow = 0
    atom = "one"
    for f in factors:
        name, _, power = f.partition("^")
        name = name.strip()
        exp = int(power) if power else 1
        if name == "1":
            continue
        if name not in _ATOM_NAMES:
            raise CatalogError(f"unknown constant atom {name!r} in {where!r}")
        base, special = _ATOM_NAMES[name]
        if base == "pi":
            pi_pow += exp
        elif base == "log2":
            log2_pow += exp
        else:
            if exp != 1:
                raise CatalogError(f"atom {name!r} does not take powers in {where!r}")
            if atom != "one":
                raise CatalogError(f"more than one special atom in {where!r}")
            atom = special
    return ConstMonomial(pi_pow, log2_pow, atom)


def _parse_term(chunk: str) -> tuple[Fraction, Term]:
    text = chunk.strip()
    if "P(" in text:
        p = parse_p(text)
        return Fraction(1), p
    # split off a leading rational coefficient if present
    factors = _split_on_star(text)
    coeff = Fraction(1)
    if factors and _RAT.match(factors[0]):
        coeff = _parse_rational(factors[0])
        factors = factors[1:]
    if not factors:
        return coeff, ConstMonomial()
    li = [f for f in factors if f.startswith(("ReLi", "ImLi"))]
    if li:
        if len(factors) != 1:
            raise CatalogError(f"polylog points cannot be multiplied in {chunk!r}")
        return coeff, parse_li_point(li[0])
    return coeff, _parse_monomial_factors(factors, chunk)


def _split_on_star(text: str) -> list[str]:
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "*" and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return [p for p in parts if p]


def parse_expr(text: str) -> LinearExpr:
    """Parse the rational-linear-combination grammar into a LinearExpr."""
    if not text.strip():
        raise CatalogError("empty expression")
    terms = [_parse_term(chunk) for chunk in _split_terms(text)]
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
        raise KeyError(record_id)


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
        except (CatalogError, ValueError) as exc:
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


def derive_bbp(record: IdentityRecord, target_header: PHeader, check_digits: int = 60) -> PFormula:
    """Run the generate/align/combine pipeline on the record's right side.

    Every rhs term must be a polylog point or an inline formula, and the
    target header must be reachable from the minimal generated headers by
    rebase and stretch.  The output value is confirmed against the lhs before
    returning.
    """
    target = PHeader(*target_header)
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
    if not out.is_zero() and out.header != target:
        raise CatalogError(f"combination landed on {out.header}, wanted {target}")

    bits = bits_for_digits(check_digits)
    got = evaluate(out, bits)
    want = evaluate_expr(record.lhs, bits)
    diff = got - want
    if not diff.certified_below(Fraction(1, 10 ** (check_digits - 2))):
        raise CatalogError(f"derived formula for {record.id!r} disagrees with its lhs")
    return out
