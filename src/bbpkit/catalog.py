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

import os
import re
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cache, lru_cache
from typing import Iterable, NamedTuple, Union

from .bigmath import CACHE_KEYS, GUARD_BITS, FixReal, precision_cache
from .generator import LiPoint, generate, period, scan_li_point
from .pformula import (ParseError, PFormula, PHeader, Scanner, combine, evaluate, rebase,
                       scan_p, scan_rational, stretch)
from .reference import ATOMS, ConstMonomial, const_value, li_point_value

__all__ = [
    "Term",
    "LinearExpr",
    "IdentityRecord",
    "Catalog",
    "CatalogError",
    "MAX_MONOMIAL_POWER",
    "MAX_CATALOG_BYTES",
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

# expression spelling -> atom name; "1" is read as a rational
_SPECIAL_ATOMS = {spelling: atom for atom, spelling in ATOMS.items() if atom != "one"}


class CatalogError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class LinearExpr:
    """Non-empty rational-weighted sum of formula / point / monomial terms."""

    terms: tuple[tuple[Fraction, Term], ...]
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.terms:
            raise CatalogError("linear expression must have at least one term")

    def __hash__(self) -> int:
        """The hash of the field tuple, computed on the first call and kept."""
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.terms,)))
        return self._hash

    @classmethod
    def make(cls, terms: Iterable[tuple[Fraction, Term]]) -> "LinearExpr":
        """Build with structural duplicates merged and zero terms dropped."""
        merged: dict[Term, Fraction] = {}  # in first-insertion order
        for coeff, term in terms:
            merged[term] = merged.get(term, 0) + Fraction(coeff)
        live = tuple((c, t) for t, c in merged.items() if c != 0)
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

@precision_cache()
def evaluate_expr(expr: LinearExpr, prec_bits: int) -> FixReal:
    """Certified value of the expression: each term at prec_bits, times its coefficient."""
    work = prec_bits + GUARD_BITS
    total = FixReal.zero(work)
    # built per call, so a wrapper later bound over one of these module names is called
    term_value = {PFormula: evaluate, LiPoint: li_point_value, ConstMonomial: const_value}
    for coeff, term in expr.terms:
        value_of = term_value.get(type(term))
        if value_of is None:
            raise CatalogError(f"unknown term type {type(term).__name__}")
        total = total + value_of(term, prec_bits).scale_rat(coeff, work)
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
_FIELDS = frozenset(f.name for f in fields(IdentityRecord))  # the only keys a block may set


def _blocks(text: str, origin: str) -> list[tuple[int, dict[str, str]]]:
    """(first line, fields) of each ``[identity]`` block, in order; a
    ``version = "..."`` line before the first block is accepted and ignored,
    and any key that is not an IdentityRecord field is refused."""
    blocks: list[tuple[int, dict[str, str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[identity]":
            blocks.append((lineno, {}))
            continue
        m = _KEY_RE.match(line)
        if not m:
            raise CatalogError(f"{origin}:{lineno}: cannot parse line {line!r}")
        key, value = m.groups()
        if not blocks:
            if key == "version":
                continue
            raise CatalogError(f"{origin}:{lineno}: field outside a record block")
        if key not in _FIELDS:
            raise CatalogError(f"{origin}:{lineno}: unknown field {key!r}")
        block = blocks[-1][1]
        if key in block:
            raise CatalogError(f"{origin}:{lineno}: duplicate field {key!r}")
        block[key] = value
    return blocks


def _record(block: dict[str, str], where: str) -> IdentityRecord:
    missing = [k for k in ("id", "anchor", "kind", "lhs", "rhs") if k not in block]
    if missing:
        raise CatalogError(f"{where}: record missing fields {missing} "
                           f"(id={block.get('id', '?')!r})")
    try:
        return IdentityRecord(block["id"], block["anchor"], block["kind"],
                              parse_expr(block["lhs"]), parse_expr(block["rhs"]),
                              block.get("notes", ""), block.get("combo", ""))
    except ValueError as exc:
        raise CatalogError(f"{where}: bad record {block.get('id', '?')!r}: {exc}") from exc


MAX_CATALOG_BYTES = 1 << 20  # a longer catalog file is refused; the packaged one is 25 KB

PACKAGED_CATALOG = os.path.join(os.path.dirname(__file__), "data", "catalog.txt")


def load_catalog(path: str) -> Catalog:
    """Parse the catalog file at path, reading at most MAX_CATALOG_BYTES + 1 bytes."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_CATALOG_BYTES + 1)
    except OSError as exc:
        raise CatalogError(f"cannot read catalog {path!r}: {exc.strerror or exc}") from None
    if len(data) > MAX_CATALOG_BYTES:
        raise CatalogError(f"catalog {path!r} is longer than {MAX_CATALOG_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CatalogError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    records = tuple(_record(fields, f"{path}:{line}") for line, fields in _blocks(text, path))
    if not records:
        raise CatalogError(f"{path}: catalog contains no records")
    return Catalog(records)


@cache
def default_catalog() -> Catalog:
    """The packaged catalog, PACKAGED_CATALOG through load_catalog, parsed once
    per process (every part is frozen)."""
    return load_catalog(PACKAGED_CATALOG)


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
    """Run the generate/combine pipeline on the record's right side.

    Every rhs term must be a polylog point or an inline formula.  They combine
    on their minimal common header, from which one rebase and one stretch,
    keeping the value and the canonical form, reach a target header.  The
    output value is confirmed against the lhs.  Results are kept per (record,
    header), the record by value, so a record that shares an id but not its
    sides is derived and checked afresh; a refusal is not kept.
    """
    parts: list[tuple[Fraction, PFormula]] = []
    for coeff, term in record.rhs.terms:
        if isinstance(term, LiPoint):
            term = generate(term, period(term))
        elif not isinstance(term, PFormula):
            raise CatalogError(f"record {record.id!r} rhs contains a non-derivable term {term}")
        parts.append((coeff, term))
    out = combine(parts)
    if target_header is not None:
        target = PHeader(*target_header)
        m, rest = divmod(target.base_exp, out.base_exp)
        if target.degree != out.degree or m < 1 or rest or target.length % (m * out.length):
            raise CatalogError(f"target {target} unreachable from {out.header}")
        out = stretch(rebase(out, m), target.length // (m * out.length))

    bits = bits_for_digits(DERIVE_CHECK_DIGITS)
    diff = evaluate(out, bits) - evaluate_expr(record.lhs, bits)
    if not diff.certified_below(Fraction(1, 10 ** (DERIVE_CHECK_DIGITS - 2))):
        raise CatalogError(f"derived formula for {record.id!r} disagrees with its lhs")
    return out
