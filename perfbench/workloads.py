"""Seeded workload inputs, the operations that run them, and their output checks.

Each workload turns its seed into a list of operations.  An operation calls
bbpkit only through public entry points and returns its raw output; it is
checked only after every operation of the pass has been timed, so checking
never warms a cache that a later operation would hit.
"""
from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import os
import random
import time
from fractions import Fraction

import bbpkit.catalog
import bbpkit.cli
import bbpkit.pformula
import bbpkit.relations
from bbpkit.bigmath import FixReal
from bbpkit.catalog import IdentityRecord, LinearExpr, bits_for_digits, parse_expr
from bbpkit.extractor import ConfidenceError, digit_window
from bbpkit.generator import LiPoint, generate, period
from bbpkit.pformula import PFormula, canonicalize, combine

WORKLOADS = ("extract-deep", "verify-1000", "relations", "session-warm")
EXTRACTABLE_KINDS = ("bbp_ready", "printed_formula")
IDENTITY_KINDS = ("generator", "bbp_ready")
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

DEEP_POS = (48_000, 52_000)  # extract-deep bit positions; golden.json covers them
SHALLOW_POS = 4_000  # session-warm digits requests sit below this bit
LADDER_DIGITS = (100, 200, 400)  # session-warm evaluate_expr precision ladder
SESSION_VERIFY_DIGITS = (20, 40, 60)
RELATION_DIGITS = 120
RELATION_MAX_NORM = 1 << 32
LATTICE_HEADER = (2, 12, 24)
LATTICE_TABLES = ("zero-deg2-2e12-a-table", "zero-deg2-2e12-b-table")


def record_formula(record: IdentityRecord) -> PFormula:
    """The record's right side as one P-formula (the rhs combined on its minimal header)."""
    parts = []
    for coeff, term in record.rhs.terms:
        if isinstance(term, LiPoint):
            term = generate(term, period(term))
        if not isinstance(term, PFormula):
            raise ValueError(f"{record.id}: rhs term {term} is not derivable")
        parts.append((coeff, term))
    if len(parts) == 1 and parts[0][0] == 1:
        return parts[0][1]
    return combine(parts)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

class Op:
    """One timed request.  `run` returns the raw output; `check` returns a
    failure reason, or None when the output is right."""

    label = "op"

    def run(self):
        raise NotImplementedError

    def check(self, out) -> str | None:
        return None


class DigitsOp(Op):
    """`bbp digits --formula-id ID --pos P --count 8`, run in-process."""

    def __init__(self, record_id: str, pos: int, want):
        self.record_id, self.pos = record_id, pos
        self.want = want  # callable giving the oracle digits, called only when checking
        self.label = f"digits {record_id} @{pos}"

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = bbpkit.cli.main(["digits", "--formula-id", self.record_id,
                                  "--pos", str(self.pos), "--count", "8"])
        return rc, out.getvalue().strip(), err.getvalue().strip()

    def check(self, out):
        rc, digits, err = out
        if rc != 0:
            return f"exit code {rc}: {err}"
        want = self.want()
        if digits != want:
            return f"digits {digits} != oracle {want}"
        return None


class VerifyOp(Op):
    def __init__(self, record: IdentityRecord, digits: int):
        self.record, self.digits = record, digits
        self.label = f"verify {record.id} @{digits}"

    def run(self):
        return bbpkit.catalog.verify(self.record, self.digits)

    def check(self, report):
        if not report.passed:
            return f"residual not certified below 10^-{self.digits}"
        return None


class EvalOp(Op):
    """`evaluate_expr` of one side of a record; checked against the other side
    at the same rung, as `verify` would (`pairs` maps the pair to its outputs)."""

    def __init__(self, record: IdentityRecord, side: str, digits: int, pairs: dict):
        self.record, self.side, self.digits, self.pairs = record, side, digits, pairs
        self.label = f"evaluate {record.id}.{side} @{digits}"

    def run(self):
        value = bbpkit.catalog.evaluate_expr(getattr(self.record, self.side),
                                             bits_for_digits(self.digits))
        self.pairs.setdefault((self.record.id, self.digits), {})[self.side] = value
        return value

    def check(self, value):
        other = self.pairs[(self.record.id, self.digits)].get(
            "rhs" if self.side == "lhs" else "lhs")
        if other is None:
            return None  # the partner failed and is counted on its own
        if not (value - other).certified_below(Fraction(1, 10**self.digits)):
            return f"lhs and rhs differ beyond 10^-{self.digits}"
        return None


class DeriveOp(Op):
    """`derive_bbp` of a printed table from its combination record."""

    def __init__(self, catalog, table: IdentityRecord):
        self.stored = canonicalize(table.rhs.terms[0][1])
        self.source = catalog.get(table.combo)
        self.label = f"derive_bbp {table.id}"

    def run(self):
        return bbpkit.catalog.derive_bbp(self.source, self.stored.header)

    def check(self, derived):
        return None if derived == self.stored else "derived table differs from the stored one"


class RediscoverOp(Op):
    """PSLQ over an identity's lhs value and its rhs term values."""

    def __init__(self, record: IdentityRecord):
        self.terms = [t for _, t in record.lhs.terms] + [t for _, t in record.rhs.terms]
        self.label = f"pslq {record.id}"

    def run(self):
        bits = bits_for_digits(RELATION_DIGITS)
        values = [bbpkit.catalog.evaluate_expr(LinearExpr(((Fraction(1), t),)), bits)
                  for t in self.terms]
        return bbpkit.relations.pslq(values, RELATION_MAX_NORM, bits)

    def check(self, report):
        if report.status != "found":
            return f"pslq status {report.status}"
        # re-confirm independently, with 64 more bits than the search used
        bits = bits_for_digits(RELATION_DIGITS)
        expr = LinearExpr.make(zip(map(Fraction, report.relation.coeffs), self.terms))
        residual = bbpkit.catalog.evaluate_expr(expr, bits + 64)
        if not residual.certified_below(Fraction(1, 1 << (bits // 2))):
            return f"relation {report.relation.coeffs} does not hold"
        return None


class LatticeOp(Op):
    """Acceptance criterion 4: two PSLQ calls over the 24 unit formulas of
    header (2, 2^12, 24) recover the rank-two relation lattice."""

    label = "pslq lattice (2, 2^12, 24)"

    def __init__(self, catalog):
        self.printed = [canonicalize(catalog.get(t).rhs.terms[0][1]).coeffs
                        for t in LATTICE_TABLES]

    def run(self):
        bits = bits_for_digits(RELATION_DIGITS)
        degree, base_exp, n = LATTICE_HEADER
        basis = [bbpkit.pformula.evaluate(PFormula(degree, base_exp, n, tuple(int(i == j) for i in range(n))), bits)
                 for j in range(n)]
        first = bbpkit.relations.pslq(basis, 1 << 16, bits)
        if first.status != "found":
            return first, None, None
        r1 = first.relation.coeffs
        pivot = next(i for i, c in enumerate(r1) if abs(c) == 1)
        second = bbpkit.relations.pslq([b for j, b in enumerate(basis) if j != pivot],
                                       1 << 16, bits)
        return first, second, pivot

    def check(self, out):
        first, second, pivot = out
        if second is None or first.status != "found" or second.status != "found":
            return "lattice search did not find both relations"
        r1 = first.relation.coeffs
        c2 = second.relation.coeffs
        r2 = c2[:pivot] + (0,) + c2[pivot:]
        for name, vec in zip(LATTICE_TABLES, self.printed):
            if not _in_lattice(vec, r1, r2):
                return f"{name} is not in the recovered lattice"
        return None


def _in_lattice(target, r1, r2) -> bool:
    for i, j in itertools.combinations(range(len(target)), 2):
        det = r1[i] * r2[j] - r1[j] * r2[i]
        if det:
            a, rem_a = divmod(target[i] * r2[j] - target[j] * r2[i], det)
            b, rem_b = divmod(r1[i] * target[j] - r1[j] * target[i], det)
            return not rem_a and not rem_b and all(
                a * x + b * y == t for x, y, t in zip(r1, r2, target))
    return False


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _golden_digits(record_id: str, pos: int) -> str:
    golden = _golden()
    lo, hi = golden["lo"], golden["hi"]
    if not lo <= pos <= hi - 32:
        raise ValueError(f"bit {pos} lies outside the golden window [{lo}, {hi})")
    window = int(golden["windows"][record_id], 16)
    return f"{(window >> (hi - pos - 32)) & 0xFFFFFFFF:08X}"


def _shallow_digits(record: IdentityRecord, pos: int) -> str:
    return digit_window(record_formula(record), pos, 8, pos + 32 + 128)


def build(workload: str, seed: int, catalog, pass_index: int = 0) -> list[Op]:
    """The operations of one pass, in order.  The same seed and pass index give
    the same list; each pass of a run draws its own positions and order."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    records = list(catalog)
    if workload == "extract-deep":
        ops = [DigitsOp(r.id, pos, lambda r=r, pos=pos: _golden_digits(r.id, pos))
               for r in records if r.kind in EXTRACTABLE_KINDS
               for pos in [rng.randrange(*DEEP_POS)]]
    elif workload == "verify-1000":
        # the order `bbp verify-all` uses: a shuffled cold pass moves the one-off
        # costs of shared constants and polylog points between records, and the
        # latency quantiles with them
        return [VerifyOp(r, 1000) for r in sorted(records, key=lambda r: r.id)]
    elif workload == "relations":
        ops = [LatticeOp(catalog)]
        ops += [DeriveOp(catalog, r) for r in records if r.kind == "printed_formula"]
        ops += [RediscoverOp(r) for r in records if r.kind in IDENTITY_KINDS]
    elif workload == "session-warm":
        # each formula gets two back-to-back digits requests for consecutive
        # windows, so the second always finds the first's formula (7.5M
        # coefficients for deg5-zeta5) in the evaluate cache, whatever the order
        pairs: dict = {}
        units = [[EvalOp(r, side, d, pairs)]
                 for r in records for side in ("lhs", "rhs") for d in LADDER_DIGITS]
        units += [[DigitsOp(r.id, p, lambda r=r, p=p: _shallow_digits(r, p)) for p in (pos, pos + 32)]
                  for r in records if r.kind in EXTRACTABLE_KINDS
                  for pos in [rng.randrange(SHALLOW_POS - 32)]]
        units += [[VerifyOp(r, rng.choice(SESSION_VERIFY_DIGITS))] for r in records]
        rng.shuffle(units)
        return [op for unit in units for op in unit]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# running and checking
# ---------------------------------------------------------------------------

def time_ops(ops, on_op=None):
    """Run every operation in order, closed loop.  Returns the outputs (or the
    exception each raised), the per-operation latencies and the loop's wall time."""
    clock = time.perf_counter
    outputs, latencies = [], []
    start = clock()
    for i, op in enumerate(ops):
        if on_op is not None:
            on_op(i)
        t0 = clock()
        try:
            out = op.run()
        except Exception as exc:  # a failed request is counted, the session goes on
            out = exc
        latencies.append(clock() - t0)
        outputs.append(out)
    return outputs, latencies, clock() - start


def check_ops(ops, outputs) -> list[tuple[int, str]]:
    """(index, reason) for every failed operation; each counts once."""
    failures = []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if isinstance(out, Exception):
            reason = f"{type(out).__name__}: {out}"
        else:
            try:
                reason = op.check(out)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append((i, f"{op.label}: {reason}"))
    return failures


class _Raises(Op):
    def __init__(self, exc: Exception):
        self.exc, self.label = exc, f"raises {type(exc).__name__}"

    def run(self):
        raise self.exc


class _Call(Op):
    def __init__(self, label, fn):
        self.label, self.fn = label, fn

    def run(self):
        return self.fn()


def self_test(catalog) -> None:
    """Each kind of failure must count as exactly one failed operation, and a
    right answer as none.  Raises AssertionError otherwise."""
    rec = catalog.get("deg2-pi2-2e12")
    right = digit_window(record_formula(rec), 100, 8, 100 + 32 + 128)
    wrong = f"{int(right, 16) ^ 1:08X}"
    false_record = IdentityRecord("selftest-false", "self-test", "generator",
                                  parse_expr("1 * pi"), parse_expr("3"))
    cases = {
        "right digits": (DigitsOp(rec.id, 100, lambda: right), 0),
        "wrong digit string": (DigitsOp(rec.id, 100, lambda: wrong), 1),
        "non-zero CLI exit": (DigitsOp("no-such-record", 100, lambda: right), 1),
        "ConfidenceError": (_Raises(ConfidenceError("accumulator near a carry")), 1),
        "PrecisionExhausted": (_Call("pslq of a zero value", lambda: bbpkit.relations.pslq(
            [FixReal.zero(64), FixReal.from_int(1, 64)], 10, 64)), 1),
        "uncertified verify report": (VerifyOp(false_record, 30), 1),
    }
    for name, (op, want) in cases.items():
        outputs, _, _ = time_ops([op])
        got = len(check_ops([op], outputs))
        if got != want:
            raise AssertionError(f"checker self-test: {name} counted {got} failures, want {want}")
