"""Command-line surface: evaluation, digit extraction, generation,
combination, catalog verification and integer-relation search.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage error.  Hex output is uppercase without a 0x prefix; all output is
line-oriented and deterministic for fixed inputs.
"""
from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import catalog as catalog_mod
from .catalog import (
    Catalog,
    CatalogError,
    IdentityRecord,
    bits_for_digits,
    evaluate_expr,
    parse_expr,
    verify,
)
from .extractor import ExtractRequest, extract
from .generator import generate, parse_li_point, period
from .pformula import PFormula, combine, parse_p, serialize_p
from .relations import PrecisionExhausted, pslq

try:  # very long integers in reports should never trip the str() guard
    sys.set_int_max_str_digits(0)
except (AttributeError, ValueError):
    pass

__all__ = ["CliConfig", "main"]


@dataclass(frozen=True)
class CliConfig:
    precision_digits: int = 200
    catalog_path: str = ""
    threads: int = 0  # 0 = auto

    def __post_init__(self) -> None:
        if self.precision_digits < 16:
            raise ValueError("precision must be at least 16 digits")


class _UsageError(Exception):
    pass


def _add_precision_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--digits", type=int, default=None, help="decimal digits of precision")
    group.add_argument("--bits", type=int, default=None, help="binary precision (overrides --digits)")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--catalog", default=None, help="path to an alternate catalog file")
    sub.add_argument("--threads", type=int, default=0, help="worker threads (0 = auto)")
    sub.add_argument(
        "--format", choices=("text", "json-lines"), default="text", help="output format"
    )


def _resolve_bits(args: argparse.Namespace, default_digits: int = 200) -> tuple[int, int]:
    if args.bits is not None:
        digits = args.digits if args.digits is not None else max(args.bits * 3 // 10, 16)
    else:
        digits = args.digits if args.digits is not None else default_digits
    if digits < 16:
        raise _UsageError("precision must be at least 16 digits")
    bits = args.bits if args.bits is not None else bits_for_digits(digits)
    return bits, digits


def _load_catalog(args: argparse.Namespace) -> Catalog:
    if getattr(args, "catalog", None):
        return catalog_mod.load_catalog(args.catalog)
    return catalog_mod.default_catalog()


def derive_minimal(record: IdentityRecord) -> PFormula:
    """Combination of the record's rhs on the minimal common header."""
    from .generator import LiPoint

    parts = []
    for coeff, term in record.rhs.terms:
        if isinstance(term, PFormula):
            parts.append((coeff, term))
        elif isinstance(term, LiPoint):
            parts.append((coeff, generate(term, period(term))))
        else:
            raise CatalogError(f"record {record.id!r} has a non-derivable term {term}")
    return combine(parts)


def _resolve_formula(args: argparse.Namespace) -> PFormula:
    if getattr(args, "formula_id", None):
        record = _load_catalog(args).get(args.formula_id)
        terms = record.rhs.terms
        if len(terms) == 1 and isinstance(terms[0][1], PFormula) and terms[0][0] == 1:
            return terms[0][1]
        return derive_minimal(record)
    if getattr(args, "formula", None):
        return parse_p(args.formula)
    raise _UsageError("provide --formula-id or --formula")


def _cmd_eval(args: argparse.Namespace) -> int:
    bits, digits = _resolve_bits(args)
    if args.formula_id:
        record = _load_catalog(args).get(args.formula_id)
        expr = record.rhs
    else:
        if not args.expr:
            raise _UsageError("provide an expression or --formula-id")
        expr = parse_expr(args.expr)
    value = evaluate_expr(expr, bits)
    print(value.decimal(digits))
    return 0


def _cmd_digits(args: argparse.Namespace) -> int:
    result = extract(ExtractRequest(_resolve_formula(args), args.pos, args.count, args.guard))
    if args.format == "json-lines":
        print(json.dumps({"pos": args.pos, "digits": result.digits,
                          "confidence_bits": result.confidence_bits}))
    else:
        print(result.digits)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    pt = parse_li_point(args.point)
    length = args.len if args.len is not None else period(pt)
    print(serialize_p(generate(pt, length)))
    return 0


def _cmd_combine(args: argparse.Namespace) -> int:
    expr = parse_expr(args.terms)
    parts = []
    for coeff, term in expr.terms:
        if not isinstance(term, PFormula):
            raise _UsageError("combine takes only inline P(...) terms")
        parts.append((coeff, term))
    print(serialize_p(combine(parts)))
    return 0


def _verify_line(report, fmt: str) -> str:
    status = "PASS" if report.passed else "FAIL"
    if fmt == "json-lines":
        return json.dumps(
            {
                "id": report.record_id,
                "status": status,
                "digits": report.decimal_digits,
                "residual_bound": f"{float(report.residual.magnitude_bound()):.3e}",
            }
        )
    return f"{status} {report.record_id} (residual < 10^-{report.decimal_digits})" if report.passed \
        else f"FAIL {report.record_id} residual bound {float(report.residual.magnitude_bound()):.3e}"


def _cmd_verify(args: argparse.Namespace) -> int:
    _, digits = _resolve_bits(args)
    record = _load_catalog(args).get(args.id)
    report = verify(record, digits)
    print(_verify_line(report, args.format))
    return 0 if report.passed else 1


def _cmd_verify_all(args: argparse.Namespace) -> int:
    _, digits = _resolve_bits(args)
    cfg = CliConfig(digits, args.catalog or "", args.threads)
    records = sorted(_load_catalog(args), key=lambda r: r.id)
    workers = cfg.threads if cfg.threads > 0 else 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(lambda r: verify(r, digits), records))
    else:
        reports = [verify(r, digits) for r in records]
    failed = 0
    for report in reports:
        print(_verify_line(report, args.format))
        failed += 0 if report.passed else 1
    if args.format == "text":
        print(f"{len(reports) - failed}/{len(reports)} records certified at {digits} digits")
    return 1 if failed else 0


def _cmd_pslq(args: argparse.Namespace) -> int:
    bits, _ = _resolve_bits(args, default_digits=120)
    exprs = [chunk.strip() for chunk in args.values.split(";") if chunk.strip()]
    if len(exprs) < 2:
        raise _UsageError("pslq needs at least two ;-separated expressions")
    values = [evaluate_expr(parse_expr(e), bits) for e in exprs]
    try:
        report = pslq(values, args.max_norm, bits)
    except PrecisionExhausted as exc:
        print(f"INCONCLUSIVE {exc}")
        return 1
    if report.relation is None:
        print(f"NONE excluded up to coefficient norm {report.exclusion_bound} "
              f"({report.iterations} iterations)")
        return 1
    rel = report.relation
    coeffs = ", ".join(str(c) for c in rel.coeffs)
    print(f"RELATION [{coeffs}] residual bound "
          f"{float(rel.residual.magnitude_bound()):.3e} ({report.iterations} iterations)")
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.action != "list":
        raise _UsageError("unknown catalog action; try: bbp catalog list")
    cat = _load_catalog(args)
    for rec in sorted(cat, key=lambda r: r.id):
        if args.format == "json-lines":
            print(json.dumps({"id": rec.id, "kind": rec.kind, "lhs": str(rec.lhs)}))
        else:
            print(f"{rec.id:32s} {rec.kind:16s} {rec.lhs}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbp",
        description="Exact algebra, certified evaluation, digit extraction and "
        "integer-relation search for binary BBP-type formulas.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval", help="evaluate an expression or catalog formula")
    p.add_argument("expr", nargs="?", default=None)
    p.add_argument("--formula-id", default=None)
    _add_precision_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("digits", help="extract hex digits at a bit position")
    p.add_argument("--formula-id", default=None)
    p.add_argument("--formula", default=None, help="inline P(...) text")
    p.add_argument("--pos", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--guard", type=int, default=8, help="extra guard hex digits")
    _add_precision_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_digits)

    p = subs.add_parser("gen", help="generate the formula for a polylog point")
    p.add_argument("--point", required=True, help='e.g. "ReLi(1, 1, 3/4)"')
    p.add_argument("--len", type=int, default=None, help="target length (default: period)")
    _add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = subs.add_parser("combine", help="combine inline P(...) terms canonically")
    p.add_argument("--terms", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_combine)

    p = subs.add_parser("verify", help="verify one catalog record")
    p.add_argument("--id", required=True)
    _add_precision_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("verify-all", help="verify every catalog record")
    _add_precision_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_verify_all)

    p = subs.add_parser("pslq", help="integer-relation search over expressions")
    p.add_argument("--values", required=True, help="semicolon-separated expressions")
    p.add_argument("--max-norm", type=int, default=10**6)
    _add_precision_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_pslq)

    p = subs.add_parser("catalog", help="catalog inspection")
    p.add_argument("action", choices=["list"])
    _add_common(p)
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"bbp: error: {exc}", file=sys.stderr)
        return 2
    except (CatalogError, KeyError, ValueError) as exc:
        print(f"bbp: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
