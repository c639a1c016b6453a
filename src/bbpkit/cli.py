"""Command-line surface: evaluation, digit extraction, generation,
combination, catalog verification and integer-relation search.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage error, 141 the reader closed the pipe.  Hex output is uppercase
without a 0x prefix; all output is line-oriented and deterministic for fixed
inputs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, Context, Decimal
from fractions import Fraction
from functools import cache
from typing import NoReturn

from . import catalog as catalog_mod
from .bigmath import truncated_decimal
from .catalog import Catalog, bits_for_digits, derive_bbp, evaluate_expr, parse_expr, verify
from .extractor import ExtractRequest, extract
from .generator import generate, parse_li_point, period
from .pformula import PFormula, combine, parse_p, serialize_p
from .reference import ConstMonomial
from .relations import PrecisionExhausted, check_work, pslq

try:  # very long integers in reports should never trip the str() guard
    sys.set_int_max_str_digits(0)
except (AttributeError, ValueError):
    pass

__all__ = ["main", "format_bound", "MAX_DIGITS", "MAX_BITS", "EVAL_DOUBLINGS"]

MAX_DIGITS = 100_000  # largest --digits
MAX_BITS = bits_for_digits(MAX_DIGITS)  # the most `eval` raises precision to
EVAL_DOUBLINGS = 6  # `eval` raises precision at most 2^6-fold past its starting bits
_BOUND = Context(prec=4, rounding=ROUND_CEILING, Emin=MIN_EMIN, Emax=MAX_EMAX)  # any exponent


def format_bound(bound: Fraction) -> str:
    """A non-negative bound as ``d.ddde+XX``, rounded up: never below the bound,
    never zero for a positive one (``float`` would round to nearest and
    underflow past 1e-308)."""
    d = _BOUND.divide(Decimal(bound.numerator), Decimal(bound.denominator))
    e = d.adjusted()
    return f"{d.scaleb(-e, _BOUND):.3f}e{e:+03d}"


def _resolve_bits(args: argparse.Namespace, default_digits: int = 200) -> tuple[int, int]:
    digits = args.digits if args.digits is not None else default_digits
    if not 16 <= digits <= MAX_DIGITS:
        raise ValueError(f"precision must be 16 to {MAX_DIGITS} digits")
    return bits_for_digits(digits), digits


def _load_catalog(args: argparse.Namespace) -> Catalog:
    if args.catalog:
        return catalog_mod.load_catalog(args.catalog)
    return catalog_mod.default_catalog()


def _resolve_formula(args: argparse.Namespace) -> PFormula:
    if args.formula_id is not None:
        return derive_bbp(_load_catalog(args).get(args.formula_id))
    return parse_p(args.formula)


def _cmd_eval(args: argparse.Namespace) -> int:
    bits, digits = _resolve_bits(args)
    if args.formula_id is not None:
        expr = _load_catalog(args).get(args.formula_id).rhs
    else:
        expr = parse_expr(args.expr)
    if all(term == ConstMonomial() for _, term in expr.terms):  # a rational: printed exactly
        q = sum(coeff for coeff, _ in expr.terms)
        print(truncated_decimal(q.numerator, q.denominator, digits))
        return 0
    # Ziv: double the precision until both ends of the error interval agree.  A
    # value sitting exactly on a digit boundary never settles, so stop a few
    # doublings past the precision the digits need.
    cap = min(bits << EVAL_DOUBLINGS, MAX_BITS)
    while (text := evaluate_expr(expr, bits).decimal(digits)) is None:
        if bits >= cap:
            raise ValueError(f"{digits} digits are not certified at {cap} bits")
        bits = min(2 * bits, cap)
    print(text)
    return 0


def _cmd_digits(args: argparse.Namespace) -> int:
    result = extract(ExtractRequest(_resolve_formula(args), args.pos, args.count))
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
            raise ValueError("combine takes only inline P(...) terms")
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
                "residual_bound": format_bound(report.residual.magnitude_bound()),
            }
        )
    return f"{status} {report.record_id} (residual < 10^-{report.decimal_digits})" if report.passed \
        else f"FAIL {report.record_id} residual bound {format_bound(report.residual.magnitude_bound())}"


def _cmd_verify(args: argparse.Namespace) -> int:
    _, digits = _resolve_bits(args)
    record = _load_catalog(args).get(args.id)
    report = verify(record, digits)
    print(_verify_line(report, args.format))
    return 0 if report.passed else 1


def _cmd_verify_all(args: argparse.Namespace) -> int:
    _, digits = _resolve_bits(args)
    reports = [verify(r, digits) for r in sorted(_load_catalog(args), key=lambda r: r.id)]
    failed = 0
    for report in reports:
        print(_verify_line(report, args.format))
        failed += 0 if report.passed else 1
    if args.format == "text":
        print(f"{len(reports) - failed}/{len(reports)} records certified at {digits} digits")
    return 1 if failed else 0


def _cmd_pslq(args: argparse.Namespace) -> int:
    bits, _ = _resolve_bits(args, default_digits=120)
    chunks = [chunk for chunk in map(str.strip, args.values.split(";")) if chunk]
    check_work(len(chunks), bits, args.max_norm)  # before any value is parsed
    exprs = [parse_expr(chunk) for chunk in chunks]  # every value, before any is evaluated
    values = [evaluate_expr(e, bits) for e in exprs]
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
          f"{format_bound(rel.residual.magnitude_bound())} ({report.iterations} iterations)")
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    cat = _load_catalog(args)
    for rec in sorted(cat, key=lambda r: r.id):
        if args.format == "json-lines":
            print(json.dumps({"id": rec.id, "kind": rec.kind, "lhs": str(rec.lhs)}))
        else:
            print(f"{rec.id:32s} {rec.kind:16s} {rec.lhs}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals reach main's one usage-error line."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message.replace("\n", "\\n"))  # a stray argument may hold a newline


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args may reuse it."""
    catalog = argparse.ArgumentParser(add_help=False)
    catalog.add_argument("--catalog", default=None, help="path to an alternate catalog file")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json-lines"), default="text",
                     help="output format")
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument("--digits", type=int, default=None,
                           help=f"decimal digits of precision (16 to {MAX_DIGITS})")

    parser = _Parser(
        prog="bbp",
        description="Exact algebra, certified evaluation, digit extraction and "
        "integer-relation search for binary BBP-type formulas.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval", parents=[catalog, precision],
                        help="evaluate an expression or catalog formula")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("expr", nargs="?", default=None)
    source.add_argument("--formula-id", default=None)
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("digits", parents=[catalog, fmt],
                        help="extract hex digits at a bit position")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--formula-id", default=None)
    source.add_argument("--formula", default=None, help="inline P(...) text")
    p.add_argument("--pos", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=_cmd_digits)

    p = subs.add_parser("gen", help="generate the formula for a polylog point")
    p.add_argument("--point", required=True, help='e.g. "ReLi(1, 1, 3/4)"')
    p.add_argument("--len", type=int, default=None, help="target length (default: period)")
    p.set_defaults(func=_cmd_gen)

    p = subs.add_parser("combine", help="combine inline P(...) terms canonically")
    p.add_argument("--terms", required=True)
    p.set_defaults(func=_cmd_combine)

    p = subs.add_parser("verify", parents=[catalog, fmt, precision],
                        help="verify one catalog record")
    p.add_argument("--id", required=True)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("verify-all", parents=[catalog, fmt, precision],
                        help="verify every catalog record")
    p.set_defaults(func=_cmd_verify_all)

    p = subs.add_parser("pslq", parents=[precision],
                        help="integer-relation search over expressions")
    p.add_argument("--values", required=True, help="semicolon-separated expressions")
    p.add_argument("--max-norm", type=int, default=10**6)
    p.set_defaults(func=_cmd_pslq)

    p = subs.add_parser("catalog", parents=[catalog, fmt], help="catalog inspection")
    p.add_argument("action", choices=["list"])
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's final flush
        return code
    except ValueError as exc:  # a usage error, from argparse or from the library
        print(f"bbp: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the pipe: stdout goes to devnull so no later flush raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, what a shell shows for a tool SIGPIPE ends


if __name__ == "__main__":
    sys.exit(main())
