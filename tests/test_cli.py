import argparse
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import bbpkit.catalog
import bbpkit.cli
from bbpkit.catalog import (MAX_CATALOG_BYTES, MAX_MONOMIAL_POWER, bits_for_digits,
                            default_catalog, verify)
from bbpkit.cli import MAX_BITS, MAX_DIGITS, format_bound, main
from bbpkit.extractor import digit_window
from bbpkit.pformula import MAX_DEGREE, MAX_WORK, parse_p
from bbpkit.relations import check_work


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_expression(capsys):
    code, out, _ = run(capsys, "eval", "2 * log2", "--digits", "30")
    assert code == 0
    assert out.strip() == "1.386294361119890618834464242916"


def test_eval_formula_id(capsys):
    code, out, _ = run(capsys, "eval", "--formula-id", "table-pi2-2e60", "--digits", "25")
    assert code == 0
    assert out.strip() == "9.8696044010893586188344909"


def test_gen_quarter_angle(capsys):
    code, out, _ = run(capsys, "gen", "--point", "ReLi(1, 1, 3/4)", "--len", "8")
    assert code == 0
    assert out.strip() == "-1/16 * P(1, 2^4, 8, [8, 0, -4, 4, -2, 0, 1, -1])"


def test_digits_match_eval_window(capsys):
    code, out, _ = run(capsys, "digits", "--formula", "P(1, 2^1, 1, [1])",
                       "--pos", "0", "--count", "8")
    assert code == 0
    assert out.strip() == "62E42FEF"


def test_digits_from_catalog_id(capsys):
    code, out, _ = run(capsys, "digits", "--formula-id", "deg3-zeta3-2e12",
                       "--pos", "0", "--count", "8")
    assert code == 0
    assert out.strip() == "33BA004F"  # frac(zeta(3)) in hex


def test_combine_subcommand(capsys):
    code, out, _ = run(capsys, "combine", "--terms",
                       "1 * P(2, 2^4, 2, [3, -1]) + -1 * P(2, 2^4, 2, [1, -1])")
    assert code == 0
    assert out.strip() == "2 * P(2, 2^4, 2, [1, 0])"


def test_verify_single_record(capsys):
    code, out, _ = run(capsys, "verify", "--id", "deg2-catalan-2e12", "--digits", "60")
    assert code == 0
    assert out.startswith("PASS deg2-catalan-2e12")


def test_verify_all_small_catalog(tmp_path, capsys):
    path = tmp_path / "small.txt"
    path.write_text(
        '[identity]\nid = "ok"\nanchor = "a"\nkind = "generator"\n'
        'lhs = "1/12 * pi^2 + -1/2 * log2^2"\nrhs = "ReLi0(2, 2)"\n\n'
        '[identity]\nid = "broken"\nanchor = "a"\nkind = "generator"\n'
        'lhs = "1 * pi"\nrhs = "1 * log2"\n',
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "verify-all", "--digits", "40", "--catalog", str(path))
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0].startswith("FAIL broken")
    assert lines[1].startswith("PASS ok")
    assert lines[-1] == "1/2 records certified at 40 digits"


def test_verify_all_output_independent_of_threads(tmp_path, capsys):
    # there is no thread pool: two runs print the same, and --threads is refused
    _, first, _ = run(capsys, "verify-all", "--digits", "30")
    _, second, _ = run(capsys, "verify-all", "--digits", "30")
    assert first == second
    code, out, err = run(capsys, "verify-all", "--digits", "30", "--threads", "2")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("bbp: error: ")


def test_verify_all_json_lines(capsys):
    code, out, _ = run(capsys, "verify", "--id", "deg2-reflection-half",
                       "--digits", "40", "--format", "json-lines")
    assert code == 0
    doc = json.loads(out)
    assert doc["id"] == "deg2-reflection-half" and doc["status"] == "PASS"


def test_pslq_subcommand(capsys):
    code, out, _ = run(capsys, "pslq", "--values", "1 * pi; 2 * pi", "--digits", "40")
    assert code == 0
    assert out.startswith("RELATION [2, -1]") or out.startswith("RELATION [-2, 1]")


@pytest.mark.parametrize("digits", ["20", "50", "100"])
def test_pslq_finds_a_value_and_its_negation(capsys, digits):
    # (1, 1) is a column after the first reduction; reducing by the one-ulp
    # diagonal of the first swap leaves another column with a smaller |y|
    code, out, _ = run(capsys, "pslq", "--values", "1 * pi; -1 * pi", "--digits", digits)
    assert code == 0
    assert out.startswith("RELATION [1, 1] ")


@pytest.mark.parametrize("argv, line", [
    (("1 * pi; 1 * log2", "--max-norm", "100"),
     "NONE excluded up to coefficient norm 317 (3 iterations)"),
    (("1 * pi; 0 * pi",), "INCONCLUSIVE an input value is indistinguishable from zero"),
], ids=["none", "inconclusive"])
def test_pslq_without_a_relation_exits_1(capsys, argv, line):
    code, out, err = run(capsys, "pslq", "--digits", "30", "--values", *argv)
    assert (code, out, err) == (1, line + "\n", "")


def test_digits_json_lines(capsys):
    code, out, _ = run(capsys, "digits", "--formula", "P(1, 2^1, 1, [1])", "--pos", "100",
                       "--count", "8", "--format", "json-lines")
    assert code == 0
    [line] = out.splitlines()
    doc = json.loads(line)
    assert set(doc) == {"pos", "digits", "confidence_bits"} and doc["pos"] == 100
    assert doc["digits"] == digit_window(parse_p("P(1, 2^1, 1, [1])"), 100, 8, 256)


def test_catalog_list_json_lines(capsys):
    code, out, _ = run(capsys, "catalog", "list", "--format", "json-lines")
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert all({"id", "kind", "lhs"} <= set(doc) for doc in docs)
    assert sorted(doc["id"] for doc in docs) == sorted(r.id for r in default_catalog())


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) >= 45
    assert lines == sorted(lines)


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "eval")
    assert code == 2
    assert "error" in err


# rows whose message is checked too: 0 and -8 are multiples of the period 8,
# but not positive ones; eval takes its precision in --digits only
USAGE_MESSAGES = {
    ("gen", "--point", "ReLi(1, 1, 3/4)", "--len", "0"):
        "target length 0 must be a positive multiple of the period 8",
    ("gen", "--point", "ReLi(1, 1, 3/4)", "--len", "-8"):
        "target length -8 must be a positive multiple of the period 8",
    ("gen", "--point", "ReLi(1, 1, 3/4)", "--len", "5"):
        "target length 5 is not a multiple of the period 8",
    ("eval", "1 * pi", "--bits", "30"): "unrecognized arguments: --bits 30",
    ("digits", "--formula", "P(1, 2^1, 1, [1])", "--pos", "0", "--count", "8", "--guard", "8"):
        "unrecognized arguments: --guard 8",
}


@pytest.mark.parametrize("argv", [
    ("eval",),
    ("digits", "--pos", "0", "--count", "8"),
    ("combine", "--terms", "1 * pi"),
    ("combine", "--terms", "1 * P(1, 2^1, 1, [1]) + 1 * sqrt3 * P(1, 2^1, 1, [1])"),
    ("pslq", "--values", "1 * pi"),
    ("eval", "1 * pi", "--formula-id", "deg2-catalan-2e12", "--digits", "20"),
    ("digits", "--formula-id", "deg3-zeta3-2e12", "--formula", "P(1, 2^1, 1, [1])",
     "--pos", "0", "--count", "8"),
    # refused by argparse, as are the missing and the doubled sources above
    ("eval", "1 * pi", "--digits", "20", "--bits", "30"),
    ("digits", "--pos", "x", "--count", "8", "--formula", "P(1, 2^1, 1, [1])"),
    ("gen", "--point", "ReLi(1, 1, 3/4)", "stray\nargument"),
    # an empty record id is a source, and no record has it
    ("eval", "--formula-id", ""),
    ("digits", "--formula-id", "", "--pos", "0", "--count", "8"),
    *USAGE_MESSAGES,
])
def test_usage_error_is_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("bbp: error: ")
    assert USAGE_MESSAGES.get(argv, "") in err


def test_unknown_record_exit_code(capsys):
    code, _, err = run(capsys, "verify", "--id", "no-such-record")
    assert code == 2


def test_digits_zero_denominator_exit_code(capsys):
    code, out, err = run(capsys, "digits", "--formula", "1/0 * P(1, 2^1, 1, [1])",
                         "--pos", "0", "--count", "8")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "zero denominator" in err


def test_eval_zero_denominator_exit_code(capsys):
    code, out, err = run(capsys, "eval", "1/0 * pi", "--digits", "20")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "zero denominator" in err


def test_digits_position_over_limit_exit_code(capsys):
    code, out, err = run(capsys, "digits", "--formula", "P(1, 2^1, 1, [1])",
                         "--pos", str(10**12), "--count", "8")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "bit position" in err


def test_digits_count_over_limit_exit_code(capsys):
    code, _, err = run(capsys, "digits", "--formula", "P(1, 2^1, 1, [1])",
                       "--pos", "0", "--count", "100000")
    assert code == 2
    assert err.count("\n") == 1


def test_argparse_usage_exit_code(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("bbp: error: ")


@pytest.mark.parametrize("argv", [("-h",), ("eval", "-h")])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bbp")


@pytest.mark.parametrize("argv", [
    ("digits", "--formula", "P(1, 2^1, 1, [1])", "--pos", "0", "--count", "8", "--digits", "50"),
    ("gen", "--point", "ReLi(1, 1, 3/4)", "--catalog", "x"),
    ("combine", "--terms", "1 * P(1, 2^1, 1, [1])", "--format", "json-lines"),
    ("pslq", "--values", "1 * pi; 2 * pi", "--catalog", "x"),
])
def test_flags_a_subcommand_ignores_are_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("bbp: error: unrecognized arguments: ")


@pytest.mark.parametrize("argv, reason", [
    (("gen", "--point", "ReLi(1, 0, 1/4)"), "scale exponent must be positive"),
    (("gen", "--point", "ReLi(2, 2, 0/3)"), "angle zero must be written over denominator 1"),
    (("digits", "--formula", "P(1, 2^1, 0, [1])", "--pos", "0", "--count", "8"),
     "length must be positive"),
    (("digits", "--formula", "P(1, 3^2, 1, [1])", "--pos", "0", "--count", "8"),
     "base must be written as 2^B, found '3'"),
])
def test_malformed_point_or_formula_is_one_line(capsys, argv, reason):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"bbp: error: {reason} (at position ")


@pytest.mark.parametrize("argv", [
    ("digits", "--formula", "1/3^999999999 * P(1, 2^1, 1, [1])", "--pos", "0", "--count", "8"),
    ("eval", "2^999999999 * pi"),
    ("eval", "1 * ImLi(3, 999999, 1/4)", "--digits", "20"),
    ("gen", "--point", "ReLi(2, 99999998, 0)"),
    ("combine", "--terms", "1 * P(1, 2^3, 1, [1]) + 1 * P(1, 2^99999, 1, [1])"),
    # tables past MAX_TABLE_BITS on a base inside MAX_POWER_BITS
    ("gen", "--point", "ReLi(2, 2, 0)", "--len", "65536"),
    ("gen", "--point", "ReLi(2, 2, 0)", "--len", "99999999"),
    ("combine", "--terms", "1 * P(1, 2^3, 1, [1]) + 1 * P(1, 2^65535, 1, [1])"),
])
def test_huge_power_exit_code(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "bits" in err


@pytest.mark.parametrize("argv", [
    ("eval", "9" * 10**6 + " * pi", "--digits", "20"),
    ("eval", "1 * pi^" + "9" * 10**6, "--digits", "20"),
    ("eval", "1 * pi^99999999", "--digits", "20"),
    ("eval", f"1 * pi^3 * pi^{MAX_MONOMIAL_POWER - 2}", "--digits", "20"),
])
def test_huge_literal_or_monomial_power_exit_code(capsys, argv):
    # in-process: a 10^6-digit argument is past the kernel's per-argument limit
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "position" in err


@pytest.mark.parametrize("argv", [
    ("eval", "1 * P(99999, 2^1, 1, [1])", "--digits", "20"),
    ("eval", "1 * ReLi(9999, 1, 3/4)", "--digits", "20"),
    ("gen", "--point", "ReLi(99999999, 1, 3/4)"),
    ("digits", "--formula", "P(99999999, 2^1, 1, [1])", "--pos", "100", "--count", "8"),
])
def test_huge_degree_exit_code(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"degree must be in [1, {MAX_DEGREE}]" in err


def test_largest_point_base_is_accepted(capsys):
    # ImLi(3, 16383, 1/4) folds over 8 terms onto the base 2^65532: about 10^6 table bits
    code, out, _ = run(capsys, "eval", "1 * ImLi(3, 16383, 1/4)", "--digits", "20")
    assert code == 0 and out.strip() == "0.00000000000000000000"


def test_largest_degree_is_accepted(capsys):
    code, out, _ = run(capsys, "eval", f"1 * P({MAX_DEGREE}, 2^1, 1, [1])", "--digits", "20")
    assert code == 0 and out.strip() == "1.00000000000000000002"  # 1 + 2^-65 + ...
    code, out, _ = run(capsys, "gen", "--point", f"ReLi({MAX_DEGREE}, 2, 0)")
    assert code == 0 and out.strip() == f"1/2 * P({MAX_DEGREE}, 2^1, 1, [1])"


def test_precision_limits_exit_code(capsys):
    assert MAX_DIGITS >= 10_000  # verify-all --digits 10000 stays allowed
    for value in (3_000_000, MAX_DIGITS + 1):
        code, out, err = run(capsys, "eval", "1 * pi", "--digits", str(value))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and str(MAX_DIGITS) in err


@pytest.mark.parametrize("digits", [16, 200, MAX_DIGITS])
def test_resolved_bits_stay_within_both_limits(digits):
    resolved = bbpkit.cli._resolve_bits(argparse.Namespace(digits=digits))
    assert resolved == (bits_for_digits(digits), digits)
    assert resolved[0] <= MAX_BITS


def test_rational_at_the_largest_bits_prints_the_largest_digits():
    # in a child: a rational prints at once, all MAX_DIGITS of them
    src = os.path.dirname(os.path.dirname(os.path.abspath(bbpkit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "bbpkit.cli", "eval", "1/3", "--digits", str(MAX_DIGITS)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "0." + "3" * MAX_DIGITS + "\n"


def test_unreadable_catalog_exit_code(tmp_path, capsys):
    for argv in (("verify-all", "--catalog", str(tmp_path / "missing.txt")),
                 ("catalog", "list", "--catalog", str(tmp_path))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and f"cannot read catalog {argv[-1]!r}" in err


def test_endless_catalog_exit_code():
    # in a child under a 600 MB address-space cap, which reading all of /dev/zero exhausts
    src = os.path.dirname(os.path.dirname(os.path.abspath(bbpkit.__file__)))
    cap = 600_000 * 1024
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bbpkit.cli", "catalog", "list", "--catalog", "/dev/zero"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert time.perf_counter() - t0 < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert f"catalog '/dev/zero' is longer than {MAX_CATALOG_BYTES} bytes" in proc.stderr


def test_extraction_past_the_work_budget_exit_code(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "digits", "--formula",
                         "65537/1 * P(64, 2^1, 3, [65537, 65537, 4096])",
                         "--pos", "100000000", "--count", "1024")
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"series work 19200799296 above {MAX_WORK}" in err


LONG_TABLE = f"1 * P(64, 2^1, 1000, [{', '.join(['1'] * 1000)}])"


@pytest.mark.parametrize("formula, digits", [(LONG_TABLE, 1000),
                                             ("1 * P(64, 2^1, 1, [1])", MAX_DIGITS)])
def test_evaluation_past_the_work_budget_exits_in_a_child(formula, digits):
    # in a child with a timeout: were they admitted, these would run 18 s and past 20 s
    src = os.path.dirname(os.path.dirname(os.path.abspath(bbpkit.__file__)))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bbpkit.cli", "eval", formula, "--digits", str(digits)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - t0 < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert f"above {MAX_WORK}" in proc.stderr


def test_closed_pipe_exits_141_without_a_traceback():
    # the read end is closed before the child writes, so its first write fails
    src = os.path.dirname(os.path.dirname(os.path.abspath(bbpkit.__file__)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bbpkit.cli", "catalog", "list", "--format", "json-lines"],
            env=dict(os.environ, PYTHONPATH=src), stdout=write_end, stderr=subprocess.PIPE,
            text=True, timeout=10)
    finally:
        os.close(write_end)
    assert proc.returncode == 141 and proc.stderr == ""


def test_unknown_formula_id_names_the_id(capsys):
    code, out, err = run(capsys, "eval", "--formula-id", "nope")
    assert code == 2 and out == ""
    assert err.strip() == "bbp: error: unknown record id 'nope'"


def test_digits_refuses_record_whose_rhs_disagrees_with_lhs(tmp_path, capsys):
    path = tmp_path / "wrong.txt"
    path.write_text('[identity]\nid = "wrong"\nanchor = "a"\nkind = "bbp_ready"\n'
                    'lhs = "1 * pi"\nrhs = "P(1, 2^1, 1, [1])"\n', encoding="utf-8")
    code, out, err = run(capsys, "digits", "--formula-id", "wrong", "--catalog", str(path),
                         "--pos", "0", "--count", "8")
    assert code == 2 and out == ""
    assert "disagrees with its lhs" in err


def test_digits_derives_a_record_once_and_a_changed_record_afresh(tmp_path, capsys, monkeypatch):
    calls = []
    real = bbpkit.catalog.generate
    monkeypatch.setattr(bbpkit.catalog, "generate", lambda *a: calls.append(a) or real(*a))
    bbpkit.catalog.derive_bbp.cache_clear()
    argv = ("digits", "--formula-id", "deg2-catalan-2e12", "--pos", "100", "--count", "8")
    first = run(capsys, *argv)
    assert first[0] == 0 and calls
    derived = len(calls)
    assert run(capsys, *argv) == first
    assert len(calls) == derived
    # the same id with a right side that disagrees with its left side
    path = tmp_path / "changed.txt"
    path.write_text('[identity]\nid = "deg2-catalan-2e12"\nanchor = "a"\nkind = "bbp_ready"\n'
                    'lhs = "1 * G"\nrhs = "3 * ImLi(2, 1, 3/4)"\n', encoding="utf-8")
    for _ in range(2):
        code, out, err = run(capsys, *argv, "--catalog", str(path))
        assert code == 2 and out == ""
        assert "disagrees with its lhs" in err
    assert len(calls) == derived + 2
    assert run(capsys, *argv) == first


def test_eval_least_digits_prints_only_backed_digits(capsys):
    # the fewest digits allowed, each backed by the bits they resolve to
    code, out, _ = run(capsys, "eval", "1 * pi", "--digits", "16")
    assert code == 0
    assert out.strip() == "3.1415926535897932"


def test_eval_rational_prints_exactly(capsys):
    code, out, _ = run(capsys, "eval", "1/10", "--digits", "20")
    assert code == 0
    assert out.strip() == "0.10000000000000000000"
    code, out, _ = run(capsys, "eval", "--digits", "20", "--", "-1/3 + 1/30")
    assert out.strip() == "-0.30000000000000000000"


def test_eval_raises_precision_until_the_digits_are_backed(capsys):
    # 0.1 + pi/2^400: at the starting 132 bits the interval straddles 0.1
    code, out, _ = run(capsys, "eval", "1/10 + 1/2^400 * pi", "--digits", "20")
    assert code == 0
    assert out.strip() == "0.10000000000000000000"


def test_eval_past_the_precision_cap_exit_code(capsys, monkeypatch):
    # exactly 1/10, but not as a rational: no precision settles the 20th digit
    monkeypatch.setattr(bbpkit.cli, "MAX_BITS", 1000)
    code, out, err = run(capsys, "eval", "1/10 + 1/2 * P(1, 2^1, 1, [1]) + -1 * log2",
                         "--digits", "20")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "1000 bits" in err


def test_eval_refuses_a_boundary_value_a_few_doublings_past_its_start(capsys):
    # 132 bits back 20 digits; six doublings later the interval still straddles 0.1
    t0 = time.perf_counter()
    code, out, err = run(capsys, "eval", "1/10 + 1/2 * P(1, 2^1, 1, [1]) + -1 * log2",
                         "--digits", "20")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "8448 bits" in err
    assert time.perf_counter() - t0 < 20


@pytest.mark.parametrize("bound", [
    Fraction(1, 10**308), Fraction(1, 10**308) + Fraction(1, 10**330), Fraction(1, 10**308 - 1),
    Fraction(2**-1074), Fraction(1, 2**3330), Fraction(3, 2**3330) - Fraction(1, 2**4000),
    Fraction(1), Fraction(10**7), Fraction(1, 10**5), Fraction(1, 10**1000),
    Fraction(99995, 10**4), Fraction(99995, 10**4) - Fraction(1, 10**50), Fraction(1, 3),
])
def test_format_bound_rounds_up_and_is_tight(bound):
    text = format_bound(bound)
    printed = Fraction(text)
    mantissa, exp = text.split("e")
    assert printed >= bound > 0
    assert printed - Fraction(10) ** (int(exp) - 3) < bound  # the next value down is below it
    assert len(mantissa) == 5 and mantissa[0] != "0"


def test_format_bound_exact_powers_of_ten():
    for e in (-3330, -309, -308, -1, 0, 1, 300):
        assert format_bound(Fraction(10) ** e) == f"1.000e{e:+03d}"
    assert format_bound(Fraction(0)) == "0.000e+00"


def test_residual_bounds_never_print_below_the_bound(capsys):
    code, out, _ = run(capsys, "verify", "--id", "deg2-catalan-2e12", "--digits", "1000",
                       "--format", "json-lines")
    assert code == 0
    printed = Fraction(json.loads(out)["residual_bound"])
    report = verify(default_catalog().get("deg2-catalan-2e12"), 1000)
    assert printed >= report.residual.magnitude_bound() > 0  # float() printed 0.000e+00
    code, out, _ = run(capsys, "pslq", "--values", "1 * pi; 2 * pi", "--digits", "400")
    assert code == 0
    bound = out.split("residual bound ")[1].split()[0]
    assert Fraction(bound) > 0


def test_pslq_value_count_past_the_work_cap_exit_code(capsys):
    # a zero denominator is never reached: the count is refused before parsing
    values = "; ".join(["1/0 * pi"] * 129)
    code, out, err = run(capsys, "pslq", "--values", values)
    assert code == 2 and out == ""
    with pytest.raises(ValueError, match="pslq work .* above") as refused:
        check_work(129, bits_for_digits(120), 10**6)  # the default precision and norm
    assert err == f"bbp: error: {refused.value}\n"
