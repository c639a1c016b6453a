import json
import time
from fractions import Fraction

import pytest

import bbpkit.catalog
import bbpkit.cli
from bbpkit.catalog import MAX_MONOMIAL_POWER, default_catalog, verify
from bbpkit.cli import MAX_BITS, MAX_DIGITS, MAX_PSLQ_VALUES, format_bound, main
from bbpkit.pformula import MAX_DEGREE


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
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--digits", "30", "--threads", "2"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("argv", [
    ("eval",),
    ("digits", "--pos", "0", "--count", "8"),
    ("combine", "--terms", "1 * pi"),
    ("pslq", "--values", "1 * pi"),
])
def test_usage_error_is_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("bbp: error: ")


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


def test_digits_count_and_guard_over_limit_exit_code(capsys):
    for flags in (("--count", "100000"), ("--count", "8", "--guard", "100000")):
        code, _, err = run(capsys, "digits", "--formula", "P(1, 2^1, 1, [1])",
                           "--pos", "0", *flags)
        assert code == 2
        assert err.count("\n") == 1


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("digits", "--formula", "P(1, 2^1, 1, [1])", "--pos", "0", "--count", "8", "--digits", "50"),
    ("gen", "--point", "ReLi(1, 1, 3/4)", "--catalog", "x"),
    ("combine", "--terms", "1 * P(1, 2^1, 1, [1])", "--format", "json-lines"),
    ("pslq", "--values", "1 * pi; 2 * pi", "--catalog", "x"),
])
def test_flags_a_subcommand_ignores_are_refused(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("digits", "--formula", "1/3^999999999 * P(1, 2^1, 1, [1])", "--pos", "0", "--count", "8"),
    ("eval", "2^999999999 * pi"),
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


def test_largest_degree_is_accepted(capsys):
    code, out, _ = run(capsys, "eval", f"1 * P({MAX_DEGREE}, 2^1, 1, [1])", "--digits", "20")
    assert code == 0 and out.strip() == "1.00000000000000000002"  # 1 + 2^-65 + ...
    code, out, _ = run(capsys, "gen", "--point", f"ReLi({MAX_DEGREE}, 2, 0)")
    assert code == 0 and out.strip() == f"1/2 * P({MAX_DEGREE}, 2^1, 1, [1])"


def test_precision_limits_exit_code(capsys):
    assert MAX_DIGITS >= 10_000  # verify-all --digits 10000 stays allowed
    for flag, value, limit in (("--digits", 3_000_000, MAX_DIGITS),
                               ("--digits", MAX_DIGITS + 1, MAX_DIGITS),
                               ("--bits", MAX_BITS + 1, MAX_BITS)):
        code, out, err = run(capsys, "eval", "1 * pi", flag, str(value))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and str(limit) in err


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


def test_eval_bits_prints_only_backed_digits(capsys):
    # 10 bits alone would back 3 digits, not the 16 printed
    code, out, _ = run(capsys, "eval", "1 * pi", "--bits", "10")
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


def test_pslq_value_count_limit_exit_code(capsys):
    # a zero denominator is never reached: the count is refused before evaluation
    values = "; ".join(["1/0 * pi"] * (MAX_PSLQ_VALUES + 1))
    code, out, err = run(capsys, "pslq", "--values", values)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and str(MAX_PSLQ_VALUES) in err
