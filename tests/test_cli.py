import json

import pytest

from bbpkit.cli import main


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
    _, seq, _ = run(capsys, "verify-all", "--digits", "30", "--threads", "1")
    _, par, _ = run(capsys, "verify-all", "--digits", "30", "--threads", "4")
    assert seq == par


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
