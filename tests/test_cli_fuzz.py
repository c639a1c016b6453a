"""Hostile-input fuzzer for the `bbp` command line.

Each example runs `python -m bbpkit.cli` in its own child process, one at a
time, under an address-space and a CPU-time limit set on that child only.
Numeric arguments are drawn from 0, +-1, powers of two, 10^k - 1 and the
values just past each documented limit, capped so that every accepted
request finishes in about a second.  The long-table slot evaluates 1000
terms at degree 64 on the base 2^1: its largest admitted combination,
65537/1 * P(64, 2^1, 1000, [65537, ...]) at 99 digits, is charged 3.4e7 of
the 2^27 series-work units (about 1.1 s on 2 vCPUs), and every draw at 999
digits is refused.  About one draw in three misspells the subcommand or
puts a flag that argparse refuses after it.  Whatever the input, the exit
code must be 0, 1 or 2, stderr must hold no traceback, and an exit 2 must
print exactly one line.  No slot varies the shard count.
"""
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import bbpkit
from bbpkit.catalog import MAX_MONOMIAL_POWER, bits_for_digits, default_catalog
from bbpkit.cli import MAX_DIGITS
from bbpkit.extractor import MAX_BIT_POS, MAX_HEX_DIGITS
from bbpkit.pformula import MAX_DEGREE, MAX_POWER_BITS
from bbpkit.relations import check_work

CHILD_AS_BYTES = 1 << 30
CHILD_CPU_S = 20
CHILD_WALL_S = 60
SRC = os.path.dirname(os.path.dirname(os.path.abspath(bbpkit.__file__)))


def _slots(cap: int, *past: int) -> st.SearchStrategy[int]:
    """0, +-1, 2^k and 10^k - 1 up to cap, and the given values past a limit."""
    values = {0, 1, -1} | {2**k for k in range(cap.bit_length())} | {
        10**k - 1 for k in range(1, len(str(cap)) + 1)}
    return st.sampled_from(sorted(v for v in values if v <= cap) + list(past))


DIGITS = _slots(999, 15, MAX_DIGITS + 1)
DEGREE = _slots(MAX_DEGREE, MAX_DEGREE + 1)
SMALL = _slots(1 << 12, MAX_POWER_BITS, MAX_POWER_BITS + 1)


def _fewest_refused_values() -> int:
    """The fewest values that check_work refuses at the lowest precision and
    max_norm 1, so at any precision and norm."""
    n = 2
    while True:
        try:
            check_work(n, bits_for_digits(16), 1)
        except ValueError:
            return n
        n += 1


PSLQ_REFUSED = _fewest_refused_values()  # the value count just past the work cap
LONG_LENGTH = 1000
LONG_DIGITS = _slots(99, 999)  # a long table is admitted up to 99 digits, refused at 999
IDS = st.sampled_from(sorted(r.id for r in default_catalog())[::7] + ["nope", ""])


@st.composite
def _formula(draw) -> str:
    root = draw(st.sampled_from(["", "sqrt3 * "]))
    length = draw(st.sampled_from([1, 2, 3]))
    coeffs = ", ".join(str(draw(SMALL)) for _ in range(draw(st.sampled_from([length, 2]))))
    body = f"P({draw(DEGREE)}, 2^{draw(SMALL)}, {length}, [{coeffs}])"
    return f"{draw(SMALL)}/{draw(SMALL)} * {root}{body}"


@st.composite
def _long_table(draw) -> str:
    """LONG_LENGTH terms at MAX_DEGREE on the base 2^1, one drawn coefficient repeated."""
    coeffs = ", ".join([str(draw(SMALL))] * LONG_LENGTH)
    return f"{draw(SMALL)}/{draw(SMALL)} * P({MAX_DEGREE}, 2^1, {LONG_LENGTH}, [{coeffs}])"


@st.composite
def _point(draw) -> str:
    if draw(st.booleans()):
        return f"ReLi0({draw(DEGREE)}, {draw(SMALL)})"
    part = draw(st.sampled_from(["ReLi", "ImLi"]))
    angle = f"{draw(SMALL)}/{draw(st.sampled_from([1, 2, 3, 4, 6, 0]))}"
    return f"{part}({draw(DEGREE)}, {draw(SMALL)}, {angle})"


@st.composite
def _term(draw) -> str:
    kind = draw(st.sampled_from(["monomial", "atom", "point", "formula", "text"]))
    if kind == "monomial":
        power = draw(_slots(MAX_MONOMIAL_POWER, MAX_MONOMIAL_POWER + 1))
        return f"{draw(SMALL)} * pi^{power} * log2"
    if kind == "atom":
        return f"{draw(SMALL)}/{draw(SMALL)} * " + draw(st.sampled_from(
            ["G", "zeta3", "zeta5", "Cl2pi3", "Cl4pi2", "zeta3 * G", "pi^2 * 1"]))
    if kind == "point":
        return f"{draw(SMALL)} * {draw(_point())}"
    if kind == "formula":
        return draw(_formula())
    return draw(st.sampled_from(["", "1/0", "pi pi", "P(", "2^99999999", "1 * ReLi(2, 2", "#"]))


def _expr(max_terms: int = 2) -> st.SearchStrategy[str]:
    return st.lists(_term(), min_size=1, max_size=max_terms).map(" + ".join)


@st.composite
def _precision(draw) -> list[str]:
    return ["--digits", str(draw(DIGITS))] if draw(st.booleans()) else []


# argv that argparse refuses: flags no subcommand takes (--bits after a valid
# --digits too), a non-integer position, a choice outside its list
STRAY_FLAGS = [["--threads", "2"], ["--digits", "20", "--bits", "30"], ["--pos", "x"],
               ["--format", "xml"], ["--guard", "8"]]


def _args(subcommand: str, catalog_dir) -> st.SearchStrategy[list[str]]:
    """The subcommand's flags, with the subcommand misspelt or a stray flag
    after it in about one draw in three."""
    @st.composite
    def draw_request(draw) -> list[str]:
        source = draw(st.sampled_from(["packaged", "missing", "directory", "garbage"]))
        cat = []
        if source == "missing":
            cat = ["--catalog", str(catalog_dir / "missing.txt")]
        elif source == "directory":
            cat = ["--catalog", str(catalog_dir)]
        elif source == "garbage":
            path = catalog_dir / "garbage.txt"
            path.write_bytes(draw(st.binary(max_size=64)) + draw(st.sampled_from(
                [b"", b'[identity]\nid = "x"\n', b'version = "2"\n[identity]\nlhs = "1/0"\n'])))
            cat = ["--catalog", str(path)]
        if subcommand == "eval":
            kind = draw(st.sampled_from(["id", "expr", "long"]))
            if kind == "long":
                return ["eval", *cat, "--digits", str(draw(LONG_DIGITS)), "--",
                        draw(_long_table())]
            target = ["--formula-id", draw(IDS)] if kind == "id" else ["--", draw(_expr())]
            return ["eval", *cat, *draw(_precision()), *target]
        if subcommand == "digits":
            target = (["--formula-id", draw(IDS)] if draw(st.booleans())
                      else ["--formula", draw(_formula())])
            return ["digits", *target, *cat,
                    "--pos", str(draw(_slots(10**5, MAX_BIT_POS + 1))),
                    "--count", str(draw(_slots(MAX_HEX_DIGITS, MAX_HEX_DIGITS + 1))),
                    "--format", draw(st.sampled_from(["text", "json-lines"]))]
        if subcommand == "gen":
            length = draw(st.one_of(st.just([]), _slots(1 << 12).map(lambda n: ["--len", str(n)])))
            return ["gen", "--point", draw(_point()), *length]
        if subcommand == "combine":
            return ["combine", "--terms", draw(st.lists(_formula(), min_size=1, max_size=3)
                                              .map(" + ".join))]
        if subcommand == "verify":
            return ["verify", "--id", draw(IDS), *cat, *draw(_precision())]
        if subcommand == "verify-all":
            return ["verify-all", *cat, *draw(_precision())]
        if subcommand == "pslq":
            n = draw(st.sampled_from([1, 2, 3, PSLQ_REFUSED]))
            values = "; ".join(draw(_expr(1)) for _ in range(min(n, 3)))
            values += "; 1" * (n - min(n, 3))
            return ["pslq", "--values", values, *draw(_precision()),
                    "--max-norm", str(draw(_slots(10**5 - 1)))]
        return ["catalog", "list", *cat]

    @st.composite
    def draw_args(draw) -> list[str]:
        argv = draw(draw_request())
        refusal = draw(st.sampled_from(["none", "none", "none", "none", "flag", "command"]))
        if refusal == "flag":
            argv[1:1] = draw(st.sampled_from(STRAY_FLAGS))
        elif refusal == "command":
            argv[0] = "frobnicate"
        return argv

    return draw_args()


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_S, CHILD_CPU_S))


SUBCOMMANDS = ["eval", "digits", "gen", "combine", "verify", "verify-all", "pslq", "catalog"]


@pytest.fixture(scope="module")
def catalog_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("catalogs")


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_hostile_cli_input_exits_cleanly(subcommand, catalog_dir):
    @settings(max_examples=4, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(argv=_args(subcommand, catalog_dir))
    def check(argv):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-m", "bbpkit.cli", *argv], env=env,
                              capture_output=True, text=True, errors="replace",
                              timeout=CHILD_WALL_S, preexec_fn=_limit_child)
        assert proc.returncode in (0, 1, 2), (argv, proc.returncode, proc.stderr[-400:])
        assert "Traceback" not in proc.stderr, (argv, proc.stderr[-400:])
        if proc.returncode == 2:
            assert proc.stderr.count("\n") == 1, (argv, proc.stderr)

    check()
