import csv
import io
import itertools
import json
from contextlib import redirect_stdout

import pytest

import thetasym.catalog as catalog
import thetasym.cli as cli
import thetasym.core as core
import thetasym.ggp as ggp
import thetasym.oracle as oracle
import thetasym.theta as theta
from thetasym.catalog import MINUS, PLUS
from thetasym.cli import main
from thetasym.core import (
    MAX_LAYER_SYMBOLS,
    bipartition_count,
    enumerate_symbols,
    symbol_defect,
    symbol_rank,
    upsilon,
)
from thetasym.oracle import MAX_VARIANT_FAMILIES
from thetasym.theta import TowerContext

from symbol_helpers import forbid_layer_builds, forbid_variant_families


def run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_symbols_enumerate_pretty():
    code, out = run_cli(["symbols-enumerate", "--rank", "1", "--family", "sp"])
    assert code == 0
    assert "[1|]" in out and "[1,0|1]" in out


def test_o_odd_family_lists_the_symplectic_symbols():
    """Odd orthogonal groups use the symplectic symbol set; their sign lives on labels."""
    for rank, fmt in itertools.product(range(5), ("pretty", "json", "csv")):
        odd = run_cli(["symbols-enumerate", "--rank", str(rank), "--family", "o-odd", "--format", fmt])
        assert odd == run_cli(["symbols-enumerate", "--rank", str(rank), "--family", "sp", "--format", fmt])
        assert odd[0] == 0 and "|" in odd[1]


def test_theta_first_example():
    code, out = run_cli(
        ["theta-first", "--symbol", "[1,0|1]", "--sign", "+", "--direction", "sp-to-o"]
    )
    assert code == 0
    assert "1" in out and "[1|0]" in out


def test_theta_fiber_json():
    code, out = run_cli(
        [
            "theta-fiber",
            "--symbol",
            "[1,0|1]",
            "--sign",
            "+",
            "--target-rank",
            "1",
            "--format",
            "json",
        ]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [{"symbol": "[1|0]", "rank": 1, "defect": 0}]


def test_theta_cuspidal():
    code, out = run_cli(["theta-cuspidal", "--k", "1", "--variant", "down", "--format", "csv"])
    assert code == 0
    assert "[|2,1,0]" in out and "[1,0|]" in out


def test_ggp_mult():
    code, out = run_cli(
        [
            "ggp-mult",
            "--left",
            "sp(2): rho=trivial:0:reg ; L=[1,0|1] ; L'=[|]",
            "--right",
            "sp(2): rho=trivial:0:reg ; L=[0|] ; L'=[1|0]",
            "--case",
            "fj",
            "--eps-minus-one",
            "+",
            "--format",
            "json",
        ]
    )
    assert code == 0
    row = json.loads(out.strip())
    assert row["multiplicity"] == "1" and row["status"] == "ok"


SP0_TRIVIAL = "sp(0): rho=trivial:0:reg ; L=[0|] ; L'=[|]"
CUSP_A = "sp(2): rho=cusp-a:1:irr ; L=[0|] ; L'=[|]"
CUSP_B = "sp(2): rho=cusp-b:1:irr ; L=[0|] ; L'=[|]"


@pytest.mark.parametrize(
    "left, right, multiplicity, status",
    [
        (SP0_TRIVIAL, "sp(2): rho=trivial:0:reg ; L=[1|] ; L'=[|]", "0", "ok"),
        (
            SP0_TRIVIAL,
            "sp(2): rho=trivial:0:reg ; L=[0|] ; L'=[1,0|]",
            "undetermined(orientation)",
            "undetermined",
        ),
        (CUSP_A, CUSP_B, "m(cusp-a,cusp-b)", "ok"),
        (CUSP_B, CUSP_A, "m(cusp-a,cusp-b)", "ok"),
    ],
    ids=["zero", "undetermined", "symbolic", "symbolic-swapped"],
)
def test_ggp_mult_value_strings(left, right, multiplicity, status):
    argv = ["ggp-mult", "--left", left, "--right", right, "--case", "fj"]
    code, out = run_cli(argv + ["--eps-minus-one", "+", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {
        "label": f"{left} / {right}",
        "multiplicity": multiplicity,
        "status": status,
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["ggp-mult", "--left", "o+(3): rho=trivial:0:reg ; L=[1|] ; L'=[0|] ; eps=+",
             "--right", SP0_TRIVIAL, "--case", "fj", "--eps-minus-one", "+", "--format", "json"],
            "Fourier-Jacobi needs two symplectic labels",
        ),
        (["theta-cuspidal", "--k", "-1", "--variant", "down"], "cuspidal index must be nonnegative"),
    ],
    ids=["fj-needs-sp", "negative-cuspidal-index"],
)
def test_domain_refusals_print_one_error_line(argv, message, capsys):
    assert run_cli(argv) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_rank_1_descriptor_named_trivial_refused_before_work(monkeypatch, capsys):
    """Only the rank-0 descriptor may be named ``trivial``; this one once read as m(trivial,x)."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("a pair was evaluated for a refused descriptor")

    monkeypatch.setattr(ggp, "ggp_multiplicity", must_not_run)
    code, out = run_cli(
        ["ggp-mult", "--case", "fj", "--eps-minus-one", "+",
         "--left", "sp(2): rho=trivial:1:irr ; L=[0|] ; L'=[|]",
         "--right", "sp(2): rho=x:1:irr ; L=[0|] ; L'=[|]"]
    )
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "error: descriptor id 'trivial' is reserved for rank 0 (at offset 7)\n"
    )


def test_ggp_branch_trivial():
    code, out = run_cli(
        [
            "ggp-branch",
            "--pi",
            "o+(3): rho=trivial:0:reg ; L=[1|] ; L'=[0|] ; eps=+",
            "--target",
            "o+(2)",
            "--eps-minus-one",
            "+",
            "--format",
            "json",
        ]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    trivial = [r for r in rows if "L=[1|0]" in r["label"]]
    assert len(trivial) == 1 and trivial[0]["multiplicity"] == "1"


def test_eps_required_for_sign_sensitive_verbs():
    code, _ = run_cli(
        [
            "ggp-mult",
            "--left",
            "sp(2): rho=trivial:0:reg ; L=[1,0|1] ; L'=[|]",
            "--right",
            "sp(2): rho=trivial:0:reg ; L=[0|] ; L'=[1|0]",
            "--case",
            "fj",
        ]
    )
    assert code == 1
    code, _ = run_cli(
        [
            "ggp-mult",
            "--left",
            "x",
            "--right",
            "y",
            "--case",
            "fj",
            "--eps-minus-one",
            "+",
            "--q",
            "5",
        ]
    )
    assert code == 1


def test_q_sets_eps():
    code, out = run_cli(
        [
            "ggp-mult",
            "--left",
            "sp(2): rho=trivial:0:reg ; L=[1,0|1] ; L'=[|]",
            "--right",
            "sp(2): rho=trivial:0:reg ; L=[0|] ; L'=[1|0]",
            "--case",
            "fj",
            "--q",
            "5",
        ]
    )
    assert code == 0


@pytest.mark.parametrize("q, code", [("9", 0), ("25", 0), ("15", 1), ("21", 1)])
def test_q_must_be_odd_prime_power(q, code, monkeypatch, capsys):
    if code:
        def must_not_run(*args, **kwargs):
            raise AssertionError("work started for a refused --q")

        monkeypatch.setattr(catalog, "parse_label", must_not_run)
    argv = [
        "ggp-mult",
        "--left",
        "sp(2): rho=trivial:0:reg ; L=[1,0|1] ; L'=[|]",
        "--right",
        "sp(2): rho=trivial:0:reg ; L=[0|] ; L'=[1|0]",
        "--case",
        "fj",
        "--q",
        q,
    ]
    assert run_cli(argv)[0] == code
    if code:
        assert capsys.readouterr().err == f"error: q must be an odd prime power, got {q}\n"


def test_domain_error_exit_code():
    code, _ = run_cli(["theta-first", "--symbol", "[1,1|]", "--sign", "+", "--direction", "sp-to-o"])
    assert code == 1
    code, _ = run_cli(["theta-first", "--symbol", "[1|0]", "--sign", "+", "--direction", "sp-to-o"])
    assert code == 1


def test_verify_exit_codes():
    code, out = run_cli(["verify", "--suite", "counts", "--max-rank", "4"])
    assert code == 0
    assert "pass" in out


def test_verify_failure_exit_code(monkeypatch):
    from thetasym.oracle import VerificationReport

    failing = VerificationReport()
    failing.record(False, "probe", 1, 2)
    monkeypatch.setattr(oracle, "verify_f1", lambda max_rank: failing)
    code, out = run_cli(["verify", "--suite", "f1", "--max-rank", "1"])
    assert code == 2
    assert out == "suite f1: FAIL (1 checks, 1 failures)\n  probe: expected 1, got 2\n"
    assert out == f"suite f1: {failing}\n"


def test_output_byte_identical():
    args = ["symbols-enumerate", "--rank", "4", "--family", "o-", "--format", "csv"]
    assert run_cli(args) == run_cli(args)


def _reference_table(rows, columns, fmt):
    """The table renderer written out plainly: the bytes ``_emit`` must give."""
    if fmt == "json":
        return "".join(json.dumps({c: r[c] for c in columns}, sort_keys=True) + "\n" for r in rows)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow([r[c] for c in columns])
        return buffer.getvalue()
    widths = {c: max([len(c)] + [len(str(r[c])) for r in rows]) for c in columns}
    lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
    lines += ["  ".join(str(r[c]).ljust(widths[c]) for c in columns) for r in rows]
    return "".join(line.rstrip() + "\n" for line in lines)


def _row_text(row):
    return ",".join(str(x) for x in row)


@pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
@pytest.mark.parametrize("family", ["sp", "o+", "o-", "o-odd"])
def test_symbols_enumerate_golden_bytes(family, fmt):
    for rank in range(7):
        rows = [
            {
                "symbol": f"[{_row_text(s.row_a)}|{_row_text(s.row_b)}]",
                "rank": symbol_rank(s),
                "defect": symbol_defect(s),
                "upsilon": f"([{_row_text(upsilon(s).upper)}],[{_row_text(upsilon(s).lower)}])",
            }
            for s in enumerate_symbols(rank, cli._FAMILIES[family])
        ]
        expected = _reference_table(rows, ["symbol", "rank", "defect", "upsilon"], fmt)
        argv = ["symbols-enumerate", "--rank", str(rank), "--family", family, "--format", fmt]
        assert run_cli(argv) == (0, expected)


@pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
def test_empty_theta_fiber_prints_the_header_only_table(fmt):
    argv = ["theta-fiber", "--symbol", "[1,0|1]", "--sign", "+", "--target-rank", "0", "--format", fmt]
    expected = {"pretty": "symbol  rank  defect\n", "json": "", "csv": "symbol,rank,defect\n"}[fmt]
    assert expected == _reference_table([], ["symbol", "rank", "defect"], fmt)
    assert run_cli(argv) == (0, expected)


def test_oversized_layer_refused_before_work(monkeypatch, capsys):
    forbid_layer_builds(monkeypatch)
    code, out = run_cli(["symbols-enumerate", "--rank", "64", "--family", "sp"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        f"error: the rank 64, defect 1 layer has {bipartition_count(64)} symbols, "
        f"over the enumeration bound MAX_LAYER_SYMBOLS = {MAX_LAYER_SYMBOLS}\n"
    )


def test_oversized_fiber_refused_before_work(monkeypatch, capsys):
    """``theta-fiber`` refuses by its own fiber's bound, read off the source:
    at rank 161 the staircase-free rows (12, ..., 1) of this rank-156 source
    take 13 strip sizes times 2^11 cuts times 2^12 grown rows."""
    forbid_layer_builds(monkeypatch)
    source = "[" + ",".join(map(str, range(24, -1, -2))) + "|" + ",".join(map(str, range(23, 0, -2))) + "]"
    rank = "161"
    code, out = run_cli(["theta-fiber", "--symbol", source, "--sign", "+", "--target-rank", rank])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        f"error: the rank {rank} fiber of {source} has up to 109051904 partners, "
        f"over the enumeration bound MAX_LAYER_SYMBOLS = {MAX_LAYER_SYMBOLS}\n"
    )


@pytest.mark.parametrize("suite", ["counts", "f1", "variants"])
def test_oversized_sweep_refused_before_work(suite, monkeypatch, capsys):
    forbid_layer_builds(monkeypatch)
    code, out = run_cli(["verify", "--suite", suite, "--max-rank", "23"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "error: the rank <= 23 sweep has 1063737 symbols, "
        f"over the enumeration bound MAX_LAYER_SYMBOLS = {MAX_LAYER_SYMBOLS}\n"
    )


def test_oversized_variant_sweep_refused_before_work(monkeypatch, capsys):
    """Ranks 7-22 pass the symbol sweep bound; counting their families stops at rank 7."""
    built = forbid_variant_families(monkeypatch)
    code, out = run_cli(["verify", "--suite", "variants", "--max-rank", "22"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "error: the rank <= 22 variant sweep has more than 121512138 families, "
        f"over the enumeration bound MAX_VARIANT_FAMILIES = {MAX_VARIANT_FAMILIES}\n"
    )
    assert max(group.rank for group in built) == 7


@pytest.mark.parametrize(
    "argv",
    [
        ["symbols-enumerate", "--rank", "2", "--family", "sp", "--rank", "3"],
        ["theta-fiber", "--symbol", "[1,0|1]", "--sign", "+", "--target-rank", "1",
         "--format", "json", "--format", "csv"],
        ["theta-first", "--symbol", "[1,0|1]", "--sign", "+", "--symbol", "[1|0]", "--direction", "sp-to-o"],
        ["theta-cuspidal", "--k", "1", "--variant", "down", "--variant", "up"],
        ["ggp-mult", "--left", SP0_TRIVIAL, "--right", SP0_TRIVIAL, "--case", "fj",
         "--eps-minus-one", "+", "--eps-minus-one", "-"],
        ["ggp-branch", "--pi", "o+(3): rho=trivial:0:reg ; L=[1|] ; L'=[0|] ; eps=+", "--target", "o+(2)",
         "--q", "5", "--q", "3"],
        ["verify", "--suite", "counts", "--max-rank", "1", "--max-rank", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_option_given_twice_is_a_usage_error(argv, capsys):
    """No repeated option silently wins: argparse refuses the second one,
    naming it, before the verb runs."""
    flag = next(arg for arg in argv if arg.startswith("--") and argv.count(arg) == 2)
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: argument {flag}: given twice\n")


def test_invalid_case_lists_the_cases_in_order(capsys):
    argv = ["ggp-mult", "--left", SP0_TRIVIAL, "--right", SP0_TRIVIAL, "--case", "gp", "--eps-minus-one", "+"]
    with pytest.raises(SystemExit) as exit_:
        run_cli(argv)
    assert exit_.value.code == 2
    assert "argument --case: invalid choice: 'gp' (choose from 'fj', 'bessel')" in capsys.readouterr().err


def test_oversized_branch_table_refused_before_work(monkeypatch, capsys):
    forbid_layer_builds(monkeypatch)

    def must_not_run(*args, **kwargs):
        raise AssertionError("candidates were enumerated for a refused table")

    monkeypatch.setattr(ggp, "enumerate_labels", must_not_run)
    pi = "sp(46): rho=trivial:0:reg ; L=[23|] ; L'=[|]"
    code, out = run_cli(["ggp-branch", "--pi", pi, "--target", "sp(46)", "--eps-minus-one", "+"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "error: the rank <= 23 sweep has 1063737 symbols, "
        f"over the enumeration bound MAX_LAYER_SYMBOLS = {MAX_LAYER_SYMBOLS}\n"
    )


@pytest.mark.parametrize("k", [500_000, 10**6])
@pytest.mark.parametrize("variant", ["down", "up"])
def test_oversized_cuspidal_index_refused_before_work(k, variant, monkeypatch, capsys):
    def must_not_run(*args):
        raise AssertionError("a staircase was built for a refused index")

    monkeypatch.setattr(catalog, "_staircase_row", must_not_run)
    code, out = run_cli(["theta-cuspidal", "--k", str(k), "--variant", variant])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        f"error: the cuspidal staircase of index {k} has {2 * k + 1} entries, "
        f"over the enumeration bound MAX_LAYER_SYMBOLS = {MAX_LAYER_SYMBOLS}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "f1", "--max-rank", "-3"],
        ["verify", "--suite", "counts", "--max-rank", "-1"],
        ["symbols-enumerate", "--rank", "-1", "--family", "sp"],
        ["theta-fiber", "--symbol", "[1,0|1]", "--sign", "+", "--target-rank", "-2"],
    ],
)
def test_negative_rank_refused_before_work(argv, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started for a refused rank")

    for module, name in (
        (oracle, "verify_f1"), (oracle, "verify_counts"), (core, "enumerate_symbols"), (theta, "theta_fiber")
    ):
        monkeypatch.setattr(module, name, must_not_run)
    code, out = run_cli(argv)
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith("error: --")


def test_target_rank_past_the_grammar_refused_before_work(monkeypatch, capsys):
    """No entry of a rank-n symbol exceeds n, so a target rank of at most
    ``MAX_INT_DIGITS`` digits prints a fiber that parses back, and one
    digit more is refused before any fiber is built."""
    assert core.MAX_INT_DIGITS == 18
    for sign in "+-":
        code, out = run_cli(["theta-fiber", "--symbol", "[0|]", "--sign", sign,
                             "--target-rank", "9" * 18, "--format", "json"])
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and rows
        assert all(core.format_symbol(core.parse_symbol(row["symbol"])) == row["symbol"] for row in rows)

    def must_not_run(*args, **kwargs):
        raise AssertionError("a fiber was built for a refused target rank")

    monkeypatch.setattr(theta, "theta_fiber", must_not_run)
    code, out = run_cli(["theta-fiber", "--symbol", "[0|]", "--sign", "+", "--target-rank", "1" + "0" * 18])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error: --target-rank has more than 18 digits, got {10**18}\n"


@pytest.mark.parametrize("symbol, sign", [("[1|0]", "+"), ("[1,0|]", "-"), ("[|0]", "+")])
def test_theta_fiber_refuses_non_symplectic_symbol_before_work(symbol, sign, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a partner was built for a refused symbol")

    monkeypatch.setattr(theta, "_symbol_of", must_not_run)
    code, out = run_cli(["theta-fiber", "--symbol", symbol, "--sign", sign, "--target-rank", "2"])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith("error: first symbol defect")


@pytest.mark.parametrize("suite", ["f1", "counts"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--eps-minus-one", "+"],
        ["--q", "9"],
        ["--orient-left", "+"],
        ["--orient-right", "-"],
        ["--orient-left-alt", "+"],
        ["--orient-right-alt", "-"],
    ],
)
def test_verify_variant_only_flags_refused_before_work(suite, flags, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started for a refused flag")

    for name in ("verify_f1", "verify_counts", "verify_variant_uniqueness"):
        monkeypatch.setattr(oracle, name, must_not_run)
    code, out = run_cli(["verify", "--suite", suite, "--max-rank", "1", *flags])
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert err == f"error: {flags[0]} applies only to --suite variants\n"


def test_verify_variants_from_the_cli():
    assert run_cli(["verify", "--suite", "variants", "--max-rank", "1"]) == (
        0,
        "suite variants: pass (223 checks, 0 failures)\n",
    )


def test_known_multiple_nonzero_case_is_the_one_the_docstrings_name():
    """``MultipleNonzero`` and ``select_nonzero_variant`` name this run as the
    known gate defect; when the gate is fixed this test says to update them."""
    from thetasym.errors import MultipleNonzero

    argv = ["verify", "--suite", "variants", "--max-rank", "1", "--eps-minus-one", "-",
            "--orient-right", "-", "--orient-left-alt", "+"]
    code, out = run_cli(argv)
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "suite variants: FAIL (223 checks, 2 failures)"
    assert all("got 2 variant classes nonzero for sp(2)" in line for line in lines[1:])
    assert len(lines) == 3
    named = " ".join(MultipleNonzero.__doc__.split())
    assert f"thetasym {' '.join(argv)}" in named
    assert "MultipleNonzero" in ggp.select_nonzero_variant.__doc__


@pytest.mark.parametrize(
    "flags, expected",
    [
        ([], TowerContext(eps_minus_one=PLUS)),
        (["--q", "5"], TowerContext(eps_minus_one=PLUS)),
        (["--q", "3"], TowerContext(eps_minus_one=MINUS)),
        (["--eps-minus-one", "-"], TowerContext(eps_minus_one=MINUS)),
        (["--orient-left", "-"], TowerContext(orient_left=MINUS)),
        (["--orient-right", "+"], TowerContext(orient_right=PLUS)),
        (["--orient-left-alt", "-"], TowerContext(orient_left_alt=MINUS)),
        (["--orient-right-alt", "+"], TowerContext(orient_right_alt=PLUS)),
        (
            ["--q", "7", "--orient-left", "+", "--orient-right", "-",
             "--orient-left-alt", "-", "--orient-right-alt", "+"],
            TowerContext(MINUS, PLUS, MINUS, MINUS, PLUS),
        ),
    ],
)
def test_verify_variants_passes_its_context(flags, expected, monkeypatch):
    """No eps flag means eps(-1) = +; --q sets it by q mod 4; each
    --orient-* bit lands in its own field."""
    from thetasym.oracle import VerificationReport

    seen = []

    def spy(max_rank, ctx):
        seen.append((max_rank, ctx))
        return VerificationReport(checked=1)

    monkeypatch.setattr(oracle, "verify_variant_uniqueness", spy)
    code, out = run_cli(["verify", "--suite", "variants", "--max-rank", "2", *flags])
    assert (code, out) == (0, "suite variants: pass (1 checks, 0 failures)\n")
    assert seen == [(2, expected)]


def test_verify_variants_refuses_both_eps_flags(monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started for a refused flag")

    monkeypatch.setattr(oracle, "verify_variant_uniqueness", must_not_run)
    argv = ["verify", "--suite", "variants", "--max-rank", "1", "--q", "5", "--eps-minus-one", "+"]
    assert run_cli(argv) == (1, "")
    assert capsys.readouterr().err == "error: exactly one of --eps-minus-one and --q is required\n"
