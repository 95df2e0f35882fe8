import ast
import itertools
import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import thetasym.catalog as catalog
import thetasym.core as core
import thetasym.oracle as oracle
import thetasym.theta as theta
from thetasym.catalog import MINUS, PLUS, GroupFamily, cuspidal_symbol
from thetasym.core import (
    MAX_LAYER_SYMBOLS,
    ZERO_SYMBOL,
    SymbolFamily,
    count_symbols,
    enumerate_symbols,
    parse_symbol,
    symbol_rank,
)
from thetasym.errors import DefectClassMismatch
from thetasym.oracle import (
    VerificationReport,
    brute_first_occurrence,
    default_scan_bound,
    verify_counts,
    verify_f1,
    verify_orientation,
    verify_variant_uniqueness,
)
from thetasym.theta import (
    CuspidalThetaVariant,
    ThetaDirection,
    TowerContext,
    _fiber,
    cuspidal_theta,
    first_occurrence_unipotent,
    in_B,
    theta_fiber,
)

from symbol_helpers import first_fiber_by_ranks, forbid_layer_builds, forbid_variant_families


def test_brute_first_occurrence_examples():
    assert brute_first_occurrence(parse_symbol("[1,0|1]"), PLUS, 6) == 1
    assert brute_first_occurrence(parse_symbol("[1|]"), PLUS, 6) == 0
    assert brute_first_occurrence(parse_symbol("[1|]"), MINUS, 6) == 2
    assert brute_first_occurrence(parse_symbol("[|2,1,0]"), PLUS, 2) is None


def _scans(max_rank: int):
    """(family, (source, sign, bound)) for every source of rank <= max_rank
    of every family, on both towers (an even-type source's wrong tower
    included), at every bound from 0 to two past the default one."""
    for n in range(max_rank + 1):
        for family, sign in itertools.product(SymbolFamily, (PLUS, MINUS)):
            for lam in enumerate_symbols(n, family):
                for bound in range(default_scan_bound(lam) + 3):
                    yield family, (lam, sign, bound)


def test_first_fiber_equals_the_rank_by_rank_scan():
    """One ``_fiber`` call over ranks 0 to a bound finds what a single-rank
    call per rank finds, the fiber in the same order and ``None`` results
    included."""
    for _, (lam, sign, bound) in _scans(8):
        assert _fiber(lam, sign, range(bound + 1)) == first_fiber_by_ranks(lam, sign, bound), (lam, sign, bound)


def test_first_fiber_sets_up_once_and_builds_only_its_fiber(monkeypatch):
    """A counting spy: the source's ``upsilon`` is asked once per scan,
    whatever the bound, and strips are cut and partners built only at the
    rank the scan returns.  A source on the wrong tower asks nothing at all."""
    events = []
    upsilon, inside, build = theta.upsilon, theta._inside, theta._symbol_of

    def spy(kind, fn):
        def spied(*args):
            value = fn(*args)
            events.append((kind, value if kind == "partner" else args[0]))
            return value

        return spied

    monkeypatch.setattr(theta, "upsilon", spy("upsilon", upsilon))
    monkeypatch.setattr(theta, "_inside", spy("inside", inside))
    monkeypatch.setattr(theta, "_symbol_of", spy("partner", build))
    for family, (lam, sign, bound) in _scans(6):
        events.clear()
        found, fiber = _fiber(lam, sign, range(bound + 1))
        if family is not SymbolFamily.SP_UNIPOTENT and sign != family.sign:
            assert (found, events) == (None, [])
            continue
        assert [x for kind, x in events if kind == "upsilon"] == [lam]
        kinds = [kind for kind, _ in events]
        assert (kinds.count("inside") > 0) == (found is not None)
        built = [x for kind, x in events if kind == "partner"]
        assert sorted(built, key=core._ROWS) == fiber
        assert all(symbol_rank(p) == found for p in built)


@pytest.mark.parametrize("n", [40, 60])
@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_scan_reaches_sources_whose_target_layers_are_over_the_bound(n, sign):
    """``[n|]`` is scanned to its closed-form first occurrence, and its one
    partner there is the closed-form lift, although on the minus tower the
    layers it passes hold more than ``MAX_LAYER_SYMBOLS`` symbols."""
    lam = parse_symbol(f"[{n}|]")
    closed = first_occurrence_unipotent(lam, sign, ThetaDirection.SP_TO_O)
    assert brute_first_occurrence(lam, sign, n + 2) == closed.index
    assert _fiber(lam, sign, range(n + 3)) == (closed.index, [closed.lift])


def test_scan_starts_at_the_first_rank_with_room():
    """A source part of 10^12 boxes is answered at once, not after a walk
    through the 10^12 ranks below its first occurrence, and its one plus
    tower partner is not refused by the 10^12 rows that interlace with it."""
    lam = parse_symbol("[|1000000000000,1,0]")
    assert _fiber(lam, PLUS, range(10**13)) == (1000000000002, [parse_symbol("[1000000000001,2,1,0|]")])
    assert brute_first_occurrence(lam, PLUS, 10**13) == 1000000000002
    assert brute_first_occurrence(lam, MINUS, 10**13) == 1


@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_even_type_source_refused_before_the_scan(sign, monkeypatch):
    """An sp-to-o scan of an even-type source raises ``theta_fiber``'s class
    refusal even at a bound that scans no rank, and builds nothing."""
    lam = parse_symbol("[1,0|]")
    with pytest.raises(DefectClassMismatch) as fiber_err:
        theta.theta_fiber(lam, sign, 0)
    forbid_layer_builds(monkeypatch)
    for bound in (-1, 0, 4):
        with pytest.raises(DefectClassMismatch) as err:
            brute_first_occurrence(lam, sign, bound)
        assert str(err.value) == str(fiber_err.value) == "first symbol defect 2 not = 1 mod 4"


def test_fiber_to_sp_equals_full_layer_filter():
    """On its own tower and on the wrong one, where both sides are empty."""
    for n in range(7):
        for fam, sign in (
            (SymbolFamily.O_EVEN_PLUS, PLUS),
            (SymbolFamily.O_EVEN_MINUS, MINUS),
            (SymbolFamily.O_EVEN_PLUS, MINUS),
            (SymbolFamily.O_EVEN_MINUS, PLUS),
        ):
            for lam_prime in enumerate_symbols(n, fam):
                for t in range(9):
                    full = [
                        s
                        for s in enumerate_symbols(t, SymbolFamily.SP_UNIPOTENT)
                        if in_B(s, lam_prime, sign)
                    ]
                    assert _fiber(lam_prime, sign, range(t, t + 1)) == (t if full else None, full)


@pytest.mark.parametrize("max_rank", [5, 10])
def test_verify_f1_reads_no_layer_above_its_rank(max_rank, monkeypatch):
    """The sweep budget counts the layers of rank <= max_rank, and the
    fiber scan builds its partners without reading any other."""
    ranks = []
    layer = core._defect_layer

    def spy(rank, defect):
        ranks.append(rank)
        return layer(rank, defect)

    for module in (core, theta):
        if hasattr(module, "_defect_layer"):
            monkeypatch.setattr(module, "_defect_layer", spy)
    assert verify_f1(max_rank).passed
    assert max(ranks) == max_rank


def test_scan_bound_formula():
    s = parse_symbol("[|2,1,0]")
    assert default_scan_bound(s) == 2 + 2 + 1


def test_verify_f1_passes():
    report = verify_f1(4)
    assert report.passed and report.checked > 0
    assert verify_f1(0).passed


def shift_closed_form_index(monkeypatch):
    """Make the oracle see every closed-form index one too high.

    A plain ``FirstOccurrence`` would refuse the shifted index, as its lift
    rank must equal it, so the shifted result is a bare namespace.
    """
    from thetasym import oracle

    closed_form = oracle.first_occurrence_unipotent

    def shifted(*args):
        occ = closed_form(*args)
        return SimpleNamespace(index=occ.index + 1, lift=occ.lift)

    monkeypatch.setattr(oracle, "first_occurrence_unipotent", shifted)


def test_verify_f1_detects_injected_failure(monkeypatch):
    shift_closed_form_index(monkeypatch)
    report = verify_f1(2)
    assert not report.passed
    assert report.failures


def test_failure_text_in_every_verifier(monkeypatch):
    """Failure text is built only for failing checks, and reads as before."""
    from thetasym import ggp, oracle
    from thetasym.errors import MultipleNonzero

    shift_closed_form_index(monkeypatch)
    report = verify_f1(1)
    assert report.checked == 11 and len(report.failures) == 11
    assert report.failures[:3] == [
        {"input": "[0|] sign + sp-to-o", "expected": "index 1, lift [|]",
         "actual": "index 0, fiber ['[|]']"},
        {"input": "[0|] sign - sp-to-o", "expected": "index 2, lift [|1,0]",
         "actual": "index 1, fiber ['[|1,0]']"},
        {"input": "[|] sign + o-to-sp", "expected": "index 1, lift [0|]",
         "actual": "index 0, fiber ['[0|]']"},
    ]

    monkeypatch.setattr(oracle, "count_symbols", lambda rank, family: 0)
    report = verify_counts(0)
    assert report.checked == 5
    assert report.failures == [
        {"input": "count sp rank 0", "expected": "0", "actual": "1"},
        {"input": "count o+ rank 0", "expected": "0", "actual": "1"},
    ]

    real = ggp._VariantRun.family
    calls = []

    def second_raises(run, left, right, case):
        calls.append(1)
        if len(calls) == 2:
            raise MultipleNonzero("boom")
        return real(run, left, right, case)

    monkeypatch.setattr(ggp._VariantRun, "family", second_raises)
    report = verify_variant_uniqueness(0, TowerContext(eps_minus_one=PLUS))
    assert report.checked == 5
    assert report.failures == [
        {
            "input": "o+(1): rho=trivial:0:reg ; L=[0|] ; L'=[0|] ; eps=+ / "
            "o+(0): rho=trivial:0:reg ; L=[|] ; L'=[|]",
            "expected": "<=1 class",
            "actual": "boom",
        }
    ]


def test_verify_counts():
    report = verify_counts(6)
    assert report.passed
    # the rank-1 and rank-2 symplectic rows are among the checks
    assert report.checked > 20


def test_verify_orientation():
    """The derived bits agree with the scan on every staircase up to k = 8
    (9 sp labels, 16 even ones)."""
    report = verify_orientation(8)
    assert report.passed and report.checked == 25


@pytest.mark.parametrize("max_k, checked", [(0, 1), (1, 4), (3, 10)])
def test_verify_orientation_checks_one_sp_and_two_even_labels_per_k(max_k, checked):
    """k = 0 has only the sp staircase; each k >= 1 adds the sp staircase,
    the even staircase and its transpose."""
    report = verify_orientation(max_k)
    assert report.passed and report.checked == checked


def test_verify_orientation_refuses_an_oversized_run_before_building(monkeypatch):
    """The staircases of k <= K hold (K + 1)(2K + 1) entries: k <= 3 holds
    28, which a bound of 28 lets through and one of 27 refuses, and the
    default bound refuses k <= 707 (1,001,820) before any staircase is built."""
    from thetasym import oracle

    monkeypatch.setattr(core, "MAX_LAYER_SYMBOLS", 28)
    assert verify_orientation(3).checked == 10

    def must_not_run(*args):
        raise AssertionError("a staircase was built for a refused run")

    monkeypatch.setattr(oracle, "cuspidal_symbol", must_not_run)
    huge = 10**12
    for bound, max_k, entries in ((27, 3, 28), (MAX_LAYER_SYMBOLS, 707, 1_001_820),
                                  (MAX_LAYER_SYMBOLS, huge, (huge + 1) * (2 * huge + 1))):
        monkeypatch.setattr(core, "MAX_LAYER_SYMBOLS", bound)
        with pytest.raises(ValueError) as err:
            verify_orientation(max_k)
        assert str(err.value) == (
            f"the k <= {max_k} orientation sweep has {entries} staircase entries, "
            f"over the enumeration bound MAX_LAYER_SYMBOLS = {bound}"
        )


def test_verify_orientation_over_no_staircase_does_not_pass():
    report = verify_orientation(-1)
    assert report.checked == 0 and not report.passed


def test_verify_orientation_fails_every_check_of_a_negated_bit(monkeypatch):
    from thetasym import oracle

    derived = oracle.default_orientation
    monkeypatch.setattr(oracle, "default_orientation", lambda label: -derived(label))
    report = verify_orientation(8)
    assert report.checked == 25 and len(report.failures) == 25
    assert report.failures[:4] == [
        {"input": "sp(0): rho=trivial:0:reg ; L=[0|] ; L'=[|]",
         "expected": "+ from indices (0, 1)", "actual": "-"},
        {"input": "sp(4): rho=trivial:0:reg ; L=[|2,1,0] ; L'=[|]",
         "expected": "- from indices (4, 1)", "actual": "+"},
        {"input": "o-(2): rho=trivial:0:reg ; L=[1,0|] ; L'=[|]",
         "expected": "- from indices (2, 0)", "actual": "+"},
        {"input": "o-(2): rho=trivial:0:reg ; L=[|1,0] ; L'=[|]",
         "expected": "+ from indices (0, 2)", "actual": "-"},
    ]


def test_verify_variant_uniqueness_small():
    for ctx in (
        TowerContext(eps_minus_one=PLUS),
        TowerContext(eps_minus_one=MINUS),
        TowerContext(
            eps_minus_one=PLUS,
            orient_left=PLUS,
            orient_right=MINUS,
            orient_left_alt=MINUS,
            orient_right_alt=PLUS,
        ),
    ):
        assert verify_variant_uniqueness(1, ctx).passed


def test_report_json_shape():
    report = VerificationReport()
    report.record(True, "x", 1, 1)
    report.record(False, "y", 2, 3)
    report.elapsed = 0.5
    data = json.loads(report.to_json())
    assert set(data) == {"checked", "failures", "elapsed_ms"}
    assert data["checked"] == 2
    assert data["failures"] == [{"input": "y", "expected": "2", "actual": "3"}]
    assert data["elapsed_ms"] == 500.0
    assert not report.passed


def test_report_over_zero_checks_does_not_pass():
    report = VerificationReport()
    assert report.checked == 0 and not report.failures
    assert not report.passed
    assert str(report) == "FAIL (0 checks, 0 failures)"


def _sweep_size(max_rank: int) -> int:
    return sum(count_symbols(r, f) for r in range(max_rank + 1) for f in SymbolFamily)


@pytest.mark.parametrize(
    "verify",
    [verify_counts, verify_f1, lambda max_rank: verify_variant_uniqueness(max_rank, TowerContext())],
)
def test_oversized_sweep_refused_before_building(verify, monkeypatch):
    forbid_layer_builds(monkeypatch)
    with pytest.raises(ValueError) as err:
        verify(23)
    assert str(err.value) == (
        f"the rank <= 23 sweep has {_sweep_size(23)} symbols, "
        f"over the enumeration bound MAX_LAYER_SYMBOLS = {MAX_LAYER_SYMBOLS}"
    )
    # counting stops at the first rank over the bound
    with pytest.raises(ValueError, match=r"the rank <= 1000000 sweep has more than [0-9]+ symbols"):
        verify(10**6)


@pytest.mark.parametrize("eps", [PLUS, MINUS])
def test_variant_sweep_refused_by_its_family_count(eps, monkeypatch):
    """Rank 5 passes the symbol sweep bound but has 3,412,100 families; the
    labels of rank <= 5 are listed to count them, and no family is evaluated."""
    built = forbid_variant_families(monkeypatch)
    with pytest.raises(ValueError) as err:
        verify_variant_uniqueness(5, TowerContext(eps_minus_one=eps))
    assert str(err.value) == (
        "the rank <= 5 variant sweep has 3412100 families, "
        f"over the enumeration bound MAX_LAYER_SYMBOLS = {MAX_LAYER_SYMBOLS}"
    )
    assert max(group.rank for group in built) == 5


@pytest.mark.parametrize("bad", [2.5, True])
@pytest.mark.parametrize(
    "verify, name",
    [
        (verify_f1, "max_rank"),
        (verify_counts, "max_rank"),
        (lambda max_rank: verify_variant_uniqueness(max_rank, TowerContext()), "max_rank"),
        (verify_orientation, "max_k"),
        (lambda rank: enumerate_symbols(rank, SymbolFamily.SP_UNIPOTENT), "rank"),
        (lambda rank: count_symbols(rank, SymbolFamily.O_EVEN_PLUS), "rank"),
        (lambda rank: theta_fiber(ZERO_SYMBOL, PLUS, rank), "target_rank"),
        (lambda rank: brute_first_occurrence(ZERO_SYMBOL, MINUS, rank), "max_rank"),
        (lambda k: cuspidal_symbol(GroupFamily.SP, k), "k"),
        (lambda k: cuspidal_theta(k, CuspidalThetaVariant.UP), "k"),
    ],
    ids=["f1", "counts", "variants", "orientation", "enumerate", "count", "fiber", "first", "cuspidal", "chain"],
)
def test_a_bound_that_is_not_an_int_is_refused_before_building(verify, name, bad, monkeypatch):
    """A float or bool rank, bound or index is a ``TypeError`` naming the
    argument, before any layer, fiber, staircase or family is built;
    ``True`` is no longer read as 1."""
    forbid_layer_builds(monkeypatch)
    forbid_variant_families(monkeypatch)

    def must_not_run(*args):
        raise AssertionError("a staircase was built for a refused index")

    monkeypatch.setattr(catalog, "_staircase_row", must_not_run)
    with pytest.raises(TypeError) as err:
        verify(bad)
    assert str(err.value) == f"{name} must be an int, got {bad!r}"


def test_a_passing_f1_sweep_does_only_its_per_check_work(monkeypatch):
    """A cold ``verify_f1(5)`` builds its 248 layer symbols and two symbols
    per check, the lift and the one fiber partner; one ``FirstOccurrence``
    per check; one scan bound per source; and no failure text."""
    from thetasym import catalog, oracle

    calls = Counter()

    def count(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(core, "_symbol_from_rows", count("symbols", core._symbol_from_rows))
    monkeypatch.setattr(oracle, "default_scan_bound", count("scan bounds", default_scan_bound))
    monkeypatch.setattr(theta.FirstOccurrence, "__new__", count("first occurrences", theta.FirstOccurrence.__new__))

    def must_not_run(*args):
        raise AssertionError("failure text was built for a passing check")

    for module in (core, catalog, theta, oracle):
        for name in ("format_symbol", "format_sign"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, must_not_run)
    core._defect_layer.cache_clear()
    report = verify_f1(5)
    assert (report.checked, report.failures) == (340, [])
    sources = sum(count_symbols(n, family) for n in range(6) for family in SymbolFamily)
    assert sources == 248
    assert calls == {"symbols": sources + 2 * 340, "first occurrences": 340, "scan bounds": sources}


def test_every_check_is_recorded_without_a_closure():
    """A verifier records through ``VerificationReport.record``, or counts a
    pass in place: ``oracle`` holds no lambda, the report has no ``check``
    that takes one, and no verifier keeps a name in a cell."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    assert not any(isinstance(node, ast.Lambda) for node in ast.walk(tree))
    assert not hasattr(VerificationReport, "check")
    for verify in (verify_f1, verify_orientation, verify_counts, verify_variant_uniqueness):
        assert verify.__code__.co_cellvars == (), verify.__name__


def test_sweep_bound_is_on_the_sum_of_its_layers(monkeypatch):
    assert _sweep_size(22) <= MAX_LAYER_SYMBOLS < _sweep_size(23)
    core._check_sweep(22)  # counts only; a rank-22 sweep is not run here
    monkeypatch.setattr(core, "MAX_LAYER_SYMBOLS", _sweep_size(3))
    assert verify_counts(3).passed
    forbid_layer_builds(monkeypatch)
    with pytest.raises(ValueError, match=f"sweep has {_sweep_size(4)} symbols"):
        verify_counts(4)
