import ast
import itertools
import json
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
from thetasym.errors import DefectClassMismatch, MultipleNonzero
from thetasym.ggp import _VariantRun
from thetasym.oracle import (
    MAX_VARIANT_FAMILIES,
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

from symbol_helpers import (
    count_calls,
    first_fiber_by_ranks,
    forbid_layer_builds,
    forbid_variant_families,
    variant_blocks,
    variant_families,
)


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
def test_verify_f1_reads_no_layer(max_rank, monkeypatch):
    """The sweep streams its sources, each defect layer of rank <= max_rank
    once, and neither it nor the fiber scan reads a kept layer."""

    def must_not_run(*args):
        raise AssertionError("the f1 sweep read a kept layer")

    for module in (core, theta, oracle):
        for name in ("_defect_layer", "enumerate_symbols"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, must_not_run)
    streamed = []
    layer_symbols = core._layer_symbols

    def spy(rank, defect):
        streamed.append((rank, defect))
        return layer_symbols(rank, defect)

    monkeypatch.setattr(oracle, "_layer_symbols", spy)
    assert verify_f1(max_rank).passed
    assert streamed == [
        (rank, defect)
        for rank in range(max_rank + 1)
        for family in SymbolFamily
        for defect in core.admissible_defects(rank, family)
    ]


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
    from thetasym import oracle

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

    # the four rank-0 Bessel families share one signature: its one count fails all four
    real = oracle._nonzero_classes
    calls = []

    def second_counts_two(results):
        calls.append(1)
        return 2 if len(calls) == 2 else real(results)

    monkeypatch.setattr(oracle, "_nonzero_classes", second_counts_two)
    report = verify_variant_uniqueness(0, TowerContext(eps_minus_one=PLUS))
    assert (report.checked, len(calls)) == (5, 2)
    even = "o+(0): rho=trivial:0:reg ; L=[|] ; L'=[|]"
    inputs = [
        f"o{sign}(1): rho=trivial:0:reg ; L=[0|] ; L'=[0|] ; eps={flag} / {even}"
        for sign in "+-" for flag in "+-"
    ]
    assert report.failures == [
        {"input": text, "expected": "<=1 class", "actual": f"2 variant classes nonzero for {text}"}
        for text in inputs
    ]


def test_failing_groups_are_recorded_in_family_order(monkeypatch):
    """A group of one memo key fails all of its families at once, and a walk
    spans many blocks, yet the failures come in family order.  With every
    key made to fail, the rank-2 sweep fails exactly the open families,
    block by block in family order, left label by left label and in list
    order within a block.  Some left label's groups interleave in its
    walk's universe, and the blocks of the o+(2n+1) and o-(2n+1) walks of
    one rank alternate, so the failures of two left lists interleave:
    recording them group by group, or left list by left list, fails here."""
    monkeypatch.setattr(oracle, "_nonzero_classes", lambda results: 2)
    ctx = TowerContext(eps_minus_one=PLUS)
    report = verify_variant_uniqueness(2, ctx)
    run = _VariantRun(ctx)
    opened = []
    for lefts, rights, case in variant_blocks(2, PLUS):
        row = run.profile_row((rights,), 1, case)
        for left in lefts:
            mask = run.gate_mask(left, row, case)
            opened += [f"{left} / {right}" for j, right in enumerate(rights) if mask >> j & 1]
    interleaved = False
    for lefts, rights, case, _ in oracle._variant_families(2, PLUS):
        left_row, right_row = run.profile_row((lefts,), 0, case), run.profile_row(rights, 1, case)
        for i, left in enumerate(lefts):
            mask = run.gate_mask(left, right_row, case)
            spans = sorted((group & -group, group) for _, group in run.groups(case, left_row, i, right_row, mask))
            interleaved |= any(group > later for (_, group), (later, _) in zip(spans, spans[1:]))
    assert interleaved
    assert report.checked == 4345
    inputs = [failure["input"] for failure in report.failures]
    assert inputs == opened
    # the left groups, in the order their failures come: the two odd lists of a rank alternate, m by m
    runs = [group for group, _ in itertools.groupby(text.split(":")[0] for text in inputs)]
    odd = [f"o{e}({2 * n + 1})" for n in range(3) for _ in range(3) for e in "+-"]
    assert runs == ["sp(0)", "sp(2)", "sp(4)", *odd]


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
    """Rank 7 passes the symbol sweep bound but has 121,512,138 families, over
    the family bound that rank 6 (21,656,970) stays under; the labels of rank
    <= 7 are listed to count them, and no family's gate or value is read."""
    assert 21_656_970 <= MAX_VARIANT_FAMILIES < 121_512_138
    built = forbid_variant_families(monkeypatch)
    with pytest.raises(ValueError) as err:
        verify_variant_uniqueness(7, TowerContext(eps_minus_one=eps))
    assert str(err.value) == (
        "the rank <= 7 variant sweep has 121512138 families, "
        f"over the enumeration bound MAX_VARIANT_FAMILIES = {MAX_VARIANT_FAMILIES}"
    )
    assert max(group.rank for group in built) == 7


@pytest.mark.parametrize(
    "ctx, max_rank, failures",
    [
        (TowerContext(PLUS), 2, 0),
        (TowerContext(MINUS), 2, 0),
        (TowerContext(PLUS, MINUS, None, None, PLUS), 2, 0),
        (TowerContext(MINUS, MINUS, None, None, PLUS), 2, 6),
        (TowerContext(PLUS, PLUS, PLUS, PLUS, PLUS), 2, 0),
        (TowerContext(MINUS, PLUS, PLUS, PLUS, PLUS), 2, 15),
        (TowerContext(MINUS, PLUS, PLUS, PLUS, PLUS), 3, 47),
        (TowerContext(MINUS, PLUS, MINUS, MINUS, PLUS), 3, 47),
    ],
    ids=["eps+", "eps-", "two-bits+", "two-bits-", "four-bits+", "four-bits-", "rank3-++++", "rank3-+--+"],
)
def test_sweep_matches_the_family_by_family_loop(ctx, max_rank, failures):
    """The sweep's gate-first bulk count and signature memo report what one
    ``_VariantRun.family`` call per family reports: the same checks, and the
    same failures in the same order, failing contexts included."""
    run = _VariantRun(ctx)
    report = VerificationReport()
    for left, right, case in variant_families(max_rank, ctx.eps_minus_one):
        try:
            run.family(left, right, case)
        except MultipleNonzero as err:
            report.record(False, f"{left} / {right}", "<=1 class", err)
        else:
            report.checked += 1
    assert len(report.failures) == failures
    sweep = verify_variant_uniqueness(max_rank, ctx)
    assert (sweep.checked, sweep.failures) == (report.checked, report.failures)


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
    """A cold ``verify_f1(5)`` builds its 248 source symbols and two symbols
    per check, the lift and the one fiber partner; one ``FirstOccurrence``
    per check; one scan bound per source; and no failure text."""
    from thetasym import catalog, oracle

    symbols = count_calls(monkeypatch, core, "_symbol_from_rows")
    scan_bounds = count_calls(monkeypatch, oracle, "default_scan_bound")
    first_occurrences = count_calls(monkeypatch, theta.FirstOccurrence, "__new__")

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
    calls = {"symbols": len(symbols), "first occurrences": len(first_occurrences), "scan bounds": len(scan_bounds)}
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
    """The f1 sweep keeps no layer, yet is bounded on the same sum as the
    counts sweep, which keeps every layer it builds."""
    assert _sweep_size(22) <= MAX_LAYER_SYMBOLS < _sweep_size(23)
    core._check_sweep(22)  # counts only; a rank-22 sweep is not run here
    with monkeypatch.context() as patch:
        forbid_layer_builds(patch)
        with pytest.raises(ValueError, match=f"the rank <= 23 sweep has {_sweep_size(23)} symbols"):
            verify_f1(23)
    monkeypatch.setattr(core, "MAX_LAYER_SYMBOLS", _sweep_size(3))
    assert verify_counts(3).passed and verify_f1(3).passed
    forbid_layer_builds(monkeypatch)
    for verify in (verify_counts, verify_f1):
        with pytest.raises(ValueError, match=f"sweep has {_sweep_size(4)} symbols"):
            verify(4)
