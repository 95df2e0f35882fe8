import itertools
import tracemalloc
from collections import Counter

import pytest

import thetasym.core as core
from thetasym.catalog import (
    MINUS,
    PLUS,
    RhoDescriptor,
    TRIVIAL_RHO,
    enumerate_labels,
    make_label,
    o_even,
    o_odd,
    sp,
)
from thetasym.core import (
    EMPTY_SYMBOL,
    MAX_LAYER_SYMBOLS,
    Bipartition,
    Symbol,
    SymbolFamily,
    bipartition_count,
    bipartitions_of,
    close_dominates,
    enumerate_symbols,
    parse_symbol,
    symbol_defect,
    symbol_rank,
    upsilon,
    upsilon_inverse,
)
from thetasym.errors import DefectClassMismatch
from thetasym.oracle import brute_first_occurrence
from thetasym.theta import (
    CuspidalThetaVariant,
    FirstOccurrence,
    GVariant,
    ThetaDirection,
    TowerContext,
    _band,
    _fiber,
    _interlaces,
    cuspidal_theta,
    default_orientation,
    first_occurrence_unipotent,
    in_B,
    in_G,
    theta_fiber,
)

from symbol_helpers import (
    forbid_layer_builds,
    in_G_by_hand,
    partition_transpose,
    partners_by_layer_filter,
)


def test_in_B_examples():
    assert in_B(parse_symbol("[1|]"), EMPTY_SYMBOL, PLUS)
    assert not in_B(parse_symbol("[1,0|1]"), EMPTY_SYMBOL, PLUS)
    assert in_B(parse_symbol("[2,0|1]"), parse_symbol("[1|0]"), PLUS)
    with pytest.raises(DefectClassMismatch):
        in_B(parse_symbol("[1|0]"), EMPTY_SYMBOL, PLUS)
    with pytest.raises(DefectClassMismatch):
        in_B(parse_symbol("[1|]"), parse_symbol("[1|]"), PLUS)


def test_in_B_defect_equations():
    for n in range(4):
        for lam in enumerate_symbols(n, SymbolFamily.SP_UNIPOTENT):
            for m in range(4):
                for fam, sign in (
                    (SymbolFamily.O_EVEN_PLUS, PLUS),
                    (SymbolFamily.O_EVEN_MINUS, MINUS),
                ):
                    for lam_prime in enumerate_symbols(m, fam):
                        if in_B(lam, lam_prime, sign):
                            shift = 1 if sign == PLUS else -1
                            assert symbol_defect(lam_prime) == -symbol_defect(lam) + shift


def _reference_in_B(lam, lam_prime, sign):
    """``in_B`` as defined: the band relation on transposed rows."""
    d, d2 = symbol_defect(lam), symbol_defect(lam_prime)
    if d2 != (-d + 1 if sign == PLUS else -d - 1):
        return False
    up, lo = (partition_transpose(p) for p in upsilon(lam))
    up2, lo2 = (partition_transpose(p) for p in upsilon(lam_prime))
    if sign == PLUS:
        return close_dominates(lo2, up) and close_dominates(lo, up2)
    return close_dominates(up2, lo) and close_dominates(up, lo2)


def test_in_B_matches_transposed_definition():
    """Every symbol pair of rank <= 6, in both towers."""
    firsts = [s for n in range(7) for s in enumerate_symbols(n, SymbolFamily.SP_UNIPOTENT)]
    seconds = [
        s
        for n in range(7)
        for fam in (SymbolFamily.O_EVEN_PLUS, SymbolFamily.O_EVEN_MINUS)
        for s in enumerate_symbols(n, fam)
    ]
    hits = 0
    for lam in firsts:
        for lam_prime in seconds:
            for sign in (PLUS, MINUS):
                expected = _reference_in_B(lam, lam_prime, sign)
                assert in_B(lam, lam_prime, sign) == expected, (lam, lam_prime, sign)
                hits += expected
    assert hits > 0


def test_band_is_symmetric():
    """Swapping the two bipartitions swaps the band's two conditions, for
    either strip kind, which is what lets one partner scan serve both theta
    directions.  Conjugating both partitions of both sides turns the
    horizontal-strip band into the vertical-strip one, which is why the
    branching gate ``in_G`` is the theta band read with vertical strips."""
    bps = [bp for n in range(7) for bp in bipartitions_of(n)]
    conj = {bp: tuple(map(partition_transpose, bp)) for bp in bps}
    for a, b in itertools.product(bps, repeat=2):
        for sign in (PLUS, MINUS):
            for strip in (_interlaces, close_dominates):
                assert _band(a, b, sign, strip) == _band(b, a, sign, strip), (a, b, sign, strip)
            horizontal = _band(a, b, sign, _interlaces)
            assert horizontal == _band(conj[a], conj[b], sign, close_dominates), (a, b, sign)


def test_theta_fiber_of_a_huge_row_transposes_nothing():
    """The band is read as interlacing of untransposed rows, so a single row
    of 300000 boxes is compared part by part, never expanded into columns."""
    assert theta_fiber(parse_symbol("[300000|]"), PLUS, 0) == [EMPTY_SYMBOL]


@pytest.mark.parametrize(
    "call, argv, text",
    [
        (lambda: in_B(parse_symbol("[1|0]"), EMPTY_SYMBOL, PLUS), None,
         "first symbol defect 0 not = 1 mod 4"),
        (lambda: in_B(parse_symbol("[1|]"), parse_symbol("[1|]"), MINUS), None,
         "second symbol defect 1 must be even"),
        (lambda: theta_fiber(parse_symbol("[1,0|]"), MINUS, 2),
         ["theta-fiber", "--symbol", "[1,0|]", "--sign", "-", "--target-rank", "2"],
         "first symbol defect 2 not = 1 mod 4"),
        (lambda: first_occurrence_unipotent(parse_symbol("[|0]"), PLUS, ThetaDirection.SP_TO_O),
         ["theta-first", "--symbol", "[|0]", "--sign", "+", "--direction", "sp-to-o"],
         "source symbol defect -1 not = 1 mod 4"),
        (lambda: first_occurrence_unipotent(parse_symbol("[2,1,0|]"), MINUS, ThetaDirection.O_TO_SP),
         ["theta-first", "--symbol", "[2,1,0|]", "--sign", "-", "--direction", "o-to-sp"],
         "source symbol defect 3 must be even"),
        (lambda: first_occurrence_unipotent(parse_symbol("[|1,0]"), PLUS, ThetaDirection.O_TO_SP),
         ["theta-first", "--symbol", "[|1,0]", "--sign", "+", "--direction", "o-to-sp"],
         "symbol of defect -2 lives on the o- tower, not o+"),
    ],
    ids=["in_B first", "in_B second", "theta_fiber", "sp-to-o", "o-to-sp", "o-to-sp tower"],
)
def test_bare_symbol_class_refusal_texts(call, argv, text, capsys):
    """The slot-table texts of every bare-symbol refusal, in the library and the CLI."""
    with pytest.raises(DefectClassMismatch) as err:
        call()
    assert str(err.value) == text
    if argv is not None:
        from thetasym.cli import main

        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {text}\n")


@pytest.mark.parametrize("sign", [0, 2, 3, -2])
@pytest.mark.parametrize(
    "call",
    [
        lambda sign: in_B(parse_symbol("[1|]"), EMPTY_SYMBOL, sign),
        lambda sign: theta_fiber(parse_symbol("[1|]"), sign, 0),
        lambda sign: first_occurrence_unipotent(parse_symbol("[1|]"), sign, ThetaDirection.SP_TO_O),
        lambda sign: first_occurrence_unipotent(EMPTY_SYMBOL, sign, ThetaDirection.O_TO_SP),
        lambda sign: brute_first_occurrence(parse_symbol("[1|]"), sign, 4),
    ],
    ids=["in_B", "theta_fiber", "sp-to-o", "o-to-sp", "scan sp-to-o"],
)
def test_tower_sign_other_than_plus_or_minus_one_refused(call, sign, monkeypatch):
    """Each entry that takes a tower sign refuses any other value than +1
    or -1 with one text, before anything is built; a sign of 3 used to
    read as the minus tower and 0 to fail an internal assertion."""
    forbid_layer_builds(monkeypatch)
    with pytest.raises(ValueError) as err:
        call(sign)
    assert str(err.value) == f"tower sign must be +1 or -1, got {sign}"


def test_in_G_examples():
    assert in_G(parse_symbol("[1|]"), parse_symbol("[1|0]")) is GVariant.EVEN_PLUS
    assert in_G(parse_symbol("[|2,1,0]"), parse_symbol("[|2,0]")) is GVariant.ODD_MINUS
    assert in_G(parse_symbol("[0|]"), parse_symbol("[|1,0]")) is GVariant.EVEN_MINUS
    assert in_G(parse_symbol("[|2,1,0]"), parse_symbol("[3,2,1,0|]")) is GVariant.ODD_PLUS
    assert in_G(EMPTY_SYMBOL, parse_symbol("[1|0]")) is None
    assert in_G(EMPTY_SYMBOL, EMPTY_SYMBOL) is None


def test_in_G_defect_gates():
    """Variant tags come with the right sign of the first defect and the
    matching defect equation."""
    for n in range(4):
        for lam in enumerate_symbols(n, SymbolFamily.SP_UNIPOTENT):
            for m in range(4):
                for fam in (SymbolFamily.O_EVEN_PLUS, SymbolFamily.O_EVEN_MINUS):
                    for lam_prime in enumerate_symbols(m, fam):
                        tag = in_G(lam, lam_prime)
                        if tag is None:
                            continue
                        d, d2 = symbol_defect(lam), symbol_defect(lam_prime)
                        if tag is GVariant.EVEN_PLUS:
                            assert d > 0 and d2 == d - 1
                        elif tag is GVariant.EVEN_MINUS:
                            assert d > 0 and d2 == -d - 1
                        elif tag is GVariant.ODD_MINUS:
                            assert d < 0 and d2 == d + 1
                        else:
                            assert d < 0 and d2 == -d + 1


def test_in_G_matches_the_hand_written_sets():
    """Every (symplectic-type, even-type) pair of rank <= 6 gets the variant
    that the eight written-out ``close_dominates`` tests give, and each of
    the two ``_band`` readings is pinned by its own two variant counts."""
    firsts = [s for n in range(7) for s in enumerate_symbols(n, SymbolFamily.SP_UNIPOTENT)]
    seconds = [
        s
        for n in range(7)
        for fam in (SymbolFamily.O_EVEN_PLUS, SymbolFamily.O_EVEN_MINUS)
        for s in enumerate_symbols(n, fam)
    ]
    assert len(firsts) * len(seconds) == 53934
    counts = Counter()
    for lam in firsts:
        for lam_prime in seconds:
            tag = in_G(lam, lam_prime)
            assert tag is in_G_by_hand(lam, lam_prime), (lam, lam_prime)
            counts[tag] += 1
    assert counts == {
        None: 53934 - 3417,
        GVariant.EVEN_PLUS: 1837,
        GVariant.EVEN_MINUS: 1100,
        GVariant.ODD_MINUS: 417,
        GVariant.ODD_PLUS: 63,
    }


def test_theta_fiber_examples():
    assert theta_fiber(parse_symbol("[1,0|1]"), PLUS, 0) == []
    assert theta_fiber(parse_symbol("[1,0|1]"), PLUS, 1) == [parse_symbol("[1|0]")]
    assert theta_fiber(parse_symbol("[1|]"), PLUS, 0) == [EMPTY_SYMBOL]


def test_first_occurrence_unipotent_examples():
    occ = first_occurrence_unipotent(parse_symbol("[1,0|1]"), PLUS, ThetaDirection.SP_TO_O)
    assert (occ.index, occ.lift) == (1, parse_symbol("[1|0]"))
    occ = first_occurrence_unipotent(parse_symbol("[1|]"), MINUS, ThetaDirection.SP_TO_O)
    assert (occ.index, occ.lift) == (2, parse_symbol("[|2,0]"))
    occ = first_occurrence_unipotent(parse_symbol("[1|]"), PLUS, ThetaDirection.SP_TO_O)
    assert (occ.index, occ.lift) == (0, EMPTY_SYMBOL)


def test_first_occurrence_unipotent_o_to_sp():
    # the even cuspidal staircases recover the chain endpoints
    occ = first_occurrence_unipotent(parse_symbol("[1,0|]"), MINUS, ThetaDirection.O_TO_SP)
    assert (occ.index, occ.lift) == (2, parse_symbol("[|2,1,0]"))
    occ = first_occurrence_unipotent(parse_symbol("[3,2,1,0|]"), PLUS, ThetaDirection.O_TO_SP)
    assert (occ.index, occ.lift) == (2, parse_symbol("[|2,1,0]"))
    with pytest.raises(DefectClassMismatch):
        first_occurrence_unipotent(parse_symbol("[1,0|]"), PLUS, ThetaDirection.O_TO_SP)


def test_lift_rank_matches_index():
    for n in range(5):
        for lam in enumerate_symbols(n, SymbolFamily.SP_UNIPOTENT):
            for sign in (PLUS, MINUS):
                occ = first_occurrence_unipotent(lam, sign, ThetaDirection.SP_TO_O)
                assert symbol_rank(occ.lift) == occ.index
                shift = 1 if sign == PLUS else -1
                assert symbol_defect(occ.lift) == -symbol_defect(lam) + shift


def test_cuspidal_theta_examples():
    assert cuspidal_theta(1, CuspidalThetaVariant.DOWN) == (
        parse_symbol("[|2,1,0]"),
        parse_symbol("[1,0|]"),
        MINUS,
    )
    assert cuspidal_theta(1, CuspidalThetaVariant.UP) == (
        parse_symbol("[|2,1,0]"),
        parse_symbol("[3,2,1,0|]"),
        PLUS,
    )
    assert cuspidal_theta(0, CuspidalThetaVariant.DOWN) == (
        parse_symbol("[0|]"),
        EMPTY_SYMBOL,
        PLUS,
    )


def test_cuspidal_theta_consistency():
    for k in range(4):
        for variant in CuspidalThetaVariant:
            lam, lam_prime, sign = cuspidal_theta(k, variant)
            assert in_B(lam, lam_prime, sign)
            assert symbol_rank(lam) == k * (k + 1)
            if variant is CuspidalThetaVariant.DOWN:
                assert symbol_rank(lam_prime) == k * k
                assert abs(symbol_defect(lam_prime)) == 2 * k
            else:
                assert symbol_rank(lam_prime) == (k + 1) ** 2
                assert abs(symbol_defect(lam_prime)) == 2 * k + 2
            assert symbol_defect(lam) == (-1) ** k * (2 * k + 1)


def test_default_orientation():
    cusp4 = make_label(sp(2), TRIVIAL_RHO, parse_symbol("[|2,1,0]"), EMPTY_SYMBOL)
    assert default_orientation(cusp4) == MINUS
    # even orthogonal unipotent: sign of k against (-1)^|k|
    sgn_o2 = make_label(o_even(1, MINUS), TRIVIAL_RHO, parse_symbol("[1,0|]"), EMPTY_SYMBOL)
    assert default_orientation(sgn_o2) == MINUS
    triv_o2 = make_label(o_even(1, MINUS), TRIVIAL_RHO, parse_symbol("[|1,0]"), EMPTY_SYMBOL)
    assert default_orientation(triv_o2) == PLUS
    # theta shapes stay open
    theta = make_label(sp(1), TRIVIAL_RHO, parse_symbol("[0|]"), parse_symbol("[1,0|]"))
    assert default_orientation(theta) is None
    # nontrivial descriptor stays open
    rho_only = make_label(sp(2), RhoDescriptor(2, True, "regular-2"), parse_symbol("[0|]"), EMPTY_SYMBOL)
    assert default_orientation(rho_only) is None


@pytest.mark.parametrize("group", [o_odd(0, PLUS), o_odd(1, MINUS), o_even(0, PLUS)], ids=str)
def test_default_orientation_leaves_odd_and_empty_orthogonal_labels_open(group):
    """Odd orthogonal sign pairs and the empty even staircase (k = 0) get no
    default, under either square class of -1."""
    labels = [label for eps in (PLUS, MINUS) for label in enumerate_labels(group, eps)]
    assert labels
    for label in labels:
        assert default_orientation(label) is None, label


def test_tower_context_and_first_occurrence_fields():
    """The CLI builds ``TowerContext`` positionally, so its field order is
    part of its interface; a first occurrence is an index and a lift symbol."""
    assert list(TowerContext._fields) == [
        "eps_minus_one", "orient_left", "orient_right", "orient_left_alt", "orient_right_alt",
    ]
    assert list(FirstOccurrence._fields) == ["index", "lift"]
    occ = first_occurrence_unipotent(parse_symbol("[|2,1,0]"), MINUS, ThetaDirection.SP_TO_O)
    assert isinstance(occ.lift, Symbol) and symbol_rank(occ.lift) == occ.index


def test_retired_case_table_names_are_gone():
    """The supported-label case table and the names only it read left the
    package together; none may come back as a stale export."""
    import thetasym
    import thetasym.errors
    import thetasym.theta

    for module in (thetasym, thetasym.theta, thetasym.errors):
        for name in ("first_occurrence_supported", "Tower", "NotCuspidalSupport"):
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(thetasym.theta, "KH")  # ``catalog.KH`` itself stays


def test_closed_form_equals_brute_small():
    from thetasym.oracle import default_scan_bound

    for n in range(5):
        for lam in enumerate_symbols(n, SymbolFamily.SP_UNIPOTENT):
            for sign in (PLUS, MINUS):
                occ = first_occurrence_unipotent(lam, sign, ThetaDirection.SP_TO_O)
                brute = brute_first_occurrence(lam, sign, default_scan_bound(lam))
                assert brute == occ.index
                fiber = theta_fiber(lam, sign, occ.index)
                assert fiber == [occ.lift]


def test_first_occurrence_lift_is_the_validated_construction():
    """The closed-form lift, built from canonical rows, equals the lift that
    ``upsilon_inverse`` builds from the same bipartition and defect."""
    cases = [
        (SymbolFamily.SP_UNIPOTENT, ThetaDirection.SP_TO_O, PLUS),
        (SymbolFamily.SP_UNIPOTENT, ThetaDirection.SP_TO_O, MINUS),
        (SymbolFamily.O_EVEN_PLUS, ThetaDirection.O_TO_SP, PLUS),
        (SymbolFamily.O_EVEN_MINUS, ThetaDirection.O_TO_SP, MINUS),
    ]
    for n in range(11):
        for family, direction, sign in cases:
            for lam in enumerate_symbols(n, family):
                up, lo = upsilon(lam)
                d = symbol_defect(lam)
                if sign == PLUS:
                    expected = upsilon_inverse(Bipartition(list(lo), list(up[1:])), -d + 1)
                else:
                    expected = upsilon_inverse(Bipartition(list(lo[1:]), list(up)), -d - 1)
                lift = first_occurrence_unipotent(lam, sign, direction).lift
                assert (lift.row_a, lift.row_b) == (expected.row_a, expected.row_b), lam
                fresh = Symbol(lift.row_a, lift.row_b)  # upsilon read off the rows
                assert upsilon(lift) == upsilon(expected) == upsilon(fresh), lam


def test_theta_fiber_equals_full_layer_filter():
    for n in range(7):
        for lam in enumerate_symbols(n, SymbolFamily.SP_UNIPOTENT):
            for fam, sign in (
                (SymbolFamily.O_EVEN_PLUS, PLUS),
                (SymbolFamily.O_EVEN_MINUS, MINUS),
            ):
                for t in range(9):
                    full = [s for s in enumerate_symbols(t, fam) if in_B(lam, s, sign)]
                    assert theta_fiber(lam, sign, t) == full


def test_partners_equal_layer_filter():
    """The strip builder at one rank gives the filter's list, in its order,
    in both directions: sp sources to even partners and even sources to sp
    ones; the rank comes back with a nonempty fiber and ``None`` with none."""
    for n in range(9):
        for family in SymbolFamily:
            for lam in enumerate_symbols(n, family):
                for sign, t in itertools.product((PLUS, MINUS), range(11)):
                    full = partners_by_layer_filter(lam, sign, t)
                    assert _fiber(lam, sign, range(t, t + 1)) == (t if full else None, full), (lam, sign, t)


def test_theta_fiber_refuses_oversized_rank_before_building(monkeypatch):
    """A fiber is bounded by its own strips, not by its target layer: on the
    plus tower at rank 40, ``[39|]`` has 40 partners, one per strip size,
    and ``[40|]``, with 41 strip sizes, is refused by a bound of 40 before
    anything is built."""
    monkeypatch.setattr(core, "MAX_LAYER_SYMBOLS", 40)
    assert len(theta_fiber(parse_symbol("[39|]"), PLUS, 40)) == 40
    forbid_layer_builds(monkeypatch)
    with pytest.raises(ValueError) as err:
        theta_fiber(parse_symbol("[40|]"), PLUS, 40)
    assert str(err.value) == (
        "the rank 40 fiber of [40|] has up to 41 partners, "
        "over the enumeration bound MAX_LAYER_SYMBOLS = 40"
    )


def test_fiber_bound_refuses_one_below_every_fiber(monkeypatch):
    """The fiber bound is safe: each nonempty fiber of a source of rank <= 7,
    of any family, on either tower, at a target rank <= 11, is refused
    before anything is built once the bound is one below its size."""
    cases = [
        (lam, sign, t, len(fiber))
        for n in range(8)
        for family in SymbolFamily
        for lam in enumerate_symbols(n, family)
        for sign, t in itertools.product((PLUS, MINUS), range(12))
        if (fiber := _fiber(lam, sign, range(t, t + 1))[1])
    ]
    assert len(cases) == 9055
    forbid_layer_builds(monkeypatch)
    for lam, sign, t, size in cases:
        monkeypatch.setattr(core, "MAX_LAYER_SYMBOLS", size - 1)
        with pytest.raises(ValueError, match=f"^the rank {t} fiber of .* has up to [0-9]+ partners"):
            _fiber(lam, sign, range(t, t + 1))


def test_fiber_bound_counts_the_rows_a_short_strip_can_grow(monkeypatch):
    """1,999,999 rows interlace with the grown row (1999998) of
    ``[|2000000,1,0]``, but a strip of k boxes grows it in at most k + 1
    ways, so at rank 2000002 (k = 0) its one partner is built, and with the
    bound at 10 the fiber of k = 9 is built and that of k = 10 refused."""
    lam = parse_symbol("[|2000000,1,0]")
    assert theta_fiber(lam, PLUS, 2000002) == [parse_symbol("[2000001,2,1,0|]")]
    monkeypatch.setattr(core, "MAX_LAYER_SYMBOLS", 10)
    assert len(theta_fiber(lam, PLUS, 2000011)) == 10
    forbid_layer_builds(monkeypatch)
    with pytest.raises(ValueError) as err:
        theta_fiber(lam, PLUS, 2000012)
    assert str(err.value) == (
        "the rank 2000012 fiber of [|2000000,1,0] has up to 11 partners, "
        "over the enumeration bound MAX_LAYER_SYMBOLS = 10"
    )


@pytest.mark.parametrize("sign, target", [(MINUS, 33), (MINUS, 40), (PLUS, 60)])
def test_theta_fiber_answers_beyond_the_bound_on_its_layer(sign, target):
    """A fiber of one partner whose target layer alone is over the bound."""
    assert bipartition_count(target - 1) > MAX_LAYER_SYMBOLS
    row = f"{target}|0" if sign == PLUS else f"|{target},0"
    assert theta_fiber(parse_symbol("[0|]"), sign, target) == [parse_symbol(f"[{row}]")]


@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_theta_fiber_work_follows_its_output(sign):
    """A source part of 300000 boxes costs no more than its few partners:
    no strip table is walked part by part."""
    lam = parse_symbol("[300000|]")
    for t in range(4):
        expected = partners_by_layer_filter(lam, sign, t)
        tracemalloc.start()
        try:
            fiber = theta_fiber(lam, sign, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fiber == expected
        assert peak < 1_000_000, (t, peak)


@pytest.mark.parametrize("text", ["[1|0]", "[1,0|]", "[|0]"], ids=["defect 0", "defect 2", "defect -1"])
def test_theta_fiber_refuses_non_symplectic_source(text, monkeypatch):
    import thetasym.theta as theta

    def must_not_run(*args, **kwargs):
        raise AssertionError("a partner was built for a refused symbol")

    monkeypatch.setattr(theta, "_symbol_of", must_not_run)
    lam = parse_symbol(text)
    assert symbol_defect(lam) % 4 != 1
    for sign in (PLUS, MINUS):
        with pytest.raises(DefectClassMismatch):
            theta_fiber(lam, sign, 2)
