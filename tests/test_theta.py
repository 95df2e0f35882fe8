import itertools

import pytest

from thetasym.catalog import (
    MINUS,
    PLUS,
    GroupFamily,
    RepLabel,
    RhoDescriptor,
    TRIVIAL_RHO,
    cuspidal_symbol,
    enumerate_labels,
    kh_of,
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
    bipartitions_of,
    close_dominates,
    enumerate_symbols,
    parse_symbol,
    symbol_defect,
    symbol_rank,
    symbol_transpose,
    upsilon,
    upsilon_inverse,
)
from thetasym.errors import CaseMismatch, DefectClassMismatch, NotCuspidalSupport
from thetasym.theta import (
    CuspidalThetaVariant,
    GVariant,
    ThetaDirection,
    Tower,
    TowerContext,
    _band,
    cuspidal_theta,
    default_orientation,
    first_occurrence_supported,
    first_occurrence_unipotent,
    in_B,
    in_G,
    theta_fiber,
)

from symbol_helpers import forbid_layer_builds, partition_transpose


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
    """Swapping the two bipartitions swaps the band's two conditions, which is
    what lets one partner scan serve both theta directions."""
    bps = [bp for n in range(7) for bp in bipartitions_of(n)]
    for a, b in itertools.product(bps, repeat=2):
        for sign in (PLUS, MINUS):
            assert _band(a, b, sign) == _band(b, a, sign), (a, b, sign)


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


def test_in_G_examples():
    assert in_G(parse_symbol("[1|]"), parse_symbol("[1|0]")) is GVariant.EVEN_PLUS
    assert in_G(parse_symbol("[|2,1,0]"), parse_symbol("[|2,0]")) is GVariant.ODD_MINUS
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
    assert occ.resolved


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


def _supported_sp_label(n, k, h_defect=0):
    lam = cuspidal_symbol(GroupFamily.SP, k)
    lam_prime = EMPTY_SYMBOL
    residual = n - symbol_rank(lam)
    rho = TRIVIAL_RHO if residual == 0 else RhoDescriptor(residual, True, f"regular-{residual}")
    return make_label(sp(n), rho, lam, lam_prime)


def test_first_occurrence_supported_examples():
    cusp4 = make_label(sp(2), TRIVIAL_RHO, parse_symbol("[|2,1,0]"), EMPTY_SYMBOL)
    occ = first_occurrence_supported(
        cusp4, TowerContext(tower=Tower.O_EVEN_MINUS, orient_left=MINUS)
    )
    assert (occ.index, occ.resolved) == (1, True)
    occ = first_occurrence_supported(
        cusp4, TowerContext(tower=Tower.O_EVEN_PLUS, orient_left=MINUS)
    )
    assert (occ.index, occ.resolved) == (4, True)

    rho1 = RhoDescriptor(1, True, "regular-1")
    odd = make_label(o_odd(1, PLUS), rho1, parse_symbol("[0|]"), parse_symbol("[0|]"), PLUS)
    occ = first_occurrence_supported(odd, TowerContext(tower=Tower.SP, orient_left=MINUS))
    assert (occ.index, occ.lift) == (2, (0, 1))
    occ = first_occurrence_supported(odd, TowerContext(tower=Tower.SP, orient_left=PLUS))
    assert (occ.index, occ.lift) == (1, (0, 0))

    # degenerate h = 0: the odd-tower branches coincide, so the answer is
    # certain even without an orientation bit
    spl = make_label(sp(1), rho1, parse_symbol("[0|]"), EMPTY_SYMBOL)
    occ = first_occurrence_supported(spl, TowerContext(tower=Tower.O_ODD_PLUS))
    assert (occ.index, occ.resolved) == (1, True)
    # even towers differ; without orientation the small branch is unresolved
    rho_only = make_label(sp(2), RhoDescriptor(2, True, "regular-2"), parse_symbol("[0|]"), EMPTY_SYMBOL)
    occ = first_occurrence_supported(rho_only, TowerContext(tower=Tower.O_EVEN_PLUS))
    assert (occ.index, occ.resolved) == (2, False)


def test_first_occurrence_supported_defaults_from_chain():
    # unipotent cuspidal support with trivial descriptor: orientation derived
    cusp4 = make_label(sp(2), TRIVIAL_RHO, parse_symbol("[|2,1,0]"), EMPTY_SYMBOL)
    occ = first_occurrence_supported(cusp4, TowerContext(tower=Tower.O_EVEN_MINUS))
    assert (occ.index, occ.resolved) == (1, True)  # small tower sign (-1)^1
    occ = first_occurrence_supported(cusp4, TowerContext(tower=Tower.O_EVEN_PLUS))
    assert (occ.index, occ.resolved) == (4, True)


def test_supported_conservation():
    for k in range(5):
        for n in range(11):
            if n < k * (k + 1):
                continue
            label = _supported_sp_label(n, k)
            a = first_occurrence_supported(
                label, TowerContext(tower=Tower.O_EVEN_PLUS, orient_left=PLUS)
            )
            b = first_occurrence_supported(
                label, TowerContext(tower=Tower.O_EVEN_MINUS, orient_left=PLUS)
            )
            assert a.index + b.index == 2 * n + 1


def test_first_occurrence_supported_errors():
    bad = make_label(sp(1), TRIVIAL_RHO, parse_symbol("[1|]"), EMPTY_SYMBOL)
    with pytest.raises(NotCuspidalSupport):
        first_occurrence_supported(bad, TowerContext(tower=Tower.O_EVEN_PLUS))
    good = make_label(sp(0), TRIVIAL_RHO, parse_symbol("[0|]"), EMPTY_SYMBOL)
    with pytest.raises(CaseMismatch):
        first_occurrence_supported(good, TowerContext(tower=None))
    with pytest.raises(CaseMismatch):
        first_occurrence_supported(good, TowerContext(tower=Tower.SP))


def _is_staircase(s):
    """Whether ``s`` is the cuspidal staircase of its defect (or, when even, its transpose)."""
    d = symbol_defect(s)
    if d % 2:
        return s == cuspidal_symbol(GroupFamily.SP, (abs(d) - 1) // 2)
    stair = cuspidal_symbol(GroupFamily.O_EVEN, abs(d) // 2)
    return s in (stair, symbol_transpose(stair))


def test_supported_labels_are_exactly_the_staircase_pairs():
    towers = {
        GroupFamily.SP: Tower.O_EVEN_PLUS,
        GroupFamily.O_EVEN: Tower.SP,
        GroupFamily.O_ODD: Tower.SP,
    }
    supported = 0
    for n, eps in itertools.product(range(5), (PLUS, MINUS)):
        for group in (sp(n), o_odd(n, PLUS), o_odd(n, MINUS), o_even(n, PLUS), o_even(n, MINUS)):
            ctx = TowerContext(eps_minus_one=eps, tower=towers[group.family])
            for label in enumerate_labels(group, eps):
                if _is_staircase(label.lam) and _is_staircase(label.lam_prime):
                    first_occurrence_supported(label, ctx)
                    supported += 1
                else:
                    with pytest.raises(NotCuspidalSupport):
                        first_occurrence_supported(label, ctx)
    assert supported > 0


@pytest.mark.parametrize(
    "group, lam, lam_prime, text",
    [
        (sp(1), "[1|0]", "[|]", "first symbol defect 0 not = 1 mod 4 for sp(2)"),
        (sp(1), "[0|]", "[1|]", "second symbol defect 1 must be even for sp(2)"),
        (o_odd(1, PLUS), "[1|0]", "[0|]", "first symbol defect 0 not = 1 mod 4 for o+(3)"),
        (o_odd(1, PLUS), "[0|]", "[1|0]", "second symbol defect 0 not = 1 mod 4 for o+(3)"),
        (o_even(1, MINUS), "[1|]", "[|]", "first symbol defect 1 must be even for o-(2)"),
        (o_even(1, PLUS), "[|]", "[0|]", "second symbol defect 1 must be even for o+(2)"),
    ],
)
def test_wrong_class_slot_of_a_hand_built_label(group, lam, lam_prime, text):
    """A label that skipped ``make_label`` fails its class check with ``make_label``'s text."""
    label = RepLabel(group, TRIVIAL_RHO, parse_symbol(lam), parse_symbol(lam_prime))
    with pytest.raises(DefectClassMismatch) as err:
        first_occurrence_supported(label, TowerContext(tower=Tower.SP))
    assert str(err.value) == text


def test_default_orientation():
    cusp4 = make_label(sp(2), TRIVIAL_RHO, parse_symbol("[|2,1,0]"), EMPTY_SYMBOL)
    assert default_orientation(cusp4, *kh_of(cusp4)) == MINUS
    # even orthogonal unipotent: sign of k against (-1)^|k|
    sgn_o2 = make_label(o_even(1, MINUS), TRIVIAL_RHO, parse_symbol("[1,0|]"), EMPTY_SYMBOL)
    assert default_orientation(sgn_o2, *kh_of(sgn_o2)) == MINUS
    triv_o2 = make_label(o_even(1, MINUS), TRIVIAL_RHO, parse_symbol("[|1,0]"), EMPTY_SYMBOL)
    assert default_orientation(triv_o2, *kh_of(triv_o2)) == PLUS
    # theta shapes stay open
    theta = make_label(sp(1), TRIVIAL_RHO, parse_symbol("[0|]"), parse_symbol("[1,0|]"))
    assert default_orientation(theta, *kh_of(theta)) is None
    # nontrivial descriptor stays open
    rho_only = make_label(sp(2), RhoDescriptor(2, True, "regular-2"), parse_symbol("[0|]"), EMPTY_SYMBOL)
    assert default_orientation(rho_only, *kh_of(rho_only)) is None


def test_supported_table_matches_closed_form_on_cuspidal_labels():
    """Two independent routes to the same indices.

    For a unipotent cuspidal label the case table (driven by the derived
    orientation bit) and the closed-form first occurrence of its symbol
    must give the same tower-by-tower indices.
    """
    for k in range(5):
        lam = cuspidal_symbol(GroupFamily.SP, k)
        label = make_label(sp(symbol_rank(lam)), TRIVIAL_RHO, lam, EMPTY_SYMBOL)
        for tower, sign in (
            (Tower.O_EVEN_PLUS, PLUS),
            (Tower.O_EVEN_MINUS, MINUS),
        ):
            table = first_occurrence_supported(label, TowerContext(tower=tower))
            closed = first_occurrence_unipotent(lam, sign, ThetaDirection.SP_TO_O)
            assert table.resolved
            assert table.index == closed.index
    for k in range(1, 5):
        stair = cuspidal_symbol(GroupFamily.O_EVEN, k)
        for lam in (stair, parse_symbol(f"[|{','.join(str(x) for x in stair.row_a)}]")):
            d = symbol_defect(lam)
            group_sign = PLUS if d % 4 == 0 else MINUS
            label = make_label(
                o_even(symbol_rank(lam), group_sign * PLUS),
                TRIVIAL_RHO,
                lam,
                EMPTY_SYMBOL,
                eps_minus_one=PLUS,
            )
            table = first_occurrence_supported(label, TowerContext(tower=Tower.SP))
            closed = first_occurrence_unipotent(lam, group_sign, ThetaDirection.O_TO_SP)
            assert table.resolved
            assert table.index == closed.index


def test_closed_form_equals_brute_small():
    from thetasym.oracle import brute_first_occurrence, default_scan_bound

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


def test_theta_fiber_refuses_oversized_rank_before_building(monkeypatch):
    forbid_layer_builds(monkeypatch)
    for sign in (PLUS, MINUS):
        with pytest.raises(ValueError, match=f"MAX_LAYER_SYMBOLS = {MAX_LAYER_SYMBOLS}"):
            theta_fiber(parse_symbol("[1|]"), sign, 64)


@pytest.mark.parametrize("text", ["[1|0]", "[1,0|]", "[|0]"], ids=["defect 0", "defect 2", "defect -1"])
def test_theta_fiber_refuses_non_symplectic_source(text, monkeypatch):
    import thetasym.theta as theta

    def must_not_run(*args, **kwargs):
        raise AssertionError("a layer was built for a refused symbol")

    monkeypatch.setattr(theta, "_defect_layer", must_not_run)
    lam = parse_symbol(text)
    assert symbol_defect(lam) % 4 != 1
    for sign in (PLUS, MINUS):
        with pytest.raises(DefectClassMismatch):
            theta_fiber(lam, sign, 2)
