import ast
import collections
import inspect
import itertools
import random
import re

import pytest

from thetasym.catalog import (
    KH,
    MINUS,
    PLUS,
    GroupFamily,
    RhoDescriptor,
    TRIVIAL_RHO,
    enumerate_labels,
    is_unipotent_label,
    make_label,
    o_even,
    o_odd,
    parse_label,
    sp,
    symbol_regular_by_convention,
    unipotent_label,
)
from thetasym.core import (
    EMPTY_SYMBOL,
    MAX_LAYER_SYMBOLS,
    SymbolFamily,
    enumerate_symbols,
    parse_symbol,
    symbol_defect,
    symbol_transpose,
)
from thetasym.errors import CaseMismatch, MultipleNonzero, NotUnipotent, RankMismatch
from thetasym import ggp
from thetasym.ggp import (
    BESSEL,
    FOURIER_JACOBI,
    MultKind,
    VariantReport,
    _Side,
    _VariantRun,
    branch_decomposition,
    default_rho_catalog,
    ggp_multiplicity,
    is_strongly_relevant,
    select_nonzero_variant,
)
from thetasym.oracle import _variant_families, verify_variant_uniqueness
from thetasym.theta import TowerContext, in_G

from symbol_helpers import (
    count_calls,
    forbid_layer_builds,
    forbid_variant_families,
    relevance_necessary,
    sgn,
    variant_families,
)

CTX = TowerContext(eps_minus_one=PLUS)


def st_sp2():
    return make_label(sp(1), TRIVIAL_RHO, parse_symbol("[1,0|1]"), EMPTY_SYMBOL)


def theta_sp2():
    return make_label(sp(1), TRIVIAL_RHO, parse_symbol("[0|]"), parse_symbol("[1|0]"))


# ---------------------------------------------------------------------------
# relevance
# ---------------------------------------------------------------------------


def test_relevance_necessary_examples():
    assert not relevance_necessary(KH(1, 0), KH(0, 0), FOURIER_JACOBI)
    assert relevance_necessary(KH(0, 0), KH(0, 0), FOURIER_JACOBI)
    assert relevance_necessary(KH(0, 1), KH(1, 1), BESSEL)
    assert not relevance_necessary(KH(0, 1), KH(2, 1), BESSEL)
    assert relevance_necessary(KH(1, 0), KH(0, -1), FOURIER_JACOBI)


def test_is_strongly_relevant_examples():
    assert is_strongly_relevant(st_sp2(), theta_sp2(), FOURIER_JACOBI, CTX) is True
    cusp4 = make_label(sp(2), TRIVIAL_RHO, parse_symbol("[|2,1,0]"), EMPTY_SYMBOL)
    far = make_label(
        sp(9), TRIVIAL_RHO, parse_symbol("[0|]"), parse_symbol("[|5,4,3,2,1,0]")
    )  # |h'| = 3 against k = 1 falls outside the band
    assert is_strongly_relevant(cusp4, far, FOURIER_JACOBI, CTX) is False
    near = make_label(sp(1), TRIVIAL_RHO, parse_symbol("[0|]"), parse_symbol("[1,0|]"))
    assert is_strongly_relevant(cusp4, near, FOURIER_JACOBI, CTX) is None


def test_is_strongly_relevant_resolves_with_bits():
    cusp4 = make_label(sp(2), TRIVIAL_RHO, parse_symbol("[|2,1,0]"), EMPTY_SYMBOL)
    near = make_label(sp(1), TRIVIAL_RHO, parse_symbol("[0|]"), parse_symbol("[1,0|]"))
    # left even-orientation derives to (-1)^1 = -, so the right odd bit decides
    hit = TowerContext(eps_minus_one=PLUS, orient_right_alt=MINUS)
    miss = TowerContext(eps_minus_one=PLUS, orient_right_alt=PLUS)
    assert is_strongly_relevant(cusp4, near, FOURIER_JACOBI, hit) is True
    assert is_strongly_relevant(cusp4, near, FOURIER_JACOBI, miss) is False


def test_case_mismatch():
    with pytest.raises(CaseMismatch):
        is_strongly_relevant(st_sp2(), st_sp2(), BESSEL, CTX)
    odd = unipotent_label(o_odd(0, PLUS), parse_symbol("[0|]"), PLUS)
    with pytest.raises(CaseMismatch):
        ggp_multiplicity(odd, odd, BESSEL, CTX)
    with pytest.raises(CaseMismatch, match="Fourier-Jacobi needs two symplectic labels"):
        ggp_multiplicity(odd, st_sp2(), FOURIER_JACOBI, CTX)
    # every ordered pair of group families, under both cases
    sp_, odd_, even_ = GroupFamily.SP, GroupFamily.O_ODD, GroupFamily.O_EVEN
    labels = {
        sp_: st_sp2(),
        odd_: odd,
        even_: make_label(o_even(0, PLUS), TRIVIAL_RHO, EMPTY_SYMBOL, EMPTY_SYMBOL),
    }
    fits = {
        FOURIER_JACOBI: ({(sp_, sp_)}, "Fourier-Jacobi needs two symplectic labels"),
        BESSEL: ({(odd_, even_), (even_, odd_)}, "Bessel needs one odd and one even orthogonal label"),
    }
    for case, (pairs, text) in fits.items():
        for a, b in itertools.product(labels, repeat=2):
            if (a, b) not in pairs:
                with pytest.raises(CaseMismatch) as err:
                    ggp_multiplicity(labels[a], labels[b], case, CTX)
                assert str(err.value) == text
            else:
                value = ggp_multiplicity(labels[a], labels[b], case, CTX)
                assert case is FOURIER_JACOBI or value == ggp_multiplicity(labels[b], labels[a], case, CTX)


# ---------------------------------------------------------------------------
# ggp_multiplicity
# ---------------------------------------------------------------------------


def test_ggp_examples():
    assert ggp_multiplicity(st_sp2(), theta_sp2(), FOURIER_JACOBI, CTX).is_one
    cusp4 = make_label(sp(2), TRIVIAL_RHO, parse_symbol("[|2,1,0]"), EMPTY_SYMBOL)
    triv0 = make_label(sp(0), TRIVIAL_RHO, parse_symbol("[0|]"), EMPTY_SYMBOL)
    assert ggp_multiplicity(cusp4, triv0, FOURIER_JACOBI, CTX).is_zero
    triv_o1 = unipotent_label(o_odd(0, PLUS), parse_symbol("[0|]"), PLUS)
    triv_o0 = make_label(o_even(0, PLUS), TRIVIAL_RHO, EMPTY_SYMBOL, EMPTY_SYMBOL)
    assert ggp_multiplicity(triv_o1, triv_o0, BESSEL, CTX).is_one


def test_ggp_symmetry_under_swap():
    """Swapped arguments (with swapped orientation slots) give the same value."""
    pools = {n: list(enumerate_labels(sp(n))) for n in range(3)}
    for n in range(3):
        for m in range(n + 1):
            for left in pools[n]:
                for right in pools[m]:
                    a = ggp_multiplicity(left, right, FOURIER_JACOBI, CTX)
                    b = ggp_multiplicity(right, left, FOURIER_JACOBI, CTX)
                    assert a == b
    odd = unipotent_label(o_odd(1, PLUS), parse_symbol("[1|]"), PLUS)
    for even in enumerate_labels(o_even(1, PLUS)):
        assert ggp_multiplicity(odd, even, BESSEL, CTX) == ggp_multiplicity(
            even, odd, BESSEL, CTX
        )


def test_each_label_keeps_its_own_bits():
    """Swapping the arguments and the left/right orientation slots together
    changes nothing, for every pair of distinct labels and every bit
    assignment (143,046 cases).

    A label paired with itself is left out: under eps(-1) = - the twist of
    the Fourier-Jacobi relevance lands on whichever copy goes first.
    """
    bit_values = (None, PLUS, MINUS)
    for eps in (PLUS, MINUS):
        fj = [l for n in range(3) for l in enumerate_labels(sp(n), eps, default_rho_catalog(n))]
        pairs = [(x, y, FOURIER_JACOBI) for x, y in itertools.combinations(fj, 2)]
        pairs += [family for family in variant_families(1, eps) if family[2] is BESSEL]
        for (a, a_alt), (b, b_alt) in itertools.product(
            itertools.product(bit_values, repeat=2), repeat=2
        ):
            ctx = TowerContext(
                eps, orient_left=a, orient_left_alt=a_alt, orient_right=b, orient_right_alt=b_alt
            )
            swapped = TowerContext(
                eps, orient_left=b, orient_left_alt=b_alt, orient_right=a, orient_right_alt=a_alt
            )
            for left, right, case in pairs:
                assert ggp_multiplicity(left, right, case, ctx) == ggp_multiplicity(
                    right, left, case, swapped
                ), f"{left} / {right} under {ctx}"
                assert is_strongly_relevant(left, right, case, ctx) == is_strongly_relevant(
                    right, left, case, swapped
                ), f"{left} / {right} under {ctx}"


@pytest.mark.parametrize(
    "ctx, field, value",
    [
        (TowerContext(0), "eps_minus_one", 0),
        (TowerContext(None), "eps_minus_one", None),
        (TowerContext(PLUS, 2, 2, 2, 2), "orient_left", 2),
        (TowerContext(MINUS, PLUS, MINUS, None, 0), "orient_right_alt", 0),
        (None, "ctx", None),
        ((PLUS, None, None, None, None), "ctx", (PLUS, None, None, None, None)),
        ("+", "ctx", "+"),
    ],
)
def test_context_other_than_signs_is_refused(ctx, field, value, monkeypatch):
    """Every ``ggp`` entry point, and the variant verifier, refuses a context
    that is not a ``TowerContext`` (a bare tuple of its fields included) with
    ``TypeError``, and an eps(-1) that is not +1 or -1, or a bit that is
    neither nor ``None``, with ``ValueError`` naming the field, before any
    label is listed or pair evaluated."""
    if field == "ctx":
        error, message = TypeError, f"ctx must be a TowerContext, got {value!r}"
    else:
        error, message = ValueError, f"{field} must be +1 or -1, got {value}"
    built = forbid_variant_families(monkeypatch)
    calls = [
        lambda: ggp_multiplicity(st_sp2(), theta_sp2(), FOURIER_JACOBI, ctx),
        lambda: select_nonzero_variant(st_sp2(), theta_sp2(), FOURIER_JACOBI, ctx),
        lambda: is_strongly_relevant(st_sp2(), theta_sp2(), FOURIER_JACOBI, ctx),
        lambda: branch_decomposition(st_sp2(), sp(1), ctx),
        lambda: verify_variant_uniqueness(1, ctx),
    ]
    for call in calls:
        with pytest.raises(error, match=rf"^{re.escape(message)}$"):
            call()
    assert built == []


def test_variant_sweep_reads_every_bessel_family():
    """With eps(-1) = +1 the rank-1 sweep checks its Bessel families too;
    an eps(-1) of 0 used to drop them all and still pass, on 43 checks."""
    assert verify_variant_uniqueness(1, TowerContext(PLUS)).checked == 223


@pytest.mark.xfail(
    strict=True, reason="the eps(-1) twist lands on the first copy until ROADMAP item 2 fixes it"
)
def test_fourier_jacobi_self_pair_keeps_its_own_bits():
    """A label paired with itself keeps its value when the left and right
    orientation slots are swapped.  Under eps(-1) = - the twist of the
    Fourier-Jacobi relevance lands on whichever copy goes first, so the two
    orders give undetermined(orientation) and 0; the same swap differs in
    288 of the 2,430 cases over the trivial-descriptor sp labels of rank <= 2."""
    label = parse_label("sp(2): rho=trivial:0:reg ; L=[0|] ; L'=[1,0|]", MINUS)
    ctx = TowerContext(MINUS, orient_right=PLUS, orient_left_alt=PLUS)
    swapped = TowerContext(MINUS, orient_left=PLUS, orient_right_alt=PLUS)
    assert ggp_multiplicity(label, label, FOURIER_JACOBI, ctx) == ggp_multiplicity(
        label, label, FOURIER_JACOBI, swapped
    )


def _character_dependent(pairs: list, case, eps) -> list:
    """The pairs whose multiplicity changes across no bits and the 16 settings
    of the four orientation bits under ``eps``, or reads undetermined."""
    contexts = [TowerContext(eps)] + [TowerContext(eps, *bits) for bits in itertools.product((PLUS, MINUS), repeat=4)]
    moved = []
    for left, right in pairs:
        values = {ggp_multiplicity(left, right, case, ctx) for ctx in contexts}
        if len(values) > 1 or any(value.is_undetermined for value in values):
            moved.append((left, right))
    return moved


def _unipotent_labels(group, eps) -> list:
    return [label for label in enumerate_labels(group, eps) if is_unipotent_label(label)]


def test_unipotent_fourier_jacobi_pairs_need_no_additive_character():
    """A Fourier-Jacobi multiplicity of two unipotent labels does not depend
    on the additive character: changing it conjugates the Weil representation
    by a similitude, and unipotent characters are invariant under these
    diagonal automorphisms.  The orientation bits carry the character's data,
    so each of the 313 pairs of unipotent sp(n) and sp(m) labels, m <= n <= 3,
    gives one value under every bit setting, and never undetermined (ROADMAP
    item 20)."""
    for eps in (PLUS, MINUS):
        sps = [_unipotent_labels(sp(n), eps) for n in range(4)]
        pairs = [(a, b) for n in range(4) for m in range(n + 1) for a in sps[n] for b in sps[m]]
        assert len(pairs) == 313
        assert _character_dependent(pairs, FOURIER_JACOBI, eps) == []


@pytest.mark.xfail(
    strict=True, reason="184 of the 1,212 pairs per eps(-1) read undetermined until ROADMAP item 12"
)
def test_unipotent_bessel_pairs_need_no_additive_character():
    """A codimension-one Bessel multiplicity is a plain restriction
    multiplicity, so it cannot depend on the additive character either.
    Over the 1,212 pairs of unipotent o(2n+1) and o+-(2n) labels, n <= 3,
    184 per eps(-1) read undetermined under some bit setting and change
    with the bits: the odd label gets no derived bit (ROADMAP item 20)."""
    for eps in (PLUS, MINUS):
        signs = (PLUS, MINUS)
        pairs = [
            (a, b)
            for n, e, e2 in itertools.product(range(4), signs, signs)
            for a in _unipotent_labels(o_odd(n, e), eps)
            for b in _unipotent_labels(o_even(n, e2), eps)
        ]
        assert len(pairs) == 1212
        assert _character_dependent(pairs, BESSEL, eps) == []


def test_zero_whenever_necessary_band_fails():
    rng = random.Random(11)
    pools = []
    for n in range(4):
        pools.extend(enumerate_labels(sp(n)))
    for _ in range(1500):
        left, right = rng.choice(pools), rng.choice(pools)
        value = ggp_multiplicity(left, right, FOURIER_JACOBI, CTX)
        swap = left.group.rank < right.group.rank
        ordered = (right, left) if swap else (left, right)
        from thetasym.catalog import kh_of

        if not relevance_necessary(kh_of(ordered[0]), kh_of(ordered[1]), FOURIER_JACOBI):
            assert value.is_zero


def test_no_symbolic_with_trivial_rho():
    for n in range(3):
        for left in enumerate_labels(sp(n)):
            for right in enumerate_labels(sp(n)):
                value = ggp_multiplicity(left, right, FOURIER_JACOBI, CTX)
                assert value.kind is not MultKind.SYMBOLIC


def test_symbolic_base_for_opaque_descriptors():
    rho_a = RhoDescriptor(1, False, "cusp-a")
    rho_b = RhoDescriptor(1, False, "cusp-b")
    left = make_label(sp(1), rho_a, parse_symbol("[0|]"), EMPTY_SYMBOL)
    right = make_label(sp(1), rho_b, parse_symbol("[0|]"), EMPTY_SYMBOL)
    value = ggp_multiplicity(left, right, FOURIER_JACOBI, CTX)
    assert value.kind is MultKind.SYMBOLIC
    assert value.rho_left == rho_a and value.rho_right == rho_b
    # one regular side against a trivial side stays definite
    reg = make_label(sp(1), RhoDescriptor(1, True, "regular-1"), parse_symbol("[0|]"), EMPTY_SYMBOL)
    triv = make_label(sp(1), TRIVIAL_RHO, parse_symbol("[1|]"), EMPTY_SYMBOL)
    assert ggp_multiplicity(triv, reg, FOURIER_JACOBI, CTX).kind in (
        MultKind.ZERO,
        MultKind.ONE,
        MultKind.UNDETERMINED,
    )


def test_non_regular_rho_against_trivial_is_zero():
    bad = make_label(sp(1), RhoDescriptor(1, False, "cusp-a"), parse_symbol("[0|]"), EMPTY_SYMBOL)
    triv = make_label(sp(1), TRIVIAL_RHO, parse_symbol("[0|]"), parse_symbol("[1|0]"))
    value = ggp_multiplicity(triv, bad, FOURIER_JACOBI, CTX)
    assert value.kind in (MultKind.ZERO, MultKind.UNDETERMINED)
    if value.kind is MultKind.ZERO:
        assert value.is_zero


def test_base_multiplicity_table():
    """The base factor of every (trivial, regular, irregular) descriptor pair,
    written out: a trivial descriptor counts as regular, an irregular one
    against a trivial one is Zero in both orders, and m(a,b) keeps the order."""
    rhos = {
        "t": TRIVIAL_RHO,
        "r": RhoDescriptor(1, True, "r"),
        "i": RhoDescriptor(1, False, "i"),
    }
    table = {
        ("t", "t"): "1", ("t", "r"): "1", ("t", "i"): "0",
        ("r", "t"): "1", ("r", "r"): "1", ("r", "i"): "m(r,i)",
        ("i", "t"): "0", ("i", "r"): "m(i,r)", ("i", "i"): "m(i,i)",
    }
    labels = {
        key: make_label(sp(1), rho, parse_symbol("[1|]" if rho.is_trivial else "[0|]"), EMPTY_SYMBOL)
        for key, rho in rhos.items()
    }
    got = {(a, b): str(ggp._base_multiplicity(labels[a], labels[b])) for a in rhos for b in rhos}
    assert got == table


def test_unipotent_regularity_gate(monkeypatch):
    """A unipotent side zeroes pairs whose opposite slot is not regular.

    Bessel reads only a unipotent odd label of at least the even label's
    rank, which forces the even label's second slot.  Against [0|1], which
    is not regular, the o+(3) pair is 0, and the regularity gate decides it:
    with every symbol taken as regular it is 1.  The smaller o+(1) label
    forces nothing, so the same even label gives 1."""
    st4 = unipotent_label(sp(2), parse_symbol("[2,1,0|2,1]"))  # regular column shape
    other = unipotent_label(sp(2), parse_symbol("[1,0|2]"))  # same gates, not regular
    assert ggp_multiplicity(st4, st4, FOURIER_JACOBI, CTX).is_one
    assert ggp_multiplicity(st4, other, FOURIER_JACOBI, CTX).is_zero
    assert ggp_multiplicity(other, st4, FOURIER_JACOBI, CTX).is_zero
    odd = parse_label("o+(3): rho=trivial:0:reg ; L=[1,0|1] ; L'=[0|] ; eps=+")
    small = parse_label("o+(1): rho=trivial:0:reg ; L=[0|] ; L'=[0|] ; eps=+")
    even = parse_label("o+(2): rho=trivial:0:reg ; L=[|] ; L'=[0|1]")
    assert is_unipotent_label(odd) and is_unipotent_label(small)
    assert not symbol_regular_by_convention(even.lam_prime)
    assert ggp_multiplicity(odd, even, BESSEL, CTX).is_zero
    assert ggp_multiplicity(even, odd, BESSEL, CTX).is_zero
    assert ggp_multiplicity(small, even, BESSEL, CTX).is_one
    monkeypatch.setattr(ggp, "symbol_regular_by_convention", lambda s: True)
    assert ggp_multiplicity(odd, even, BESSEL, CTX).is_one


@pytest.mark.parametrize("eps", [PLUS, MINUS])
def test_bessel_regularity_gate_reads_no_even_unipotent_side(eps):
    """The Bessel regularity gate reads a unipotent side only on the odd
    label, so a larger unipotent even label forces no slot of the odd one.
    No answer shows that today: each odd trivial-descriptor label of rank
    <= 3 with an irregular second slot is 0 against every larger unipotent
    even label, up to rank 3 (676 pairs).  A failure means the one-sided
    gate now shows in an answer, and ROADMAP item 2 must decide whether the
    even side is read."""
    ctx = TowerContext(eps_minus_one=eps)
    odds = [
        label
        for n in range(4)
        for sign in (PLUS, MINUS)
        for label in enumerate_labels(o_odd(n, sign), eps)
        if not symbol_regular_by_convention(label.lam_prime)
    ]
    evens = [
        label
        for m in range(4)
        for sign in (PLUS, MINUS)
        for label in enumerate_labels(o_even(m, sign), eps)
        if is_unipotent_label(label)
    ]
    pairs = [(odd, even) for odd in odds for even in evens if even.group.rank > odd.group.rank]
    assert len(pairs) == 676
    for odd, even in pairs:
        assert ggp_multiplicity(odd, even, BESSEL, ctx).is_zero, f"{odd} / {even}"


def test_sgn_twist_equivariance_bessel():
    """Twisting both Bessel arguments by sgn leaves the value unchanged."""
    for n in range(4):
        odd_pool = list(enumerate_labels(o_odd(n, PLUS)))
        for m in range(4):
            for sign in (PLUS, MINUS):
                even_pool = list(enumerate_labels(o_even(m, sign)))
                for odd in odd_pool:
                    for even in even_pool:
                        before = ggp_multiplicity(odd, even, BESSEL, CTX)
                        after = ggp_multiplicity(sgn(odd), sgn(even), BESSEL, CTX)
                        assert before == after


# ---------------------------------------------------------------------------
# variant selection
# ---------------------------------------------------------------------------


def test_select_nonzero_variant_examples():
    report = select_nonzero_variant(st_sp2(), theta_sp2(), FOURIER_JACOBI, CTX)
    assert report.nonzero and report.selected[2].is_one
    # all-nonzero entries collapse into one defect-0 class
    assert len({e[2].kind for e in report.nonzero}) == 1

    # family where every variant fails the pair gate
    cusp4 = make_label(sp(2), TRIVIAL_RHO, parse_symbol("[|2,1,0]"), EMPTY_SYMBOL)
    triv2 = unipotent_label(sp(2), parse_symbol("[2|]"))
    report = select_nonzero_variant(cusp4, triv2, FOURIER_JACOBI, CTX)
    assert not report.nonzero

    # degenerate self-transpose slot collapses the family
    sym = make_label(sp(2), TRIVIAL_RHO, parse_symbol("[0|]"), parse_symbol("[1|1]"))
    report = select_nonzero_variant(st_sp2(), sym, FOURIER_JACOBI, CTX)
    assert len(report.entries) <= 2


def test_select_uniqueness_with_supplied_orientations():
    cusp4 = make_label(sp(2), TRIVIAL_RHO, parse_symbol("[|2,1,0]"), EMPTY_SYMBOL)
    near = make_label(sp(1), TRIVIAL_RHO, parse_symbol("[0|]"), parse_symbol("[1,0|]"))
    ctx = TowerContext(eps_minus_one=PLUS, orient_right_alt=MINUS)
    report = select_nonzero_variant(cusp4, near, FOURIER_JACOBI, ctx)
    # exactly one of the two transpose variants of the theta slot survives
    assert len(report.nonzero) == 1
    assert not report.undetermined


def _reference_select(left, right, case, ctx):
    """Variant selection written out the direct way, as the reference.

    Every variant label is rebuilt with ``_replace``, every pair
    goes through the public ``ggp_multiplicity`` with its own sub-context,
    repeated pairs are dropped by label equality, and the class check keys
    each nonzero entry by its rows, with defect-0 varied slots taken up to
    transpose.
    """
    for rho in (left.rho, right.rho):
        if not (rho.is_trivial or rho.regular):
            raise ValueError("definite base factor expected")

    def variant(label, bits, slots):
        for slot in slots:
            label = label._replace(**{slot: symbol_transpose(getattr(label, slot))})
            i = 0 if slot == "lam" else 1
            if bits[i] is not None:
                bits = tuple(-b if j == i else b for j, b in enumerate(bits))
        return label, bits

    bits_left = (ctx.orient_left, ctx.orient_left_alt)
    bits_right = (ctx.orient_right, ctx.orient_right_alt)
    if case is FOURIER_JACOBI:
        lefts = [variant(left, bits_left, s) for s in ((), ("lam_prime",))]
        rights = [variant(right, bits_right, s) for s in ((), ("lam_prime",))]
        pairs = [(lv, rv) for lv in lefts for rv in rights]
        varied_left = varied_right = ("lam_prime",)
    else:
        odd, even = (right, left) if left.group.family is GroupFamily.O_EVEN else (left, right)
        odd_bits, even_bits = (bits_right, bits_left) if odd is right else (bits_left, bits_right)
        slot_sets = ((), ("lam",), ("lam_prime",), ("lam", "lam_prime"))
        pairs = [((odd, odd_bits), variant(even, even_bits, s)) for s in slot_sets]
        varied_left, varied_right = (), ("lam", "lam_prime")

    entries, seen = [], set()
    for (lv, lbits), (rv, rbits) in pairs:
        if (lv, rv) in seen:
            continue
        seen.add((lv, rv))
        sub = ctx._replace(
            orient_left=lbits[0],
            orient_left_alt=lbits[1],
            orient_right=rbits[0],
            orient_right_alt=rbits[1],
        )
        entries.append((lv, rv, ggp_multiplicity(lv, rv, case, sub)))

    def class_key(label, varied):
        key = []
        for slot in ("lam", "lam_prime"):
            sym = getattr(label, slot)
            rows = (sym.row_a, sym.row_b)
            if slot in varied and symbol_defect(sym) == 0:
                rows = min(rows, rows[::-1])
            key.append(rows)
        return tuple(key)

    classes = {}
    for lv, rv, value in entries:
        if value.is_nonzero:
            key = (class_key(lv, varied_left), class_key(rv, varied_right))
            classes.setdefault(key, []).append(value)
    if len(classes) > 1:
        raise MultipleNonzero(f"{len(classes)} variant classes nonzero for {left} / {right}")
    for values in classes.values():
        if any(v != values[0] for v in values):
            raise MultipleNonzero("variant class with inconsistent values")
    return (
        tuple(entries),
        tuple(e for e in entries if e[2].is_nonzero),
        tuple(e for e in entries if e[2].is_undetermined),
    )


def _outcome(select, left, right, case, ctx):
    try:
        report = select(left, right, case, ctx)
    except MultipleNonzero as err:
        return ("MultipleNonzero", str(err))
    if isinstance(report, VariantReport):
        return (report.entries, report.nonzero, report.undetermined)
    return report


SWEEP_CONTEXTS = pytest.mark.parametrize(
    "ctx",
    [
        TowerContext(eps_minus_one=PLUS),
        TowerContext(eps_minus_one=MINUS),
        TowerContext(eps_minus_one=PLUS, orient_left=MINUS, orient_right_alt=PLUS),
        TowerContext(eps_minus_one=MINUS, orient_left_alt=PLUS, orient_right=MINUS),
        TowerContext(
            eps_minus_one=PLUS,
            orient_left=PLUS,
            orient_left_alt=MINUS,
            orient_right=MINUS,
            orient_right_alt=PLUS,
        ),
    ],
    ids=["eps+", "eps-", "some-bits+", "some-bits-", "all-bits"],
)


@SWEEP_CONTEXTS
def test_select_matches_reference(ctx):
    """Every rank <= 2 family of the uniqueness sweep, in both argument orders."""
    families = variant_families(2, ctx.eps_minus_one)
    for left, right, case in families:
        for a, b in ((left, right), (right, left)):
            assert _outcome(select_nonzero_variant, a, b, case, ctx) == _outcome(
                _reference_select, a, b, case, ctx
            ), f"{a} / {b}"


@SWEEP_CONTEXTS
def test_shared_run_matches_fresh_calls(ctx):
    """One run over every rank <= 3 family, in both argument orders, answers as fresh calls do.

    A side or gate that leaked from one family into another would show here.
    """
    run = _VariantRun(ctx)
    families = variant_families(3, ctx.eps_minus_one)
    for left, right, case in families:
        for a, b in ((left, right), (right, left)):
            shared = _outcome(lambda l, r, c, _: run.family(l, r, c), a, b, case, ctx)
            assert shared == _outcome(select_nonzero_variant, a, b, case, ctx), f"{a} / {b}"


def _open_families(max_rank: int, ctx: TowerContext) -> list:
    """The families of a sweep whose pair-condition gate reads open, on a run of their own."""
    run = _VariantRun(ctx)
    return [
        (left, right, case)
        for left, right, case in variant_families(max_rank, ctx.eps_minus_one)
        if run.candidate_gate(left, 0, right.lam, case) and run.candidate_gate(left, 1, right.lam_prime, case)
    ]


def test_sweep_reads_kh_once_per_label_and_role(monkeypatch):
    """A rank-2 sweep builds each label's sides once per role, not once per
    family, and only for the roles of families whose gate reads open.

    Each side reads its variant's (k, h) once, so the run reads ``kh_of``
    once per variant of each (label, varied slots) role of an open family.
    Under ``CTX`` no bits are supplied, so a symplectic label's left and
    right Fourier-Jacobi roles are one role.
    """
    calls = count_calls(monkeypatch, ggp, "kh_of")
    assert verify_variant_uniqueness(2, CTX).passed
    roles = {
        (label, slots)
        for left, right, case in _open_families(2, CTX)
        for label, slots in zip((left, right), case.slots)
    }
    variants = 0
    for label, slots in roles:
        # a slot equal to its own transpose gives no second variant
        varied = [(label.lam, label.lam_prime)[i] for i in slots]
        variants += 2 ** sum(symbol_transpose(s) != s for s in varied)
    assert len(calls) == variants


def test_one_sided_is_the_band_then_the_bit_match():
    """``_one_sided`` takes the two bits and reads them only once the band
    holds; it answers as the band rule applied to the match bit, both
    written out here, over every distance, bit pair and twist."""

    def match_bit(a, b, twist):
        if a is None or b is None:
            return None
        return a * twist == b

    def band_then_match(dist, other, match):
        if other == 0:
            return dist == 0
        if dist not in (other - 1, other):
            return False
        return match

    for dist, other in itertools.product(range(4), repeat=2):
        for mine, theirs in itertools.product((None, PLUS, MINUS), repeat=2):
            for twist in (PLUS, MINUS):
                expected = band_then_match(dist, other, match_bit(mine, theirs, twist))
                assert ggp._one_sided(dist, other, mine, theirs, twist) is expected
            assert ggp._one_sided(dist, other, mine, theirs) is ggp._one_sided(dist, other, mine, theirs, PLUS)



def test_fj_order_holds_plain_values_that_order_as_the_label_fields():
    """``_fj_order`` compares without the descriptor and symbol methods, yet
    orders two symplectic labels as ``(-rank, rho, lam, lam_prime)`` does.
    Each key is a literal of plain values (a repr that reads back as the
    key), and over the sp labels of rank <= 2 built from the default
    descriptors and an irregular one of rank 1, every pair compares alike
    under both keys, ties included."""
    catalog = default_rho_catalog(2) + (RhoDescriptor(1, False, "irregular"),)
    labels = [label for n in range(3) for label in enumerate_labels(sp(n), PLUS, catalog)]
    keys = {label: ggp._fj_order(label) for label in labels}
    assert all(ast.literal_eval(repr(key)) == key for key in keys.values())
    for a, b in itertools.product(labels, repeat=2):
        fields = (-a.group.rank, a.rho, a.lam, a.lam_prime), (-b.group.rank, b.rho, b.lam, b.lam_prime)
        assert (keys[a] < keys[b], keys[a] == keys[b]) == (fields[0] < fields[1], fields[0] == fields[1])
    assert len({label.rho for label in labels}) == len(catalog)


def test_only_a_symplectic_side_holds_an_fj_order_key():
    """Only Fourier-Jacobi pairs read a side's ``order``, so a side of an
    odd or even orthogonal label holds no key and a symplectic side holds
    its label's ``_fj_order``; each label varies both slots here."""
    run = _VariantRun(TowerContext(PLUS))
    for group in (sp(2), o_odd(2, PLUS), o_odd(2, MINUS), o_even(2, PLUS), o_even(2, MINUS)):
        labels = list(enumerate_labels(group, PLUS))
        sides = [side for label in labels for side in run.sides(label, (None, None), (0, 1))]
        assert len(sides) > len(labels)
        if group.family is GroupFamily.SP:
            assert all(side.order == ggp._fj_order(side.label) for side in sides)
        else:
            assert all(side.order is None for side in sides)


def _families_by_key(run: _VariantRun, max_rank: int):
    """Each open family of a sweep on ``run``, with the memo key and group that
    :meth:`_VariantRun.groups` gives it: ``(left, right, case, key, group)``,
    where ``key`` is asked for the family alone and ``group`` is the bit
    mask, among the left label's open families in the prefix of its case's
    universe that its walk meets, of the group it falls in.  Each universe
    row holds, for each left rank of its walks, the mask of each (right
    profile, rank sign)."""
    out = []
    for lefts, rights, case, blocks in _variant_families(max_rank, run.ctx.eps_minus_one):
        left_row, right_row = run.profile_row((lefts,), 0, case), run.profile_row(rights, 1, case)
        universe, profiles = right_row[0], right_row[2]
        prefix = (1 << sum(map(len, rights[: len(blocks)]))) - 1
        for i, left in enumerate(lefts):
            mask = run.gate_mask(left, right_row, case) & prefix
            groups = list(run.groups(case, left_row, i, right_row, mask))
            # the groups split the open families, and no family is in two of them
            assert sum(group for _, group in groups) == mask
            for key, group in groups:
                for j, right in enumerate(universe):
                    if group >> j & 1:
                        [(alone, bit)] = run.groups(case, left_row, i, right_row, 1 << j)
                        assert (alone, bit) == (key, 1 << j)
                        # a group keyed by a rank sign, not a swap pattern, has one right profile and sign
                        ranks = left.group.rank, right.group.rank
                        assert key[2] == profiles[j]
                        assert isinstance(key[3], tuple) or key[3] == (ranks[0] > ranks[1]) - (ranks[0] < ranks[1])
                        out.append((left, right, case, key, group))
        # the groups read the mask table of the left rank: each (right profile, rank sign) mask
        for rank in {left.group.rank for left in lefts}:
            keys = [(p, (rank > r.group.rank) - (rank < r.group.rank)) for p, r in zip(profiles, universe)]
            table = {at: sum(1 << j for j, held in enumerate(keys) if held == at) for at in keys}
            assert right_row[5][rank] == table
    return out


@pytest.mark.parametrize("eps", [PLUS, MINUS], ids=["eps+", "eps-"])
@pytest.mark.parametrize("bits", [(None,) * 4, (PLUS, MINUS, MINUS, PLUS)], ids=["none", "+--+"])
def test_profile_rows_profile_each_side_list(eps, bits):
    """A side stores only what every side pair reads: its label, (k, h),
    resolved bits and Fourier-Jacobi order key.  Over every walk of the
    rank <= 2 sweep, in each position and case, a profile row holds the
    labels of its lists in one list (a walk's universe, for its right
    lists) and each label's side list, and two side lists get one interned
    profile exactly when they agree, side by side, on the (k, h), bits,
    unipotence, slot regularity and descriptor that the label functions
    give; the rank is not in the profile.  The row's masks are the
    positions of each symbol in each slot and, once the sweep has asked
    for a left rank, of each (profile, sign of left rank - group rank);
    the walks of each case share one universe row, and a memo key holds
    the case and the two profiles of its family."""
    assert _Side._fields == ("label", "kh", "bits", "order")
    params = ["self", "case", "left_row", "i", "right_row", "mask"]
    assert list(inspect.signature(_VariantRun.groups).parameters) == params
    run = _VariantRun(TowerContext(eps, *bits))
    interned = {}
    unipotent = set()
    universes = collections.defaultdict(set)
    for lefts, rights, case, _ in _variant_families(2, eps):
        for position, lists in enumerate(((lefts,), rights)):
            row = run.profile_row(lists, position, case)
            assert run.profile_row(tuple(lists), position, case) is row
            labels, sides, profiles, index, _, _ = row
            assert labels == [label for labels in lists for label in labels]
            for i, held in enumerate(index):
                slot = [(label.lam, label.lam_prime)[i] for label in labels]
                assert held == {s: sum(1 << j for j, t in enumerate(slot) if t == s) for s in slot}
            for label, variants, profile in zip(labels, sides, profiles):
                assert variants is run.sides(label, run.bits[position], case.slots[position])
                facts = tuple(
                    (side.kh, side.bits, is_unipotent_label(side.label),
                     symbol_regular_by_convention(side.label.lam),
                     symbol_regular_by_convention(side.label.lam_prime),
                     side.label.rho)
                    for side in variants
                )
                assert interned.setdefault(facts, profile) == profile
                fj = case is FOURIER_JACOBI
                assert all(side.order == (ggp._fj_order(side.label) if fj else None) for side in variants)
                unipotent.update(fact[2] for fact in facts)
        universes[case].add(id(run.profile_row(rights, 1, case)[0]))
    assert len(universes[BESSEL]) == len(universes[FOURIER_JACOBI]) == 1
    assert len(set(interned.values())) == len(interned)
    assert unipotent == {True, False}
    for left, right, case, key, _ in _families_by_key(run, 2):
        assert len(key) == 4 and key[0] is case and {key[1], key[2]} <= set(interned.values())


@pytest.mark.parametrize("eps", [PLUS, MINUS], ids=["eps+", "eps-"])
@pytest.mark.parametrize("bits", [(None,) * 4, (PLUS,) * 4, (PLUS, MINUS, MINUS, PLUS)], ids=["none", "++++", "+--+"])
def test_families_that_share_a_memo_key_evaluate_alike(eps, bits):
    """The sweep evaluates one family per memo key, so every family of a
    key must evaluate as that one does.  Over every open family of rank
    <= 2, asked for alone and within its group, families of one key give
    the same sequence of side (k, h) pairs and value kinds, and a group
    holds families of one right profile, or one family at equal
    Fourier-Jacobi ranks.  A key without the sign of rank(left) -
    rank(right) fails here, though it leaves every sweep report unchanged."""
    run = _VariantRun(TowerContext(eps, *bits))
    seen = {}
    families = _families_by_key(run, 2)
    for left, right, case, key, group in families:
        evaluated = [(lv.kh, rv.kh, value.kind) for lv, rv, value in run.evaluate(left, right, case, True)]
        assert seen.setdefault(key, evaluated) == evaluated, (left, right)
        if case is FOURIER_JACOBI and left.group.rank == right.group.rank:
            assert group.bit_count() == 1
    assert len(seen) < len(families)



@pytest.mark.parametrize("eps", [PLUS, MINUS], ids=["eps+", "eps-"])
@pytest.mark.parametrize("bits", [(None,) * 4, (PLUS, MINUS, MINUS, PLUS)], ids=["none", "+--+"])
def test_left_labels_that_share_a_left_key_evaluate_alike(eps, bits):
    """The sweep reads the gate mask and groups of one left label per left
    key, so every left label of a key must evaluate as that one does.  Over
    the left lists of the rank <= 2 sweep, and beside them the labels of
    each left group built from the trivial descriptor and a regular and an
    irregular one of rank 1, labels of one key give the same number of
    nonzero variant classes against every right label of their case's
    universe.  The odd orthogonal labels of one rank and symbols share a
    key across both signs and eps flags, so some key spans two walks.  A
    key without the left profile puts the two rank-1 descriptors of one
    symbol pair in one key, and one without ``lam_prime`` two labels whose
    gate masks differ: either fails here."""
    run = _VariantRun(TowerContext(eps, *bits))
    catalog = (TRIVIAL_RHO, RhoDescriptor(1, True, "regular"), RhoDescriptor(1, False, "irregular"))
    members, universes = collections.defaultdict(list), {}
    for lefts, rights, case, _ in _variant_families(2, eps):
        right_row = run.profile_row(rights, 1, case)
        universes[case] = right_row[0]
        for labels in (lefts, list(enumerate_labels(lefts[0].group, eps, catalog))):
            left_row = run.profile_row((labels,), 0, case)
            for i, left in enumerate(labels):
                members[run.left_key(case, left_row, i, right_row)].append(left)
    spanned = set()
    for (case, *_), labels in members.items():
        if len({label.group for label in labels}) > 1:
            spanned.add(case)
        classes = [
            [ggp._nonzero_classes(run.evaluate(left, right, case, True)) for right in universes[case]]
            for left in labels
        ]
        assert classes == classes[:1] * len(labels), labels
    assert spanned == {BESSEL}


def test_a_closed_gate_ends_its_family(monkeypatch):
    """The rank-2 sweep reads each family's pair-condition gate first, and a
    family whose gate reads closed is counted without being evaluated.  Of
    the 4,345 families, the 1,861 open ones are split into groups by memo
    key, and a group is evaluated only at a new key: 271 evaluations and
    849 relevance reads, where evaluating every family made 4,345 and
    8,331.  Reading every family's gate asks ``in_G`` 115 times: the 107
    keys that evaluating every family read (it read no gate of a family
    whose pairs are all definitely irrelevant), and the keys of those
    families.  The sweep walks each distinct left key once against one
    universe per case: one gate mask and one set of groups per key, 51 of
    each (30 sp labels and 21 odd orthogonal symbol pairs, each pair
    shared by both group signs and both eps flags), where one per left
    label made 114 and one per left label and right list 586.  It reads
    each gate key once per universe, slot, fixed symbol and distinct symbol
    in that slot of the universe, and each evaluation reads the family's
    gate once more if some pair is not definitely irrelevant: 1,046 gate
    reads, where one universe per left list made 1,078, one read per right
    list 1,372, one per left label and distinct right symbol 5,123 and one
    per family 6,876.  A family
    evaluated on its own still reads the relevance of no pair after a
    closed gate: 8,331 reads over the 4,345 families, counted from a
    reference run as every pair up to the first one not definitely
    irrelevant, and all of them when the gate there is open."""
    in_G_calls = count_calls(monkeypatch, ggp, "in_G")
    reference = _VariantRun(CTX)
    alone = 0
    for left, right, case in variant_families(2, PLUS):
        pairs = reference.pairs(left, right, case, True)
        for n, (a, b) in enumerate(pairs, 1):
            if ggp._strong_relevance(*ggp._in_order(a, b, case), case, CTX) is not False:
                slots = (right.lam, right.lam_prime)
                gate = all(reference.candidate_gate(left, i, s, case) for i, s in enumerate(slots))
                alone += len(pairs) if gate else n
                break
        else:
            alone += len(pairs)
    relevant = len(in_G_calls)
    opened = _open_families(2, CTX)
    every = len(in_G_calls) - relevant
    assert (relevant, every, len(opened)) == (107, 115, 1861)

    del in_G_calls[:]
    gates = count_calls(monkeypatch, _VariantRun, "candidate_gate")
    reads = count_calls(monkeypatch, ggp, "_strong_relevance")
    evaluations = count_calls(monkeypatch, _VariantRun, "evaluate")
    masks = count_calls(monkeypatch, _VariantRun, "gate_mask")
    keys, asked = [], []
    groups = _VariantRun.groups

    def spy(run, *args):
        found = groups(run, *args)
        keys.extend(found)
        asked.append((args, found))
        return found

    monkeypatch.setattr(_VariantRun, "groups", spy)
    report = verify_variant_uniqueness(2, CTX)
    assert (report.checked, report.passed) == (4345, True)
    # one gate mask and one set of groups per distinct left key, asked by its first label
    firsts, shared = {}, collections.Counter()
    for labels, _, case, _ in _variant_families(2, PLUS):
        for left in labels:
            at = case, left.lam, left.lam_prime, left.group.rank
            firsts.setdefault(at, left)
            shared[at] += 1
    assert len(masks) == len(asked) == len(firsts) == 51 and shared.total() == 114
    assert [(args[1], args[3]) for args in masks] == [(left, case) for (case, *_), left in firsts.items()]
    # each key's groups stand for the open families of every left label that shares it
    opens = 0
    for (case, left_row, i, *_), found in asked:
        left = left_row[0][i]
        opens += shared[case, left.lam, left.lam_prime, left.group.rank] * sum(group.bit_count() for _, group in found)
    assert opens == len(opened)
    assert len(evaluations) == len({key for key, _ in keys}) == 271
    assert {args[1:4] for args in evaluations} <= set(opened)
    assert len(in_G_calls) == every
    pairs = sum(len(reference.pairs(*args[1:])) for args in evaluations)
    assert (len(reads), pairs, len(gates)) == (849, 849, 1046)

    del reads[:]
    run = _VariantRun(CTX)
    for left, right, case in variant_families(2, PLUS):
        run.family(left, right, case)
    assert len(reads) == alone == 8331


def test_select_entry_kinds_rank_2():
    """Entry kinds over the rank-2 uniqueness sweep at eps_{-1} = + (an invariant)."""
    tally = collections.Counter()
    for left, right, case in variant_families(2, PLUS):
        report = select_nonzero_variant(left, right, case, CTX)
        tally.update(value.kind for _, _, value in report.entries)
    assert tally == {MultKind.ZERO: 6468, MultKind.ONE: 1977, MultKind.UNDETERMINED: 3276}


def test_select_requires_definite_base():
    bad = make_label(sp(1), RhoDescriptor(1, False, "cusp-a"), parse_symbol("[0|]"), EMPTY_SYMBOL)
    with pytest.raises(ValueError):
        select_nonzero_variant(bad, st_sp2(), FOURIER_JACOBI, CTX)


# ---------------------------------------------------------------------------
# branching
# ---------------------------------------------------------------------------


@pytest.mark.xfail(strict=True, reason="both rows read 1 until the slot reading is fixed (ROADMAP item 2)")
@pytest.mark.parametrize("eps", [PLUS, MINUS])
def test_trivial_sp2_fourier_jacobi_table_has_one_row_per_character(eps):
    """The trivial pi of sp(2) gives pi (x) omega_psi = omega_psi, of degree q.
    The rows L'=[0|1] and L'=[1|0] are two distinct characters of degree
    (q+1)/2, so at most one of them may have multiplicity 1."""
    pi = parse_label("sp(2): rho=trivial:0:reg ; L=[1|] ; L'=[|]", eps)
    rows = dict(branch_decomposition(pi, sp(1), TowerContext(eps_minus_one=eps)))
    pair = [
        rows.get(make_label(sp(1), TRIVIAL_RHO, parse_symbol("[0|]"), parse_symbol(text)))
        for text in ("[0|1]", "[1|0]")
    ]
    assert sum(value is not None and value.is_one for value in pair) <= 1


def test_branch_examples():
    triv_o1 = unipotent_label(o_odd(0, PLUS), parse_symbol("[0|]"), PLUS)
    rows = branch_decomposition(triv_o1, o_even(0, PLUS), CTX)
    assert len(rows) == 1 and rows[0][1].is_one
    assert rows[0][0].lam == EMPTY_SYMBOL

    triv_o3 = unipotent_label(o_odd(1, PLUS), parse_symbol("[1|]"), PLUS)
    rows = branch_decomposition(triv_o3, o_even(1, PLUS), CTX)
    trivial_rows = [r for r in rows if r[0].lam == parse_symbol("[1|0]")]
    assert len(trivial_rows) == 1 and trivial_rows[0][1].is_one


def test_branch_fj_example():
    u = unipotent_label(sp(1), parse_symbol("[1|]"))
    rows = branch_decomposition(u, sp(1), CTX)
    assert rows
    for label, value in rows:
        assert value.is_nonzero or value.is_undetermined
        assert label.group == sp(1)
    # every definite row is multiplicity one
    assert all(v.is_one for _, v in rows if v.is_nonzero)


def test_branch_multiplicity_free_small():
    for n in range(3):
        for eps in (PLUS, MINUS):
            for lam in enumerate_labels(o_odd(n, eps)):
                if lam.rho.is_trivial and lam.lam_prime == parse_symbol("[0|]"):
                    for eps2 in (PLUS, MINUS):
                        rows = branch_decomposition(lam, o_even(n, eps2), CTX)
                        assert all(v.is_one for _, v in rows if v.is_nonzero)
                        labels = [l for l, _ in rows]
                        assert len(labels) == len(set(labels))


def test_branch_fj_multiplicity_free_small():
    for n in range(3):
        for lam in enumerate_symbols(n, SymbolFamily.SP_UNIPOTENT):
            pi = unipotent_label(sp(n), lam)
            rows = branch_decomposition(pi, sp(n), CTX)
            assert all(v.is_one for _, v in rows if v.is_nonzero)
            labels = [label for label, _ in rows]
            assert len(labels) == len(set(labels))


def test_strong_relevance_never_beats_necessary():
    rng = random.Random(5)
    pools = []
    for n in range(4):
        pools.extend(enumerate_labels(sp(n)))
    from thetasym.catalog import kh_of

    for _ in range(1200):
        left, right = rng.choice(pools), rng.choice(pools)
        ordered = (
            (left, right) if left.group.rank >= right.group.rank else (right, left)
        )
        if not relevance_necessary(kh_of(ordered[0]), kh_of(ordered[1]), FOURIER_JACOBI):
            assert is_strongly_relevant(left, right, FOURIER_JACOBI, CTX) is False


def test_branch_errors():
    u = unipotent_label(sp(1), parse_symbol("[1|]"))
    with pytest.raises(RankMismatch):
        branch_decomposition(u, sp(2), CTX)
    with pytest.raises(CaseMismatch):
        branch_decomposition(u, o_even(1, PLUS), CTX)
    not_unip = make_label(sp(1), TRIVIAL_RHO, parse_symbol("[0|]"), parse_symbol("[1|0]"))
    with pytest.raises(NotUnipotent):
        branch_decomposition(not_unip, sp(1), CTX)
    # of the nine (source, target) family pairs, only two build a table
    groups = {GroupFamily.SP: sp(1), GroupFamily.O_ODD: o_odd(1, PLUS), GroupFamily.O_EVEN: o_even(1, PLUS)}
    tables = {(GroupFamily.SP, GroupFamily.SP), (GroupFamily.O_ODD, GroupFamily.O_EVEN)}
    for source, target in itertools.product(groups, repeat=2):
        pi = next(filter(is_unipotent_label, enumerate_labels(groups[source])))
        if (source, target) in tables:
            assert branch_decomposition(pi, groups[target], CTX)
            continue
        with pytest.raises(CaseMismatch) as err:
            branch_decomposition(pi, groups[target], CTX)
        assert str(err.value) == (
            f"no branching rule from {groups[source]} to {groups[target]}; expected a "
            "symplectic or odd-orthogonal-to-even restriction"
        )


def _branch_key(row):
    label = row[0]
    return (
        symbol_defect(label.lam),
        symbol_defect(label.lam_prime),
        label.lam.row_a,
        label.lam.row_b,
        label.lam_prime.row_a,
        label.lam_prime.row_b,
        label.rho.id,
        label.eps_flag or 0,
    )


@pytest.mark.parametrize(
    "bits",
    [
        {},
        {"orient_left": MINUS, "orient_right_alt": PLUS},
        {"orient_left_alt": PLUS, "orient_right": MINUS},
    ],
    ids=["derived", "some-bits", "other-bits"],
)
@pytest.mark.parametrize("eps", [PLUS, MINUS], ids=["eps+", "eps-"])
def test_branch_matches_per_candidate_reference(eps, bits):
    """A branch table evaluates only the candidates whose slot symbols pass
    the pair gate; the full-candidate filter must give the same rows in the
    same order, for every unipotent sp and odd orthogonal source of rank <= 4.

    Ranks <= 3 evaluate each candidate by a fresh ggp_multiplicity call; rank
    4 uses one run and one candidate list per target for all its tables,
    which test_shared_run_matches_fresh_calls pins against fresh calls.
    """
    ctx = TowerContext(eps, **bits)
    shared = _VariantRun(ctx)
    for n in range(5):
        sources = [(l, BESSEL, [o_even(n, s) for s in (PLUS, MINUS)])
                   for s in (PLUS, MINUS) for l in enumerate_labels(o_odd(n, s), eps)]
        sources += [(l, FOURIER_JACOBI, [sp(n)]) for l in enumerate_labels(sp(n), eps)]
        candidates = {
            target: list(enumerate_labels(target, eps, default_rho_catalog(n)))
            for target in (sp(n), o_even(n, PLUS), o_even(n, MINUS))
        }
        for pi, case, targets in sources:
            if not is_unipotent_label(pi):
                continue
            for target in targets:
                expected = []
                for candidate in candidates[target]:
                    if n < 4:
                        value = ggp_multiplicity(pi, candidate, case, ctx)
                    else:
                        value = shared.evaluate(pi, candidate, case, False)[0][2]
                    if not value.is_zero:
                        expected.append((candidate, value))
                expected.sort(key=_branch_key)
                assert branch_decomposition(pi, target, ctx) == expected, f"{pi} -> {target}"


@pytest.mark.parametrize(
    "pi, target, rows, keys",
    [
        (unipotent_label(sp(8), parse_symbol("[8|]")), sp(8), 4, 1586),
        (unipotent_label(o_odd(8, PLUS), parse_symbol("[8|]"), PLUS), o_even(8, PLUS), 2, 2009),
    ],
    ids=["sp(16)", "o+(16)"],
)
def test_branch_evaluates_only_gated_candidates(pi, target, rows, keys, monkeypatch):
    """The trivial label's table evaluates no more candidates than it prints
    rows, not the 11,487 and 9,430 labels of these targets, and asks in_G
    once per transpose class of each gate key: 1,586 and 2,009 calls, where
    asking per symbol made 2,580 and 3,993."""
    calls = count_calls(monkeypatch, ggp, "in_G")
    evaluated = count_calls(monkeypatch, _VariantRun, "evaluate")
    assert len(branch_decomposition(pi, target, CTX)) == rows
    assert len(evaluated) <= rows
    assert len(calls) <= keys


def test_slot_gate_answers_once_per_transpose_class(monkeypatch):
    """A slot gate's answer holds for both transposes of the varied symbol,
    so asking for the other transpose makes no new in_G call."""
    calls = count_calls(monkeypatch, ggp, "in_G")
    answers = set()
    for n in range(3):
        for fixed in enumerate_symbols(n, SymbolFamily.SP_UNIPOTENT):
            run = _VariantRun(CTX)
            for family in (SymbolFamily.O_EVEN_PLUS, SymbolFamily.O_EVEN_MINUS):
                for s in enumerate_symbols(n, family):
                    t = symbol_transpose(s)
                    answers.add(gate := run.slot_gate(fixed, s))
                    assert gate is any(in_G(fixed, v) is not None for v in (s, t))
                    before = len(calls)
                    assert run.slot_gate(fixed, t) is gate
                    assert len(calls) == before
    assert answers == {True, False}


@pytest.mark.parametrize(
    "pi, target, text",
    [
        (unipotent_label(sp(23), parse_symbol("[23|]")), sp(23), "the rank <= 23 sweep has 1063737"),
        (
            unipotent_label(o_odd(40, PLUS), parse_symbol("[40|]"), PLUS),
            o_even(40, MINUS),
            "the rank <= 40 sweep has more than 1063737",
        ),
    ],
    ids=["sp(46)", "o+(81)"],
)
def test_oversized_branch_table_refused_before_building(pi, target, text, monkeypatch):
    forbid_layer_builds(monkeypatch)

    def must_not_run(*args, **kwargs):
        raise AssertionError("candidates were enumerated for a refused table")

    monkeypatch.setattr(ggp, "enumerate_labels", must_not_run)
    with pytest.raises(ValueError) as err:
        branch_decomposition(pi, target, CTX)
    assert str(err.value) == (
        f"{text} symbols, over the enumeration bound MAX_LAYER_SYMBOLS = {MAX_LAYER_SYMBOLS}"
    )


def test_default_rho_catalog():
    catalog = default_rho_catalog(3)
    assert catalog[0] == TRIVIAL_RHO
    assert [r.glu_rank for r in catalog] == [0, 1, 2, 3]
    assert all(r.regular for r in catalog)


def test_branch_deterministic_order():
    triv_o3 = unipotent_label(o_odd(1, PLUS), parse_symbol("[1|]"), PLUS)
    a = branch_decomposition(triv_o3, o_even(1, PLUS), CTX)
    b = branch_decomposition(triv_o3, o_even(1, PLUS), CTX)
    assert a == b
