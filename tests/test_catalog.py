import ast
import inspect
import itertools
import re
from pathlib import Path

import pytest

import thetasym.catalog as catalog
import thetasym.cli as cli
import thetasym.core as core
import thetasym.ggp as ggp
import thetasym.oracle as oracle
import thetasym.theta as theta
from thetasym.catalog import (
    KH,
    MINUS,
    PLUS,
    GroupFamily,
    GroupTag,
    RepLabel,
    RhoDescriptor,
    TRIVIAL_RHO,
    cuspidal_symbol,
    enumerate_labels,
    eps_minus_one_from_q,
    format_label,
    is_unipotent_cuspidal,
    is_unipotent_label,
    kh_of,
    make_label,
    o_even,
    o_odd,
    parse_group,
    parse_label,
    parse_sign,
    sp,
    symbol_regular_by_convention,
    unipotent_label,
)
from thetasym.core import (
    EMPTY_SYMBOL,
    MAX_LAYER_SYMBOLS,
    SymbolFamily,
    bipartition_count,
    enumerate_symbols,
    partition_count,
    partitions_of,
    parse_symbol,
    symbol_defect,
    symbol_rank,
    symbol_transpose,
    upsilon,
)
from thetasym.errors import (
    DefectClassMismatch,
    ParseError,
    RankOverflow,
    SignMismatch,
)
from thetasym.ggp import default_rho_catalog

from symbol_helpers import sgn


def test_make_label_examples():
    lab = make_label(sp(2), TRIVIAL_RHO, parse_symbol("[|2,1,0]"), EMPTY_SYMBOL)
    assert kh_of(lab) == KH(1, 0)
    make_label(sp(1), TRIVIAL_RHO, parse_symbol("[1,0|1]"), EMPTY_SYMBOL)
    with pytest.raises(DefectClassMismatch):
        make_label(sp(1), TRIVIAL_RHO, parse_symbol("[1|0]"), EMPTY_SYMBOL)
    with pytest.raises(RankOverflow):
        make_label(sp(3), TRIVIAL_RHO, parse_symbol("[1|]"), EMPTY_SYMBOL)
    with pytest.raises(SignMismatch):
        make_label(sp(1), TRIVIAL_RHO, parse_symbol("[1|]"), EMPTY_SYMBOL, eps_flag=PLUS)
    with pytest.raises(SignMismatch):
        # slot signs multiply to +, but eps_minus_one * eps = -
        make_label(
            o_even(1, MINUS),
            TRIVIAL_RHO,
            parse_symbol("[1|0]"),
            EMPTY_SYMBOL,
            eps_minus_one=PLUS,
        )


def test_make_label_exhaustive_consistency():
    """Labels exist exactly for rank-compatible, class-compatible symbol pairs."""
    for n in range(5):
        seen = 0
        for r1 in range(n + 1):
            for lam in enumerate_symbols(r1, SymbolFamily.SP_UNIPOTENT):
                for fam2 in (SymbolFamily.O_EVEN_PLUS, SymbolFamily.O_EVEN_MINUS):
                    for lam_prime in enumerate_symbols(n - r1, fam2):
                        make_label(sp(n), TRIVIAL_RHO, lam, lam_prime)
                        seen += 1
        assert seen == sum(1 for _ in enumerate_labels(sp(n)))


def _enumerate_labels_reference(group, eps, rho_catalog):
    """The make-and-filter walk: every slot-symbol pair goes through
    ``make_label``, and a ``SignMismatch`` drops the pair."""
    sp_type = (SymbolFamily.SP_UNIPOTENT,)
    even_type = (SymbolFamily.O_EVEN_PLUS, SymbolFamily.O_EVEN_MINUS)
    firsts, seconds = {
        GroupFamily.SP: (sp_type, even_type),
        GroupFamily.O_ODD: (sp_type, sp_type),
        GroupFamily.O_EVEN: (even_type, even_type),
    }[group.family]
    flags = (PLUS, MINUS) if group.family is GroupFamily.O_ODD else (None,)
    out = []
    for rho in rho_catalog:
        residual = group.rank - rho.glu_rank
        for r1 in range(residual + 1):
            lams = [s for f in firsts for s in enumerate_symbols(r1, f)]
            lam_primes = [s for f in seconds for s in enumerate_symbols(residual - r1, f)]
            for lam, lam_prime, flag in itertools.product(lams, lam_primes, flags):
                try:
                    out.append(make_label(group, rho, lam, lam_prime, flag, eps))
                except SignMismatch:
                    pass
    return out


def test_enumerate_labels_equals_make_and_filter_walk():
    """Same labels in the same order as filtering every slot-symbol pair, with an
    irregular and an oversized descriptor in the catalog."""
    rhos = default_rho_catalog(4) + (RhoDescriptor(2, False, "irr-2"), RhoDescriptor(9, True, "big"))
    for n, eps in itertools.product(range(5), (PLUS, MINUS)):
        for group in (sp(n), o_odd(n, PLUS), o_odd(n, MINUS), o_even(n, PLUS), o_even(n, MINUS)):
            expected = _enumerate_labels_reference(group, eps, rhos)
            assert list(enumerate_labels(group, eps, rhos)) == expected, (group, eps)


def _make_label_reference(group, lam, lam_prime, flag, eps):
    """The outcome of ``make_label`` by the module-docstring rules, written out."""
    fam = group.family
    d1, d2 = symbol_defect(lam), symbol_defect(lam_prime)
    odd_slots = (fam is not GroupFamily.O_EVEN, fam is GroupFamily.O_ODD)
    for position, d, odd in zip(("first", "second"), (d1, d2), odd_slots):
        if odd and d % 4 != 1:
            return DefectClassMismatch, f"{position} symbol defect {d} not = 1 mod 4 for {group}"
        if not odd and d % 2 != 0:
            return DefectClassMismatch, f"{position} symbol defect {d} must be even for {group}"
    if symbol_rank(lam) + symbol_rank(lam_prime) != group.rank:
        return RankOverflow, (
            f"component ranks 0+{symbol_rank(lam)}+{symbol_rank(lam_prime)} "
            f"!= group rank {group.rank}"
        )
    if fam is GroupFamily.O_ODD and flag is None:
        return SignMismatch, "odd orthogonal labels need an eps flag"
    if fam is not GroupFamily.O_ODD and flag is not None:
        return SignMismatch, f"{group} carries no eps flag"
    if fam is GroupFamily.O_EVEN:
        slot_signs = (-1) ** ((d1 // 2) % 2) * (-1) ** ((d2 // 2) % 2)
        if slot_signs != eps * group.sign:
            sign_text = {1: "+", -1: "-"}
            return SignMismatch, (
                f"slot signs {sign_text[slot_signs]} != "
                f"eps_minus_one*eps = {sign_text[eps * group.sign]}"
            )
    return None, RepLabel(group, TRIVIAL_RHO, lam, lam_prime, flag)


@pytest.mark.parametrize("eps", [0, 2, -2, None])
def test_eps_minus_one_other_than_a_sign_is_refused(eps):
    """An eps(-1) that is not +1 or -1 is refused, naming the field, where
    it would otherwise fit no slot pair and silently list no label."""
    message = rf"^eps_minus_one must be \+1 or -1, got {eps}$"
    with pytest.raises(ValueError, match=message):
        make_label(sp(1), TRIVIAL_RHO, parse_symbol("[1|]"), EMPTY_SYMBOL, None, eps)
    for group in (o_even(2, PLUS), o_even(2, MINUS), sp(0)):
        with pytest.raises(ValueError, match=message):
            next(enumerate_labels(group, eps))


def test_make_label_outcome_matrix():
    """Every group of rank <= 3 against every symbol pair of rank <= 3, all families."""
    symbols = [s for r in range(4) for f in SymbolFamily for s in enumerate_symbols(r, f)]
    pairs = [
        (lam, lam_prime)
        for lam, lam_prime in itertools.product(symbols, repeat=2)
        if symbol_rank(lam) + symbol_rank(lam_prime) <= 3
    ]
    groups = [
        g
        for n in range(4)
        for g in (sp(n), o_odd(n, PLUS), o_odd(n, MINUS), o_even(n, PLUS), o_even(n, MINUS))
    ]
    labels, texts = 0, set()
    for group, (lam, lam_prime), flag, eps in itertools.product(
        groups, pairs, (None, PLUS, MINUS), (PLUS, MINUS)
    ):
        error, expected = _make_label_reference(group, lam, lam_prime, flag, eps)
        if error is None:
            assert make_label(group, TRIVIAL_RHO, lam, lam_prime, flag, eps) == expected
            labels += 1
            continue
        with pytest.raises(error) as err:
            make_label(group, TRIVIAL_RHO, lam, lam_prime, flag, eps)
        assert str(err.value) == expected
        texts.add(expected)
    assert labels > 0
    for pattern in (
        r"first symbol defect -?\d+ not = 1 mod 4 for ",
        r"first symbol defect -?\d+ must be even for ",
        r"second symbol defect -?\d+ not = 1 mod 4 for ",
        r"second symbol defect -?\d+ must be even for ",
        r"slot signs [+-] != eps_minus_one\*eps = [+-]$",
        r"component ranks ",
        r"odd orthogonal labels need an eps flag$",
        r".* carries no eps flag$",
    ):
        assert any(re.match(pattern, text) for text in texts), pattern


def test_cuspidal_symbol_refuses_an_oversized_staircase(monkeypatch):
    def must_not_run(*args):
        raise AssertionError("a staircase was built for a refused index")

    monkeypatch.setattr(catalog, "_staircase_row", must_not_run)
    cases = [(family, k) for family in GroupFamily for k in (500_001, 10**6, 10**30)]
    cases += [(GroupFamily.SP, 500_000), (GroupFamily.O_ODD, 500_000)]
    for family, k in cases:
        entries = 2 * k if family is GroupFamily.O_EVEN else 2 * k + 1
        with pytest.raises(ValueError) as err:
            cuspidal_symbol(family, k)
        assert str(err.value) == (
            f"the cuspidal staircase of index {k} has {entries} entries, "
            f"over the enumeration bound MAX_LAYER_SYMBOLS = {MAX_LAYER_SYMBOLS}"
        )


@pytest.mark.parametrize("bound", [8, 9])
def test_cuspidal_symbol_bound_is_inclusive(bound, monkeypatch):
    monkeypatch.setattr(core, "MAX_LAYER_SYMBOLS", bound)
    for family, k in itertools.product(GroupFamily, range(7)):
        entries = 2 * k if family is GroupFamily.O_EVEN else 2 * k + 1
        if entries <= bound:
            s = cuspidal_symbol(family, k)
            assert len(s.row_a) + len(s.row_b) == entries
        else:
            with pytest.raises(ValueError, match=f"has {entries} entries"):
                cuspidal_symbol(family, k)


def test_kh_examples():
    lab = make_label(sp(6), TRIVIAL_RHO, parse_symbol("[4,3,2,1,0|]"), EMPTY_SYMBOL)
    assert kh_of(lab) == KH(2, 0)
    lab = make_label(sp(4), TRIVIAL_RHO, parse_symbol("[|2,1,0]"), parse_symbol("[|2,0]"))
    assert kh_of(lab) == KH(1, -1)
    lab = make_label(sp(1), TRIVIAL_RHO, parse_symbol("[1|]"), EMPTY_SYMBOL)
    assert kh_of(lab) == KH(0, 0)


def test_cuspidal_symbols():
    assert cuspidal_symbol(GroupFamily.SP, 2) == parse_symbol("[4,3,2,1,0|]")
    assert cuspidal_symbol(GroupFamily.SP, 0) == parse_symbol("[0|]")
    oe = cuspidal_symbol(GroupFamily.O_EVEN, 1)
    assert oe == parse_symbol("[1,0|]")
    assert symbol_rank(oe) == 1 and symbol_defect(oe) == 2
    for k in range(7):
        s = cuspidal_symbol(GroupFamily.SP, k)
        assert symbol_rank(s) == k * (k + 1)
        assert symbol_defect(s) == (-1) ** k * (2 * k + 1)
        s = cuspidal_symbol(GroupFamily.O_EVEN, k)
        assert symbol_rank(s) == k * k and symbol_defect(s) == 2 * k
        s = cuspidal_symbol(GroupFamily.O_ODD, k)
        assert symbol_rank(s) == k * (k + 1)


def test_is_unipotent_cuspidal_examples():
    """The defect names the family; a defect = 3 mod 4 is never cuspidal."""
    assert is_unipotent_cuspidal(parse_symbol("[|2,1,0]"))
    assert not is_unipotent_cuspidal(parse_symbol("[1,0|1]"))
    assert is_unipotent_cuspidal(EMPTY_SYMBOL)
    assert is_unipotent_cuspidal(parse_symbol("[1,0|]"))
    assert is_unipotent_cuspidal(parse_symbol("[|1,0]"))
    assert not is_unipotent_cuspidal(parse_symbol("[2,1,0|]"))  # defect 3
    assert not is_unipotent_cuspidal(parse_symbol("[1|0]"))  # defect 0, not the empty staircase


def test_sgn_twist_negates_kh_on_even_orthogonal():
    even = make_label(
        o_even(2, PLUS), TRIVIAL_RHO, parse_symbol("[2|0]"), EMPTY_SYMBOL
    )
    k, h = kh_of(even)
    k2, h2 = kh_of(sgn(even))
    assert (k2, h2) == (-k, -h)
    odd = make_label(
        o_odd(1, PLUS), TRIVIAL_RHO, parse_symbol("[1|]"), parse_symbol("[0|]"), PLUS
    )
    assert kh_of(sgn(odd)) == kh_of(odd)


def test_unipotent_label_counts():
    for n, expected in ((1, 2), (2, 6)):
        labels = [
            lab
            for lab in enumerate_labels(sp(n))
            if is_unipotent_label(lab)
        ]
        assert len(labels) == expected == len(enumerate_symbols(n, SymbolFamily.SP_UNIPOTENT))


def test_unipotent_label_second_slot_per_family():
    u = unipotent_label(sp(1), parse_symbol("[1|]"))
    assert u.lam_prime == EMPTY_SYMBOL
    u = unipotent_label(o_odd(1, PLUS), parse_symbol("[1|]"), eps_flag=PLUS)
    assert u.lam_prime == parse_symbol("[0|]")
    assert is_unipotent_label(u)


def test_regularity_convention():
    assert symbol_regular_by_convention(parse_symbol("[0|]"))
    assert symbol_regular_by_convention(parse_symbol("[1,0|1]"))  # column shape
    assert symbol_regular_by_convention(parse_symbol("[2,1,0|2,1]"))
    assert not symbol_regular_by_convention(parse_symbol("[1|]"))
    assert not symbol_regular_by_convention(parse_symbol("[1,0|2]"))
    # transpose closed, so sign twists preserve the marker
    assert symbol_regular_by_convention(symbol_transpose(parse_symbol("[2,1,0|2,1]")))


def test_eps_minus_one_from_q():
    assert eps_minus_one_from_q(5) == PLUS
    assert eps_minus_one_from_q(3) == MINUS
    assert eps_minus_one_from_q(9) == PLUS
    assert eps_minus_one_from_q(25) == PLUS
    assert eps_minus_one_from_q(27) == MINUS
    assert eps_minus_one_from_q(65521) == PLUS  # prime, 65521 = 1 mod 4
    for bad in (4, 1, 15, 21, 45, 3 * 65521, 2**32 + 1):
        with pytest.raises(ValueError):
            eps_minus_one_from_q(bad)


def test_label_grammar_roundtrip():
    labels = list(
        itertools.chain(
            enumerate_labels(sp(2)),
            enumerate_labels(o_odd(1, PLUS)),
            enumerate_labels(o_even(2, MINUS), MINUS),
            enumerate_labels(
                sp(3), rho_catalog=(TRIVIAL_RHO, RhoDescriptor(2, False, "cusp-gl2"))
            ),
        )
    )
    assert labels
    for lab in labels:
        text = format_label(lab)
        eps = MINUS if lab.group.family is GroupFamily.O_EVEN and lab.group.sign == MINUS else PLUS
        again = parse_label(text, eps_minus_one=eps) if lab.group.family is GroupFamily.O_EVEN else parse_label(text)
        assert again == lab
        assert format_label(again) == text


def test_label_grammar_errors():
    with pytest.raises(ParseError):
        parse_label("sp(2) rho=trivial:0:reg ; L=[1|] ; L'=[|]")
    with pytest.raises(ParseError):
        parse_label("sp(3): rho=trivial:0:reg ; L=[1|] ; L'=[|]; eps")
    with pytest.raises(ParseError):
        parse_label("sp(2): rho=trivial:0 ; L=[1|] ; L'=[|]")
    with pytest.raises(ParseError):
        parse_group("u(3)")


@pytest.mark.parametrize(
    "text, field",
    [
        ("sp(2): rho=trivial:0:reg ; L=[1|] ; L'=[|] ; L=[|]", "L"),
        ("sp(2): rho=trivial:0:reg ; L=[1|] ; rho=trivial:0:reg ; L'=[|]", "rho"),
        ("o+(3): rho=trivial:0:reg ; L=[1|] ; L'=[0|] ; eps=+ ; eps=-", "eps"),
    ],
    ids=["L", "rho", "eps"],
)
def test_label_repeated_field_is_parse_error(text, field):
    with pytest.raises(ParseError, match=f"repeated label field '{field}'"):
        parse_label(text)


@pytest.mark.parametrize(
    "text",
    [
        "sp(2): rho=trivial:0:reg ; L=[1|] ; L'=[|] ;",
        "sp(2): rho=trivial:0:reg ;; L=[1|] ; L'=[|]",
        "sp(2): rho=trivial:0:reg ; L=[1|] ;; L'=[|] ; ",
    ],
)
def test_label_empty_fields_are_skipped(text):
    assert parse_label(text) == parse_label("sp(2): rho=trivial:0:reg ; L=[1|] ; L'=[|]")


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: GroupTag(GroupFamily.SP, -1), "group rank must be nonnegative"),
        (lambda: GroupTag(GroupFamily.SP, 1, PLUS), "symplectic groups carry no sign"),
        (lambda: GroupTag(GroupFamily.O_EVEN, 1), "orthogonal groups need a sign"),
        (lambda: RhoDescriptor(-1, True, "x"), "descriptor rank must be nonnegative"),
        (lambda: parse_sign("x"), "bad sign 'x'"),
        (lambda: cuspidal_symbol(GroupFamily.SP, -1), "cuspidal index must be nonnegative"),
    ],
    ids=["negative-rank", "sp-sign", "o-no-sign", "negative-descriptor", "sign", "cuspidal-index"],
)
def test_constructor_refusals(build, text):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == text


def test_label_bad_eps_flag_is_parse_error():
    with pytest.raises(ParseError):
        parse_label("o+(3): rho=trivial:0:reg ; L=[1|] ; L'=[0|] ; eps=x")


def test_parse_group():
    assert parse_group("sp(4)") == sp(2)
    assert parse_group("o+(3)") == o_odd(1, PLUS)
    assert parse_group("o-(6)") == o_even(3, MINUS)


def test_upsilon_of_regular_convention_column():
    s = parse_symbol("[2,1,0|2,1]")
    assert upsilon(s) == ((), (1, 1))


@pytest.mark.parametrize(
    "text, at",
    [
        ("sp(٤)", "٤)"),
        ("sp(1_0)", "1_0)"),
        ("sp(+4)", "+4)"),
        ("sp(-2)", "-2)"),
        pytest.param("sp(" + "2" * 5000 + ")", "2" * 5000, id="5000 digits"),
        (" sp(3)", "3)"),
        ("  u(3)", "u(3)"),
    ],
)
def test_group_dimension_follows_the_integer_rule(text, at):
    with pytest.raises(ParseError) as err:
        parse_group(text)
    assert text[err.value.offset:].startswith(at)


LABEL_TAIL = " ; L=[1|] ; L'=[|]"


@pytest.mark.parametrize(
    "text, at",
    [
        ("sp(4): rho=x:١:reg" + LABEL_TAIL, "١:reg"),
        ("sp(4): rho=x:-1:reg" + LABEL_TAIL, "-1:reg"),
        ("sp(4): rho=x:+1:reg" + LABEL_TAIL, "+1:reg"),
        pytest.param("sp(4): rho=x:" + "1" * 5000 + ":reg" + LABEL_TAIL, "1" * 5000, id="5000 digits"),
        ("sp(2): rho=trivial:0:irr" + LABEL_TAIL, "rho=trivial:0:irr"),
        ("sp(4): rho=a|b:1:reg" + LABEL_TAIL, "rho=a|b"),
        ("sp(4): rho=x :1:reg" + LABEL_TAIL, "rho=x :1:reg"),
        ("sp(٤): rho=trivial:0:reg" + LABEL_TAIL, "٤)"),
    ],
)
def test_label_numbers_and_descriptors_are_parse_errors(text, at):
    with pytest.raises(ParseError) as err:
        parse_label(text)
    assert text[err.value.offset:].startswith(at)


def test_descriptor_ids_with_outer_whitespace_are_refused():
    """Such an id cannot round-trip: the label grammar strips field values."""
    for rho_id in (" x", "x ", "\tx", " "):
        with pytest.raises(ValueError, match="whitespace"):
            RhoDescriptor(1, True, rho_id)
    label = make_label(sp(1), RhoDescriptor(1, True, "a b"), parse_symbol("[0|]"), EMPTY_SYMBOL)
    assert parse_label(format_label(label)) == label


@pytest.mark.parametrize(
    "text, at",
    [
        ("sp(2): rho=trivial:0:reg ; L=[1|] ; L'=[|] ; foo=1", "foo=1"),
        ("sp(2): rho=trivial:0:reg ; bar=2 ; L=[1|] ; L'=[|] ; foo=1", "bar=2"),
        ("sp(2): rho=trivial:0:reg ; L=[1|]", ""),
        ("sp(2): L=[1|] ; L'=[|]", ""),
        ("sp(2): rho=trivial:0 ; L=[1|] ; L'=[|]", "rho=trivial:0 "),
        ("sp(2): rho=trivial:0:maybe ; L=[1|] ; L'=[|]", "rho=trivial:0:maybe"),
        ("o+(3): rho=trivial:0:reg ; L=[1|] ; L'=[0|] ; eps=x", "eps=x"),
        ("sp(2): rho=trivial:0:reg ; L=[1|] ; L'=[|] ;  L=[|]", "L=[|]"),
        ("sp(2): rho=trivial:0:reg ; L=[1|] ; L'", "L'"),
        ("sp(2): rho=trivial:0:reg ; L=[1,x|] ; L'=[|]", "x|]"),
        ("sp(2): rho=trivial:0:reg ; L=  1|] ; L'=[|]", "1|]"),
        ("sp(2): rho=trivial:0:reg ; L=[1|] ; L'=[|0|]", "|0|]"),
        ("sp(2): rho=trivial:0:reg ; L=[1|] ; L'=[٢|]", "٢|]"),
    ],
)
def test_label_parse_error_offsets_point_into_the_label(text, at):
    with pytest.raises(ParseError) as err:
        parse_label(text)
    assert text[err.value.offset:].startswith(at)
    if not at:
        assert err.value.offset == len(text)


def test_each_rule_is_written_once():
    """The bound refusal lives in ``core`` alone, residues mod 4 are read
    only in ``core`` and ``catalog`` (``q % 4``), a defect residue only in
    ``core`` (``SymbolFamily.admits_defect``), and the defect layers and the
    band are read only in ``core`` and ``theta`` (whose one partner scan
    serves both theta directions).  The band relation is written once:
    ``_band`` is called only by ``in_B`` and ``in_G``, and its two strip
    tests, ``_interlaces`` and ``close_dominates``, are never called by
    name, only passed to it.  A ``DefectClassMismatch`` is built
    only in ``_SlotKind.entry`` and the even orthogonal tower check of
    ``first_occurrence_unipotent``.  The slot sign equation is called only
    by label validation and the one label walk, ``enumerate_labels``, and
    the pair condition ``in_G`` only by ``_VariantRun.slot_gate``, which
    only ``_VariantRun.candidate_gate``, the one wiring of label slots to
    its keys, calls.  Which slot of the fixed label each key reads has one
    spelling, ``GGPCase.fixed_slots``, read only by ``candidate_gate`` and
    by ``_VariantRun.gate_mask``, the one walk of a label list's gate rows,
    and no other code picks a slot of the fixed label; ``oracle`` names
    neither gate method, and its gate-slot index ``_gate_slots`` is gone.
    The variant sweep's memo key is built in one place,
    ``_VariantRun.groups``, the only reader of a profile row's interned
    profiles and the only place that writes a rank sign; ``oracle`` keys
    its memo only by the keys ``groups`` gives and builds none itself,
    looks nothing up by a tuple in the sweep, and the per-family
    ``signature`` is gone.  A walk's universe, its right lists in one
    list, is built only by ``_VariantRun.profile_row``, the one place that
    flattens a list of label lists, and its (right profile, rank sign) mask
    tables only by ``groups``.
    ``ggp`` reads group families only in ``GGPCase``, and
    builds a ``CaseMismatch`` only where a pair is validated and where a
    branch table picks its case; ``cli`` names no case itself and reads
    the square class of -1, by ``--eps-minus-one`` or by ``--q``, only in
    ``_context``.  Six facts have one spelling each: the row sort key
    (``core._ROWS``), the failure line of a verify report
    (``VerificationReport.__str__``), the sp-source check
    (``theta._fiber_source``), the odd-slot index (``catalog._slot_kh``),
    the layer check (``core._defect_layer``, the one builder of layers) and
    the sign check (``catalog._check_sign``).  ``Symbol(...)``, whose
    constructor checks rows from outside, is called only by the two symbol
    constants: every other symbol comes from rows checked once, when they
    were built or parsed, through ``core._symbol_from_rows``, the one home
    of the per-symbol reducedness test.  A value is made (``_new``) only there, in
    ``theta.FirstOccurrence``, built once per f1 check, and in ``core._value``,
    which stores the fields of the other checked values.
    Each theta fiber is built by one call of ``theta._fiber``, made only by
    ``theta_fiber``, ``brute_first_occurrence``, ``verify_f1`` and
    ``verify_orientation``; the rank generator, its single-rank call and
    the oracle's scan wrapper it replaced are gone.  A copy anywhere else
    fails here."""
    sources = {p.name: p.read_text() for p in Path(catalog.__file__).parent.glob("*.py")}
    assert sum(text.count("over the enumeration bound") for text in sources.values()) == 1
    assert "over the enumeration bound" in sources["core.py"]
    assert {name for name, text in sources.items() if "% 4" in text} == {"core.py", "catalog.py"}
    assert {name for name, text in sources.items() if "defect % 4" in text} == {"core.py"}
    layers = re.compile(r"\b(_band|_defect_layer)\b")
    assert {name for name, text in sources.items() if layers.search(text)} == {"core.py", "theta.py"}
    # a defect-class refusal is built by the slot rule and by the tower check alone
    built = re.compile(r"(?<!class )\bDefectClassMismatch\(")
    counts = {name: len(built.findall(text)) for name, text in sources.items()}
    assert {name: n for name, n in counts.items() if n} == {"catalog.py": 1, "theta.py": 1}
    assert "DefectClassMismatch(" in inspect.getsource(catalog._SlotKind.entry)
    assert "DefectClassMismatch(" in inspect.getsource(theta.first_occurrence_unipotent)
    # one band relation, called by in_B and in_G alone, and its strip tests only passed to it
    for name in ("_interlaces", "close_dominates"):
        assert not any(re.search(rf"(?<!def )\b{name}\(", text) for text in sources.values()), name
    band = re.compile(r"(?<!def )\b_band\(")
    calls = [len(band.findall(inspect.getsource(home))) for home in (theta.in_B, theta.in_G)]
    assert all(calls)
    assert {name: len(band.findall(text)) for name, text in sources.items() if band.search(text)} == {
        "theta.py": sum(calls)
    }
    # one label walk, one pair-condition check and one wiring of its keys
    for name, module, homes in (
        ("_signs_fit", "catalog.py", (catalog.make_label, catalog.enumerate_labels)),
        ("in_G", "ggp.py", (ggp._VariantRun.slot_gate,)),
        ("slot_gate", "ggp.py", (ggp._VariantRun.candidate_gate,)),
    ):
        called = re.compile(rf"(?<!def )\b{name}\(")
        counts = {file: len(called.findall(text)) for file, text in sources.items()}
        assert {file: n for file, n in counts.items() if n} == {module: len(homes)}
        assert all(called.search(inspect.getsource(home)) for home in homes)
    # one fixed-slot table, read where a key is wired and where its row is keyed,
    # the only two places that pick a slot of the fixed label
    readers = {"ggp.py:_VariantRun.candidate_gate", "ggp.py:_VariantRun.gate_mask"}
    for hit, homes in (
        (lambda node: node.attr == "fixed_slots", {"ggp.py:GGPCase.__init__", *readers}),
        (lambda node: node.attr in ("lam", "lam_prime") and getattr(node.value, "id", "") == "fixed", readers),
    ):
        found = {
            f"{name}:{home}"
            for name, text in sources.items()
            for home in _homes(text, lambda node: isinstance(node, ast.Attribute) and hit(node))
        }
        assert found == homes
    assert not re.search(r"\b(candidate_gate|slot_gate)\b", sources["oracle.py"])
    assert not any("_gate_slots" in text for text in sources.values())
    # one memo key: only _VariantRun.groups reads the interned profiles of a
    # profile row, and the sweep keys its memo only by the keys groups gives
    found = {
        f"{name}:{home}"
        for name, text in sources.items()
        for home in _homes(text, lambda node: isinstance(node, ast.Name) and node.id.endswith("profiles"))
    }
    assert found == {"ggp.py:_VariantRun.profile_row", "ggp.py:_VariantRun.groups"}
    sweep = ast.parse(inspect.getsource(oracle.verify_variant_uniqueness))
    memo = [
        node.slice if isinstance(node, ast.Subscript) else node.args[0]
        for node in ast.walk(sweep)
        if (isinstance(node, ast.Subscript) and getattr(node.value, "id", "") == "classes")
        or (isinstance(node, ast.Call) and ast.unparse(node.func) == "classes.get")
    ]
    assert len(memo) == 2 and all(getattr(key, "id", "") == "key" for key in memo)
    bound = [node for node in ast.walk(sweep) if isinstance(node, ast.For) and "key" in ast.unparse(node.target)]
    assert [ast.unparse(node.iter).split("(")[0] for node in bound] == ["run.groups"]
    assert not any(re.search(r"\b(signature|_profile)\(", text) for text in sources.values())
    # one home each for the universe, the mask tables and the rank sign; no key built in the sweep
    for hit, homes in (
        (_flattens, {"ggp.py:_VariantRun.profile_row"}),
        (lambda node: isinstance(node, ast.Name) and node.id == "tables", {"ggp.py:_VariantRun.groups"}),
        (
            lambda node: isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.Compare) and isinstance(node.right, ast.Compare),
            {"ggp.py:_VariantRun.groups"},
        ),
    ):
        assert {f"{name}:{home}" for name, text in sources.items() for home in _homes(text, hit)} == homes
    assert not re.search(r"\b(chain|from_iterable)\(", sources["oracle.py"])
    for node in ast.walk(sweep):  # an annotation builds nothing
        if isinstance(node, ast.AnnAssign):
            node.annotation = ast.Constant(None)
    assert not [
        ast.unparse(node)
        for node in ast.walk(sweep)
        if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple))
        or (isinstance(node, ast.Call) and getattr(node.func, "attr", "") in ("get", "setdefault")
            and any(isinstance(arg, ast.Tuple) for arg in node.args))
    ]
    # each case carries its own facts, and the CLI resolves its context once
    assert sources["ggp.py"].count("GroupFamily.") == inspect.getsource(ggp.GGPCase).count("GroupFamily.") > 0
    built = re.compile(r"(?<!class )\bCaseMismatch\(")
    counts = {name: len(built.findall(text)) for name, text in sources.items()}
    assert {name: n for name, n in counts.items() if n} == {"ggp.py": 2}
    assert all(built.search(inspect.getsource(home)) for home in (ggp._VariantRun.pairs, ggp.branch_decomposition))
    assert not re.search(r"""["'](fj|bessel)["']""", sources["cli.py"])
    context = inspect.getsource(cli._context)
    for name in ("eps_minus_one", "q"):
        read = re.compile(rf"\bargs\.{name}\b")
        assert len(read.findall(sources["cli.py"])) == len(read.findall(context)) > 0, name
    # one row key, one report text, one sp-source check, one odd-slot index,
    # one layer check and one sign check
    for spelling, home in (
        ('attrgetter("row_a", "row_b")', core),
        (": expected ", oracle.VerificationReport.__str__),
        ('_SP_TYPE.entry("first"', theta._fiber_source),
        ("defect {defect} layer", core._defect_layer),
        ("must be +1 or -1, got", catalog._check_sign),
    ):
        assert sum(text.count(spelling) for text in sources.values()) == 1, spelling
        assert spelling in inspect.getsource(home), spelling
    odd_index = re.compile(r"\(abs\(.*\) - 1\) // 2")
    assert {name: len(odd_index.findall(text)) for name, text in sources.items() if odd_index.search(text)} == {
        "catalog.py": 1
    }
    assert odd_index.search(inspect.getsource(catalog._slot_kh))
    assert not any("_residual_within" in text for text in sources.values())
    # rows from outside are checked by the constructor, other rows once when built
    for callee, homes in (
        ("Symbol", ["core.py:EMPTY_SYMBOL", "core.py:ZERO_SYMBOL"]),
        ("_new", ["core.py:_symbol_from_rows", "core.py:_value", "theta.py:FirstOccurrence.__new__"]),
    ):
        assert sorted(
            f"{name}:{home}" for name, text in sources.items() for home in _calls(callee, text)
        ) == homes, callee
    assert sum(text.count("0 in both rows") for text in sources.values()) == 1
    assert "0 in both rows" in inspect.getsource(core._symbol_from_rows)
    # one fiber builder, one call per fiber, and none of the names it replaced
    assert sorted(f"{name}:{home}" for name, text in sources.items() for home in _calls("_fiber", text)) == [
        "oracle.py:brute_first_occurrence", "oracle.py:verify_f1", "oracle.py:verify_orientation",
        "theta.py:theta_fiber",
    ]
    retired = re.compile(r"\b(_partner_fibers|_partners|_first_fiber)\b")
    assert not any(retired.search(text) for text in sources.values())


def _flattens(node) -> bool:
    """Whether ``node`` is a comprehension that flattens a list of lists:
    its second loop runs over the first loop's target."""
    loops = getattr(node, "generators", [])
    return len(loops) > 1 and getattr(loops[1].iter, "id", None) == getattr(loops[0].target, "id", "")


def _calls(callee: str, text: str) -> list[str]:
    """The top-level function, method (``Class.name``) or assigned name that
    holds each call of ``callee`` in a module's source, once per call."""
    return _homes(
        text, lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", "")) == callee
    )


def _homes(text: str, hit) -> list[str]:
    """The home, as :func:`_calls` names it, of each node of a module's source that ``hit`` accepts."""
    homes = []
    for node in ast.parse(text).body:
        inner = node.body if isinstance(node, ast.ClassDef) else [node]
        for stmt in inner:
            if isinstance(stmt, ast.Assign):
                home = ast.unparse(stmt.targets[0])
            else:
                home = getattr(stmt, "name", "")
            if stmt is not node:
                home = f"{node.name}.{home}"
            homes += (home for sub in ast.walk(stmt) if hit(sub))
    return homes


def test_negative_sizes_and_index_zero_give_empty_results():
    """Negative sizes fall through the loops to empty results, and the
    index-0 even orthogonal cuspidal is the empty symbol (an empty staircase)."""
    assert list(partitions_of(-1)) == []
    assert partition_count(-3) == 0
    assert bipartition_count(-1) == 0
    assert cuspidal_symbol(GroupFamily.O_EVEN, 0) == EMPTY_SYMBOL


def test_vocabulary_tables_are_written_out():
    """Each symbol family's residue and slot sign, as the paper's defect
    classes give them."""
    families = {
        SymbolFamily.SP_UNIPOTENT: (1, PLUS),
        SymbolFamily.O_EVEN_PLUS: (0, PLUS),
        SymbolFamily.O_EVEN_MINUS: (2, MINUS),
    }
    assert {f: (f.defect_residue, f.sign) for f in SymbolFamily} == families


def test_slot_entry_matches_the_residue_tables():
    """Every slot kind gives, for each defect, the family its residue mod 4
    names in the residue-keyed tables written out here, or the same refusal."""
    residues = {
        catalog._ODD: {1: SymbolFamily.SP_UNIPOTENT},
        catalog._EVEN: {0: SymbolFamily.O_EVEN_PLUS, 2: SymbolFamily.O_EVEN_MINUS},
    }
    rules = {catalog._ODD: "not = 1 mod 4", catalog._EVEN: "must be even"}
    groups = {
        GroupFamily.SP: sp(1),
        GroupFamily.O_ODD: o_odd(1, PLUS),
        GroupFamily.O_EVEN: o_even(1, MINUS),
    }
    for family, kinds in catalog._SLOTS.items():
        for position, kind in zip(("first", "second"), kinds):
            for defect in range(-40, 41):
                expected = residues[kind].get(defect % 4)
                for group, where in ((None, ""), (groups[family], f" for {groups[family]}")):
                    if expected is not None:
                        assert kind.entry(position, defect, group) is expected
                        continue
                    with pytest.raises(DefectClassMismatch) as err:
                        kind.entry(position, defect, group)
                    assert str(err.value) == f"{position} symbol defect {defect} {rules[kind]}{where}"
