import copy
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thetasym.core as core
import thetasym.theta as theta
from thetasym.core import (
    Bipartition,
    EMPTY_SYMBOL,
    MAX_LAYER_SYMBOLS,
    Symbol,
    SymbolFamily,
    _defect_layer,
    admissible_defects,
    bipartition_count,
    bipartitions_of,
    close_dominates,
    count_symbols,
    defect_rank_offset,
    enumerate_symbols,
    format_symbol,
    parse_symbol,
    partition,
    partition_count,
    partitions_of,
    symbol_defect,
    symbol_normalize,
    symbol_rank,
    symbol_transpose,
    upsilon,
    upsilon_inverse,
)
from thetasym.catalog import MINUS, PLUS, GroupFamily, cuspidal_symbol
from thetasym.errors import NormalizationError, ParseError
from thetasym.theta import ThetaDirection, first_occurrence_unipotent

from symbol_helpers import forbid_layer_builds, partition_transpose, random_symbol, shift_symbol


partitions_strategy = st.lists(st.integers(1, 9), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def symbols_strategy():
    def build(data):
        up, lo, defect_choice = data
        defects = [1, -3, 5, 0, 2, -2, 4, -4]
        return upsilon_inverse(Bipartition(partition(up), partition(lo)), defects[defect_choice])

    return st.tuples(
        partitions_strategy, partitions_strategy, st.integers(0, 7)
    ).map(build)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def test_partition_transpose_examples():
    assert partition_transpose(()) == ()
    assert partition_transpose((2, 2)) == (2, 2)
    assert partition_transpose((3, 1)) == (2, 1, 1)


@given(partitions_strategy)
def test_partition_transpose_involutive(p):
    assert partition_transpose(partition_transpose(p)) == p
    assert sum(partition_transpose(p)) == sum(p)


def test_close_dominates_examples():
    assert close_dominates((1,), (1,))
    assert not close_dominates((), (2,))
    assert close_dominates((3, 1), (3, 2))


def test_close_dominates_matches_zero_padded_reference():
    def reference(lam, mu):
        n = max(len(lam), len(mu))
        padded_lam = lam + (0,) * (n - len(lam))
        padded_mu = mu + (0,) * (n - len(mu))
        return all(m - 1 <= x <= m for x, m in zip(padded_lam, padded_mu))

    parts = [p for n in range(8) for p in partitions_of(n)]
    for lam in parts:
        for mu in parts:
            assert close_dominates(lam, mu) == reference(lam, mu), (lam, mu)


@given(partitions_strategy, partitions_strategy)
def test_close_dominates_size_band(lam, mu):
    if close_dominates(lam, mu):
        nonzero = sum(1 for x in mu if x > 0)
        assert sum(mu) - nonzero <= sum(lam) <= sum(mu)


def test_partition_count_matches_generator():
    for n in range(12):
        assert partition_count(n) == sum(1 for _ in partitions_of(n))
    for n in range(9):
        assert bipartition_count(n) == sum(1 for _ in bipartitions_of(n))


def test_partition_rejects_bad_input():
    with pytest.raises(NormalizationError):
        partition((1, 2))
    with pytest.raises(NormalizationError):
        partition((-1,))


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------


def test_rank_defect_examples():
    assert symbol_rank(parse_symbol("[|2,1,0]")) == 2
    assert symbol_rank(parse_symbol("[4,3,2,1,0|]")) == 6
    assert symbol_rank(EMPTY_SYMBOL) == 0
    assert symbol_defect(parse_symbol("[4,3,2,1,0|]")) == 5
    assert symbol_defect(parse_symbol("[|2,1,0]")) == -3
    assert symbol_defect(EMPTY_SYMBOL) == 0


def test_normalize_examples():
    assert symbol_normalize((1, 0), (0,)) == Symbol((0,), ())
    assert symbol_normalize((), ()) == EMPTY_SYMBOL
    assert symbol_normalize((3, 1), (2,)) == Symbol((3, 1), (2,))


def test_normalize_rejects_bad_rows():
    with pytest.raises(NormalizationError):
        symbol_normalize((1, 1), ())
    with pytest.raises(NormalizationError):
        symbol_normalize((0, 1), ())
    with pytest.raises(NormalizationError):
        Symbol((1, 0), (0,))  # not reduced


def test_transpose_examples():
    assert symbol_transpose(Symbol((1,), (0,))) == Symbol((0,), (1,))
    assert symbol_transpose(parse_symbol("[|2,1,0]")) == parse_symbol("[2,1,0|]")


def test_upsilon_examples():
    assert upsilon(parse_symbol("[2,0|1]")) == ((1,), (1,))
    assert upsilon(parse_symbol("[4,3,2,1,0|]")) == ((), ())
    assert upsilon(EMPTY_SYMBOL) == ((), ())


def test_upsilon_inverse_examples():
    assert upsilon_inverse(((1,), (1,)), 1) == parse_symbol("[2,0|1]")
    assert upsilon_inverse(((), ()), -3) == parse_symbol("[|2,1,0]")
    assert upsilon_inverse(((), ()), 0) == EMPTY_SYMBOL


@pytest.mark.parametrize(
    "bp, defect, longest",
    [
        (((), ()), 3_000_001, 3_000_001),
        (((), ()), -10**12, 10**12),
        (((1,) * 1_000_001, ()), 0, 1_000_001),
        (((), (1,) * 999_999), 2, 1_000_001),
    ],
    ids=["defect", "negative defect", "parts", "parts plus defect"],
)
def test_upsilon_inverse_refuses_an_oversized_row_before_building(bp, defect, longest, monkeypatch):
    """A row of more than ``MAX_LAYER_SYMBOLS`` entries is refused by its
    length, before any staircase is built."""
    build = core.upsilon_inverse
    forbid_layer_builds(monkeypatch)
    with pytest.raises(ValueError) as err:
        build(bp, defect)
    assert str(err.value) == (
        f"a row of the defect {defect} symbol has {longest} entries, "
        f"over the enumeration bound MAX_LAYER_SYMBOLS = {MAX_LAYER_SYMBOLS}"
    )


@pytest.mark.parametrize("defect", [1.5, "1", True, None])
def test_upsilon_inverse_refuses_a_defect_that_is_not_an_int(defect, monkeypatch):
    """A float, string, bool or missing defect is a ``TypeError`` that names
    the argument, raised before any staircase is built."""
    build = core.upsilon_inverse
    forbid_layer_builds(monkeypatch)
    with pytest.raises(TypeError) as err:
        build(((), ()), defect)
    assert str(err.value) == f"defect must be an int, got {defect!r}"


def test_upsilon_inverse_bound_is_on_the_longer_row(monkeypatch):
    """The bound reads the exact length of the longer row: five parts fit
    in rows of 5 and 4 entries at defect 1, but need 5 and 6 at defect -1."""
    monkeypatch.setattr(core, "MAX_LAYER_SYMBOLS", 5)
    assert upsilon_inverse(((), ()), 5) == parse_symbol("[4,3,2,1,0|]")
    assert upsilon_inverse(((1,) * 5, ()), 1) == parse_symbol("[5,4,3,2,1|3,2,1,0]")
    for bp, defect in ((((), ()), 6), (((1,) * 5, ()), -1)):
        with pytest.raises(ValueError, match=f"^a row of the defect {defect} symbol has 6 entries"):
            upsilon_inverse(bp, defect)


def test_upsilon_inverse_rank_shift():
    for defect in (-4, -3, -2, 0, 1, 2, 4, 5):
        s = upsilon_inverse(((2, 1), (1,)), defect)
        assert symbol_rank(s) == 4 + defect_rank_offset(defect)
        assert symbol_defect(s) == defect


@settings(max_examples=300)
@given(symbols_strategy())
def test_symbol_roundtrips(s):
    assert symbol_transpose(symbol_transpose(s)) == s
    assert symbol_rank(symbol_transpose(s)) == symbol_rank(s)
    assert symbol_defect(symbol_transpose(s)) == -symbol_defect(s)
    bp = upsilon(s)
    assert upsilon_inverse(bp, symbol_defect(s)) == s
    assert upsilon(symbol_transpose(s)) == Bipartition(bp.lower, bp.upper)


@settings(max_examples=300)
@given(symbols_strategy(), st.integers(0, 5))
def test_shift_invariance(s, steps):
    raw = shift_symbol(s, steps)
    again = symbol_normalize(*raw)
    assert again == s
    # rank and defect can be read off the raw rows through one more normalize
    assert symbol_rank(again) == symbol_rank(s)
    assert symbol_defect(again) == symbol_defect(s)


def test_normalize_idempotent_random():
    rng = random.Random(7)
    for _ in range(500):
        s = random_symbol(rng)
        again = symbol_normalize(s.row_a, s.row_b)
        assert again == s


# ---------------------------------------------------------------------------
# derived data kept on symbols, against a reference written from the rows
# ---------------------------------------------------------------------------


def _reference_upsilon(row_a, row_b):
    """Subtract the staircase (m-1, ..., 0) from each row, then trim zeros."""

    def strip(row):
        parts = [x - (len(row) - 1 - i) for i, x in enumerate(row)]
        while parts and parts[-1] == 0:
            parts.pop()
        return tuple(parts)

    return strip(row_a), strip(row_b)


def _check_derived_data(s):
    up, lo = _reference_upsilon(s.row_a, s.row_b)
    for _ in range(2):  # the second read comes from the symbol's own cache
        assert upsilon(s) == (up, lo)
        t = symbol_transpose(s)
        assert (t.row_a, t.row_b) == (s.row_b, s.row_a)
        assert symbol_transpose(t) == s
        assert upsilon(t) == (lo, up)


def test_derived_data_matches_reference_exhaustive():
    for family in SymbolFamily:
        for rank in range(9):
            for warm in enumerate_symbols(rank, family):
                _check_derived_data(warm)
                _check_derived_data(Symbol(warm.row_a, warm.row_b))
                _check_derived_data(parse_symbol(format_symbol(warm)))


@settings(max_examples=300)
@given(st.randoms(use_true_random=False))
def test_derived_data_matches_reference_random(rng):
    _check_derived_data(random_symbol(rng))


def test_derived_data_is_not_structural():
    warm = enumerate_symbols(3, SymbolFamily.SP_UNIPOTENT)[1]
    cold = Symbol(warm.row_a, warm.row_b)
    upsilon(warm), symbol_transpose(warm)
    assert cold == warm and hash(cold) == hash(warm)
    assert not (cold < warm) and not (warm < cold)
    assert repr(cold) == repr(warm)
    assert format_symbol(cold) == format_symbol(warm)
    assert pickle.loads(pickle.dumps(warm)) == warm
    assert copy.deepcopy(warm) == warm


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_examples():
    assert enumerate_symbols(1, SymbolFamily.SP_UNIPOTENT) == [
        parse_symbol("[1|]"),
        parse_symbol("[1,0|1]"),
    ]
    assert len(enumerate_symbols(2, SymbolFamily.SP_UNIPOTENT)) == 6
    assert enumerate_symbols(0, SymbolFamily.O_EVEN_PLUS) == [EMPTY_SYMBOL]


def test_enumerate_matches_bipartition_counts():
    for family in SymbolFamily:
        for rank in range(7):
            symbols = enumerate_symbols(rank, family)
            assert len(symbols) == count_symbols(rank, family)
            assert len(symbols) == len(set(symbols))
            for defect in admissible_defects(rank, family):
                block = _defect_layer(rank, defect)
                assert len(block) == bipartition_count(rank - defect_rank_offset(defect))
                for s in block:
                    assert symbol_rank(s) == rank
                    assert symbol_defect(s) == defect


def test_enumerate_is_deterministic():
    a = enumerate_symbols(5, SymbolFamily.O_EVEN_MINUS)
    b = enumerate_symbols(5, SymbolFamily.O_EVEN_MINUS)
    assert a == b


def test_symbol_order_is_row_order():
    """Symbols sort as their (row_a, row_b) pairs, which the pair layer's
    order keys rely on; the list is shuffled so the check is not vacuous."""
    symbols = [s for r in range(7) for f in SymbolFamily for s in enumerate_symbols(r, f)]
    random.Random(7).shuffle(symbols)
    assert sorted(symbols) == sorted(symbols, key=lambda s: (s.row_a, s.row_b))


def test_enumerate_returns_fresh_list():
    expected = list(enumerate_symbols(4, SymbolFamily.O_EVEN_PLUS))
    first = enumerate_symbols(4, SymbolFamily.O_EVEN_PLUS)
    first.reverse()
    first.append(EMPTY_SYMBOL)
    assert enumerate_symbols(4, SymbolFamily.O_EVEN_PLUS) == expected
    first.clear()
    assert enumerate_symbols(4, SymbolFamily.O_EVEN_PLUS) == expected
    sp_layer = enumerate_symbols(3, SymbolFamily.SP_UNIPOTENT)
    sp_layer.clear()
    assert enumerate_symbols(3, SymbolFamily.SP_UNIPOTENT) != []


def test_admissible_defects_match_a_written_out_reference():
    """Every d of the family's residue whose staircase offset floor(d^2/4)
    fits the rank, ordered by |d|, positive first."""
    for family in SymbolFamily:
        residue = {SymbolFamily.SP_UNIPOTENT: 1, SymbolFamily.O_EVEN_PLUS: 0,
                   SymbolFamily.O_EVEN_MINUS: 2}[family]
        for rank in range(401):
            expected = sorted(
                (d for d in range(-41, 42) if d % 4 == residue and d * d // 4 <= rank),
                key=lambda d: (abs(d), d < 0),
            )
            assert admissible_defects(rank, family) == expected, (family, rank)
    for d in range(-41, 42):
        offset = (d // 2) ** 2 if d % 2 == 0 else (d + 1) // 2 * ((d - 1) // 2)
        assert defect_rank_offset(d) == offset == d * d // 4


def _reference_partitions(n, top):
    """Partitions of n with parts at most ``top``, in no particular order."""
    if n == 0:
        return [()]
    return [(k, *rest) for k in range(1, min(n, top) + 1) for rest in _reference_partitions(n - k, k)]


def test_defect_layers_match_upsilon_inverse_of_reference_bipartitions():
    for family in SymbolFamily:
        for rank in range(13):
            for defect in admissible_defects(rank, family):
                n = rank - defect_rank_offset(defect)
                expected = sorted(
                    upsilon_inverse(Bipartition(up, lo), defect)
                    for a in range(n + 1)
                    for up in _reference_partitions(a, a)
                    for lo in _reference_partitions(n - a, n - a)
                )
                layer = _defect_layer(rank, defect)
                assert len(layer) == len(expected)
                for got, want in zip(layer, expected):
                    assert (got.row_a, got.row_b) == (want.row_a, want.row_b)
                    assert upsilon(got) == upsilon(want)


def test_symbol_rows_report_their_first_fault():
    with pytest.raises(NormalizationError, match=r"negative entry -1 in first row \(3, -1, -2\)"):
        Symbol((3, -1, -2), ())
    with pytest.raises(NormalizationError, match=r"second row \(1, 2, -1\) not strictly decreasing"):
        Symbol((), (1, 2, -1))
    with pytest.raises(NormalizationError, match="negative entry -1 in second row"):
        Symbol((), (-1,))


def test_staircase_row_refuses_what_it_cannot_check():
    """A staircase row is checked once, when it is built: a partition of
    more parts than the row has room for is refused, not cut short, and
    one that is not weakly decreasing fails the row check.  ``__wrapped__``
    bypasses the per-process cache."""
    build = core._staircase_row.__wrapped__
    assert build((2, 1), 3) == (4, 2, 0)
    with pytest.raises(NormalizationError, match=r"partition \(3, 2, 1\) has more than 2 parts"):
        build((3, 2, 1), 2)
    with pytest.raises(NormalizationError, match=r"staircase row \(2, 2\) not strictly decreasing"):
        build((1, 2), 2)


def test_built_symbols_are_the_checked_ones():
    """Every symbol the library builds from rows checked once is one the
    constructor, which checks its rows again, accepts and equals: each
    layer symbol of rank <= 8 and its transpose, each partner of the fiber
    scan and each first-occurrence lift from a source of rank <= 6, and
    each cuspidal staircase of index <= 6."""
    built = []
    for family in SymbolFamily:
        for rank in range(9):
            for s in enumerate_symbols(rank, family):
                built += (s, symbol_transpose(s))
    for family in SymbolFamily:
        sp_source = family is SymbolFamily.SP_UNIPOTENT
        direction = ThetaDirection.SP_TO_O if sp_source else ThetaDirection.O_TO_SP
        for rank in range(7):
            for s in enumerate_symbols(rank, family):
                for sign in (PLUS, MINUS):
                    built += (p for t in range(7) for p in theta._fiber(s, sign, range(t, t + 1))[1])
                    if sp_source or sign == family.sign:
                        built.append(first_occurrence_unipotent(s, sign, direction).lift)
    built += (cuspidal_symbol(family, k) for family in GroupFamily for k in range(7))
    for s in built:
        assert Symbol(s.row_a, s.row_b) == s, s


#: A fresh interpreter counts the row checks of ``verify_f1(5)`` and the
#: staircase rows it caches.
_COUNT_CHECKS = """
import sys
sys.path.insert(0, sys.argv[1])
from thetasym import core, oracle
calls = 0
check = core._check_row
def counted(row, name):
    global calls
    calls += 1
    check(row, name)
core._check_row = counted
assert oracle.verify_f1(5).passed
print(calls, core._staircase_row.cache_info().currsize)
"""


def test_each_staircase_row_is_checked_once():
    """``verify_f1(5)`` runs the row check once per staircase row it builds,
    not again in every symbol that shares the row.  It must run in a child
    process, whose caches start empty."""
    src = Path(core.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _COUNT_CHECKS, str(src)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["45", "45"]


def test_each_parsed_row_is_checked_once(monkeypatch):
    """``symbol_normalize`` checks each row before the shift, which keeps it
    valid, and builds without checking it again."""
    calls = []
    check = core._check_row
    monkeypatch.setattr(core, "_check_row", lambda row, name: calls.append(row) or check(row, name))
    s = parse_symbol("[3,1,0|2,0]")
    assert calls == [(3, 1, 0), (2, 0)]
    assert (s.row_a, s.row_b) == ((2, 0), (1,))


def test_oversized_layer_refused_before_building(monkeypatch):
    forbid_layer_builds(monkeypatch)
    with pytest.raises(ValueError) as err:
        _defect_layer(64, 1)
    assert f"layer has {bipartition_count(64)} symbols" in str(err.value)
    assert f"MAX_LAYER_SYMBOLS = {MAX_LAYER_SYMBOLS}" in str(err.value)
    # a huge rank is refused before its (as huge) list of defects is built
    monkeypatch.setattr(core, "admissible_defects", None)
    for family in SymbolFamily:
        with pytest.raises(ValueError, match="layer has more than [0-9]+ symbols"):
            enumerate_symbols(10**6, family)


def test_layer_bound_is_on_the_exact_layer_size(monkeypatch):
    build = core._defect_layer.__wrapped__  # bypass the per-process cache
    monkeypatch.setattr(core, "MAX_LAYER_SYMBOLS", bipartition_count(6))
    assert len(build(6, 0)) == bipartition_count(6)
    forbid_layer_builds(monkeypatch)
    with pytest.raises(ValueError, match=f"layer has {bipartition_count(7)} symbols"):
        build(7, 0)


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------


def test_parse_format_roundtrip():
    for text in ("[4,3,2,1,0|]", "[|2,1,0]", "[|]", "[2,0|1]"):
        assert format_symbol(parse_symbol(text)) == text


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_symbol("2,0|1]")
    assert err.value.offset == 0
    with pytest.raises(ParseError):
        parse_symbol("[2,0|1|]")
    with pytest.raises(ParseError):
        parse_symbol("[2,x|1]")
    with pytest.raises(NormalizationError):
        parse_symbol("[1,1|]")


def test_parse_rejects_superscript_digits():
    with pytest.raises(ParseError) as err:
        parse_symbol("[²|]")
    assert err.value.offset == 1


def test_parse_rejects_non_ascii_digits():
    with pytest.raises(ParseError):
        parse_symbol("[١|]")


def test_parse_refuses_overlong_numbers():
    with pytest.raises(ParseError, match="more than 18 digits") as err:
        parse_symbol("[" + "9" * 5000 + "|]")
    assert err.value.offset == 1
    assert parse_symbol("[" + "9" * 18 + "|]").row_a == (10**18 - 1,)


@pytest.mark.parametrize("entry", ["+1", "1_0", "-1", "٤", " "])
def test_row_entries_follow_the_integer_rule(entry):
    with pytest.raises(ParseError) as err:
        parse_symbol(f"[2,{entry}|]")
    assert err.value.offset == 3
