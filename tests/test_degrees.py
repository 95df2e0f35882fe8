"""The degree oracle: Carter's symbol degrees and the Jordan-decomposition
degrees of trivial-descriptor labels, checked against known values, against
integrality and against Olsson's hook formula."""

import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from pathlib import Path

import pytest

import thetasym.cli as cli
import thetasym.degrees as degrees
from thetasym.catalog import (
    MINUS,
    PLUS,
    RhoDescriptor,
    enumerate_labels,
    eps_minus_one_from_q,
    make_label,
    o_even,
    o_odd,
    sp,
)
from thetasym.core import EMPTY_SYMBOL, SymbolFamily, enumerate_symbols, parse_symbol, symbol_rank
from thetasym.degrees import label_degree, o_degree, symbol_degree

QS = (3, 5, 7, 9)


def test_sp4_3_unipotent_degrees():
    """The six unipotent characters of Sp4(3), the cuspidal theta_10 among them."""
    degrees_ = sorted(symbol_degree(s, 3) for s in enumerate_symbols(2, SymbolFamily.SP_UNIPOTENT))
    assert degrees_ == [1, 6, 15, 15, 24, 81]
    assert all(type(d) is Fraction for d in degrees_)


@pytest.mark.parametrize("q", QS)
def test_the_six_labels_of_sp2(q):
    """SL2(q): the trivial and Steinberg characters, the two halves of each
    reducible principal series, (q+1)/2, and of each reducible discrete
    series, (q-1)/2; each label under the square class of -1 that q gives."""
    labels = list(enumerate_labels(sp(1), eps_minus_one_from_q(q)))
    assert len(labels) == 6
    half = Fraction(1, 2)
    assert sorted(label_degree(label, q) for label in labels) == sorted(
        [1, q, (q + 1) * half, (q + 1) * half, (q - 1) * half, (q - 1) * half]
    )


@pytest.mark.parametrize("q", QS)
def test_trivial_and_steinberg(q):
    """The trivial symbol [n|] gives 1 and the Steinberg symbol [n,...,0|n,...,1]
    gives q^(n^2); on the even side the trivial [n|0] gives 1 and det [0|n]
    as well."""
    for n in range(7):
        top = ",".join(map(str, range(n, -1, -1)))
        assert symbol_degree(parse_symbol(f"[{n}|]"), q) == 1
        assert symbol_degree(parse_symbol(f"[{top}|{top[:-2]}]"), q) == q ** (n * n)
        if n:
            assert o_degree(parse_symbol(f"[{n}|0]"), q) == o_degree(parse_symbol(f"[0|{n}]"), q) == 1


def test_every_label_of_rank_at_most_4_has_an_integral_degree():
    """Every trivial-descriptor label of ranks 0-4, at q = 3, 5, 7 and 9,
    each q under its own eps(-1), has a positive integral degree: 6,420
    labels, or 4,796 without the eps flag of an odd orthogonal label, which
    does not change the degree.  It holds because an even label's Witt type
    is the product of its slot family signs."""
    labels = 0
    distinct = set()
    for q in QS:
        eps = eps_minus_one_from_q(q)
        for n in range(5):
            groups = [sp(n)] + [family(n, sign) for family in (o_odd, o_even) for sign in (PLUS, MINUS)]
            for group in groups:
                for label in enumerate_labels(group, eps):
                    degree = label_degree(label, q)
                    assert degree.denominator == 1 and degree > 0, (label, q)
                    labels += 1
                    distinct.add((q, label[:4]))
    assert (labels, len(distinct)) == (6420, 4796)


def _hook_degree(s, q: int, family: SymbolFamily) -> Fraction:
    """Olsson's hook formula, a test reference only: q^a |G| / (2^b' prod over
    hooks (q^l - 1) prod over cohooks (q^l + 1)), with |G| without its power
    of q and the type D order (q^n - eps) prod_{i<n}(q^{2i} - 1) on the even
    side, where it gives the degree on the full orthogonal group."""
    rows, entries = (s.row_a, s.row_b), s.row_a + s.row_b
    m, n = len(entries), symbol_rank(s)
    a = sum(min(x, y) for x, y in combinations(entries, 2)) - sum(comb(m - 2 * j, 2) for j in range(1, m // 2 + 1))
    hooks = cohooks = 1
    for row, other in (rows, rows[::-1]):
        for x in row:
            hooks *= prod(q ** (x - y) - 1 for y in range(x) if y not in row)
            cohooks *= prod(q ** (x - y) + 1 for y in range(x) if y not in other)
    order = prod(q ** (2 * i) - 1 for i in range(1, n + 1))
    if family is not SymbolFamily.SP_UNIPOTENT:
        order = order // (q ** (2 * n) - 1) * (q**n - family.sign)
    b = (m - 1) // 2 - len(set(s.row_a) & set(s.row_b))
    return Fraction(q**a * order, hooks * cohooks) / Fraction(2) ** b


def test_the_hook_formula_agrees():
    """Olsson's hook formula gives Carter's degree on every sp-type symbol of
    rank <= 6, and the orthogonal degree (twice Carter's on a degenerate
    symbol) on every even-type symbol of ranks 1-6, at q = 3, 5 and 7."""
    counts = {}
    for family in SymbolFamily:
        symbols = [s for n in range(family is not SymbolFamily.SP_UNIPOTENT, 7) for s in enumerate_symbols(n, family)]
        counts[family] = len(symbols)
        degree = symbol_degree if family is SymbolFamily.SP_UNIPOTENT else o_degree
        for s, q in ((s, q) for s in symbols for q in (3, 5, 7)):
            assert _hook_degree(s, q, family) == degree(s, q), (s, q)
    assert counts == {SymbolFamily.SP_UNIPOTENT: 178, SymbolFamily.O_EVEN_PLUS: 154, SymbolFamily.O_EVEN_MINUS: 148}
    degenerate = parse_symbol("[1|1]")
    assert (symbol_degree(degenerate, 3), o_degree(degenerate, 3)) == (3, 6)


def test_a_non_trivial_descriptor_or_bad_q_is_refused():
    label = make_label(sp(1), RhoDescriptor(1, True, "r"), parse_symbol("[0|]"), EMPTY_SYMBOL)
    with pytest.raises(ValueError, match="only a trivial descriptor"):
        label_degree(label, 3)
    with pytest.raises(TypeError):
        symbol_degree(parse_symbol("[1|]"), 3.0)
    with pytest.raises(ValueError):
        symbol_degree(parse_symbol("[1|]"), 1)


def test_the_oracle_stands_apart():
    """The degree module imports neither ``ggp`` nor ``oracle``, and the
    command line never loads it."""
    child = "import sys; import thetasym.degrees; print(*sorted(m for m in sys.modules if m.startswith('thetasym')))"
    src = Path(degrees.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", f"import sys; sys.path.insert(0, {str(src)!r}); {child}"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["thetasym", "thetasym.catalog", "thetasym.core", "thetasym.degrees", "thetasym.errors"]
    assert "degrees" not in Path(cli.__file__).read_text()
