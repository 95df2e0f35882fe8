"""The Weil-representation oracle: orthogonal groups built from reflections,
and their Burnside counts against the degrees of the symbols ``in_B`` pairs
with the trivial and det symbols of the orthogonal group."""

import subprocess
import sys
from pathlib import Path

import pytest

import thetasym.cli as cli
import thetasym.weil as weil
from thetasym.catalog import MINUS, PLUS
from thetasym.core import SymbolFamily, enumerate_symbols, parse_symbol
from thetasym.degrees import symbol_degree
from thetasym.theta import in_B
from thetasym.weil import orthogonal_group, reflections, weil_invariants

# (m, Witt sign): the reflections, the greedy generators and the group order at q = 3
SPACES = {(2, PLUS): (2, 2, 4), (2, MINUS): (4, 3, 8), (4, PLUS): (24, 5, 1152), (4, MINUS): (30, 5, 1440)}

# (trivial, det) counts for n = 1, 2, 3 at q = 3
COUNTS = {
    (2, PLUS): [(4, 1), (25, 16), (196, 169)],
    (2, MINUS): [(3, 0), (15, 6), (105, 78)],
    (4, PLUS): [(4, 0), (40, 1), (1015, 169)],
    (4, MINUS): [(4, 0), (39, 0), (924, 78)],
}


def _in_B_degrees(n: int, trivial: str, witt: int) -> int:
    """The sum of ``symbol_degree(lam, 3)`` over the sp-type ``lam`` of rank
    n that ``in_B`` pairs with the symbol ``trivial`` on the tower ``witt``."""
    lam_prime = parse_symbol(trivial)
    layer = enumerate_symbols(n, SymbolFamily.SP_UNIPOTENT)
    return sum(symbol_degree(lam, 3) for lam in layer if in_B(lam, lam_prime, witt))


@pytest.mark.parametrize("m, witt", list(SPACES), ids=["O+2", "O-2", "O+4", "O-4"])
def test_weil_counts_equal_in_B_degree_sums(m, witt):
    """The group comes out of its reflections with the known order, and its
    Burnside counts for n = 1, 2, 3 are the degree sums that ``in_B`` gives:
    the trivial symbol is [n'|0] on O+ and [|n',0] on O-, the det symbol
    [0|n'] on O+ and [n',0|] on O-, n' = m / 2, on the tower of the Witt
    sign."""
    mirrors, generated, order = SPACES[m, witt]
    group, generators = orthogonal_group(m, witt, 3)
    assert (len(reflections(m, witt, 3)), len(generators), len(group)) == (mirrors, generated, order)
    k = m // 2
    trivial, det = (f"[{k}|0]", f"[0|{k}]") if witt == PLUS else (f"[|{k},0]", f"[{k},0|]")
    for n, expected in enumerate(COUNTS[m, witt], 1):
        assert weil_invariants(m, witt, 3, n) == expected
        assert (_in_B_degrees(n, trivial, witt), _in_B_degrees(n, det, witt)) == expected, n


def test_each_reflection_preserves_its_form():
    """A reflection squares to 1 and has det -1 (2 mod 3), and every element
    of the group fixes the form, so a group of the orthogonal group's order
    is that group."""
    for m, witt in SPACES:
        gram = weil._gram(m, witt, 3)
        for g in orthogonal_group(m, witt, 3)[0]:
            transpose = tuple(zip(*g))
            assert weil._times(weil._times(transpose, gram, 3), g, 3) == gram
        for r in reflections(m, witt, 3):
            assert weil._times(r, r, 3) == tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
            assert weil._rank_and_det(r, 3) == (m, 2)


@pytest.mark.parametrize(
    "args, error, text",
    [
        ((3, PLUS, 3, 1), ValueError, "m must be a positive even int, got 3"),
        ((0, PLUS, 3, 1), ValueError, "m must be a positive even int, got 0"),
        ((2, PLUS, 9, 1), ValueError, "q must be an odd prime, got 9"),
        ((2, PLUS, 2, 1), ValueError, "q must be an odd prime, got 2"),
        ((2, 0, 3, 1), ValueError, "witt must be +1 or -1, got 0"),
        ((2, PLUS, 3, -1), ValueError, "n must be at least 0, got -1"),
        ((2.0, PLUS, 3, 1), TypeError, "m must be an int, got 2.0"),
        ((2, PLUS, True, 1), TypeError, "q must be an int, got True"),
        ((4, PLUS, 10**9 + 7, 1), ValueError, "O+(4) over F_1000000007 has 1000000028000000294000001372000002401 vectors"),
        ((6, MINUS, 3, 1), ValueError, "O-(6) over F_3 has 940584960 group matrix entries"),
    ],
)
def test_bad_spaces_are_refused_before_any_vector_is_read(args, error, text, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("a space was built for a refused input")

    monkeypatch.setattr(weil, "_gram", must_not_run)
    with pytest.raises(error) as err:
        weil_invariants(*args)
    assert str(err.value).startswith(text)


def test_the_oracle_stands_apart():
    """The Weil module imports no ``theta``, ``ggp`` or ``oracle`` code, and
    the command line never loads it."""
    child = "import sys; import thetasym.weil; print(*sorted(m for m in sys.modules if m.startswith('thetasym')))"
    src = Path(weil.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", f"import sys; sys.path.insert(0, {str(src)!r}); {child}"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["thetasym", "thetasym.catalog", "thetasym.core", "thetasym.errors", "thetasym.weil"]
    assert "weil" not in Path(cli.__file__).read_text()
