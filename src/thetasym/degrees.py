"""Character degrees of unipotent symbols and of trivial-descriptor labels.

This is an oracle module: it reads symbols and labels, and nothing in
:mod:`thetasym.ggp` or :mod:`thetasym.oracle`, so it can check their
branching tables without sharing their code.  No command-line verb loads it.

Degrees are exact :class:`~fractions.Fraction` values at a given field size
q, so a caller can see a degree that is not an integer.

* :func:`symbol_degree` is Carter's degree of the unipotent character of a
  symbol (S | T) of rank n with m = |S| + |T| entries (*Finite Groups of Lie
  Type*, 13.8).  With N = prod_{a>b in S}(q^a - q^b) prod_{a>b in T}(q^a -
  q^b) prod_{a in S, b in T}(q^a + q^b) and D = q^{sum_{j>=1} C(m-2j, 2)}
  prod_{a in S, T} prod_{h=1}^{a}(q^{2h} - 1), an odd m (types B and C)
  gives prod_{i=1}^{n}(q^{2i} - 1) N / (2^{(m-1)/2} D), and an even m (type
  D, with eps = + iff the defect is 0 mod 4) gives (q^n - eps)
  prod_{i=1}^{n-1}(q^{2i} - 1) N / (2^c D), where c = (m-2)/2, or m/2 for a
  degenerate symbol (S = T).  Rank 0 gives 1.
* :func:`o_degree` is the degree on the full orthogonal group: twice the
  special orthogonal degree on a degenerate symbol of positive rank.
* :func:`label_degree` is the degree of a trivial-descriptor label by
  Lusztig's Jordan decomposition, the index of the disconnected centralizer
  times the degrees of the two slot symbols.  A symplectic label's
  centralizer is Sp_{2n1} x O^{e'}_{2n2}, with e' the family sign of
  ``lam_prime``; an odd orthogonal one's Sp_{2n1} x Sp_{2n2}; an even
  orthogonal one's O^{e1}_{2n1} x O^{e2}_{2n2} inside O^w_{2n}, where the
  Witt type w = e1 e2 is the product of the slot family signs (eps(-1)
  times the group's sign, by the label's sign equation).  Orders are their
  parts prime to q: |Sp_{2n}| = prod_{i=1}^{n}(q^{2i} - 1) and |O^e_{2m}| =
  2(q^m - e) prod_{i<m}(q^{2i} - 1) for m >= 1, and 1 for m = 0.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, prod

from .catalog import GroupFamily, RepLabel, Sign
from .core import Symbol, SymbolFamily, _check_int, symbol_defect, symbol_rank


def _check_q(q: int) -> None:
    _check_int(q, "q")
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")


def _sp_order(n: int, q: int) -> int:
    """|Sp_{2n}(q)| without its power of q."""
    return prod(q ** (2 * i) - 1 for i in range(1, n + 1))


def _o_order(m: int, eps: Sign, q: int) -> int:
    """|O^eps_{2m}(q)| without its power of q; 1 for m = 0."""
    return 2 * (q**m - eps) * _sp_order(m - 1, q) if m else 1


def _family(s: Symbol) -> SymbolFamily:
    return next(family for family in SymbolFamily if family.admits_defect(symbol_defect(s)))


def symbol_degree(s: Symbol, q: int) -> Fraction:
    """Carter's degree of the unipotent character of ``s`` at field size ``q``.

    An even-type symbol gives its special orthogonal degree.
    """
    _check_q(q)
    n = symbol_rank(s)
    if n == 0:
        return Fraction(1)
    rows, entries = (s.row_a, s.row_b), s.row_a + s.row_b
    m = len(entries)
    numerator = prod(q**a - q**b for row in rows for a, b in combinations(row, 2))
    numerator *= prod(q**a + q**b for a in s.row_a for b in s.row_b)
    denominator = q ** sum(comb(m - 2 * j, 2) for j in range(1, m // 2 + 1))
    denominator *= prod(_sp_order(a, q) for a in entries)
    if m % 2:
        return Fraction(_sp_order(n, q) * numerator, 2 ** ((m - 1) // 2) * denominator)
    eps = _family(s).sign
    c = m // 2 if s.row_a == s.row_b else (m - 2) // 2
    return Fraction((q**n - eps) * _sp_order(n - 1, q) * numerator, 2**c * denominator)


def o_degree(s: Symbol, q: int) -> Fraction:
    """The degree of an even-type symbol on the full orthogonal group."""
    degenerate = s.row_a == s.row_b and symbol_rank(s) > 0
    return symbol_degree(s, q) * (2 if degenerate else 1)


def label_degree(label: RepLabel, q: int) -> Fraction:
    """The degree of a trivial-descriptor label at field size ``q``; see the module docstring."""
    _check_q(q)
    if not label.rho.is_trivial:
        raise ValueError(f"only a trivial descriptor has a degree here, got {label.rho.id!r}")
    lam, lam_prime = label.lam, label.lam_prime
    n, n1, n2 = label.group.rank, symbol_rank(lam), symbol_rank(lam_prime)
    family = label.group.family
    if family is GroupFamily.SP:
        index = Fraction(_sp_order(n, q), _sp_order(n1, q) * _o_order(n2, _family(lam_prime).sign, q))
        return index * symbol_degree(lam, q) * o_degree(lam_prime, q)
    if family is GroupFamily.O_ODD:
        index = Fraction(_sp_order(n, q), _sp_order(n1, q) * _sp_order(n2, q))
        return index * symbol_degree(lam, q) * symbol_degree(lam_prime, q)
    e1, e2 = _family(lam).sign, _family(lam_prime).sign
    index = Fraction(_o_order(n, e1 * e2, q), _o_order(n1, e1, q) * _o_order(n2, e2, q))
    return index * o_degree(lam, q) * o_degree(lam_prime, q)
