"""Orbit counts of the Weil representation on a finite orthogonal group.

This is an oracle module for :func:`thetasym.theta.in_B` at the level of
groups.  It builds the orthogonal group of a small quadratic space and
counts, and reads nothing of :mod:`thetasym.ggp`, :mod:`thetasym.oracle` or
:mod:`thetasym.theta`; no command-line verb loads it.

In the Schrödinger model of the dual pair (Sp_{2n}, O(V)), with dim V = m
even, O(V) permutes the functions on V^n.  So the O(V)-invariants of the
Weil representation have the dimension of the number of O(V)-orbits on V^n,
by Burnside (1/|O|) sum_g q^{n dim ker(g - 1)}, and the det-isotypic part
the same sum weighted by det g.  Sp_{2n} acts on the invariants as the
theta lift of the trivial (or det) character, a sum of distinct unipotent
representations, so each count is the sum of the degrees of the symbols
that ``in_B`` pairs with the trivial (or det) symbol of O(V).

The group is built over the prime field F_q from reflections
(Cartan-Dieudonné): the reflections, one per anisotropic line, are taken in
order, and each one that the group built so far does not hold becomes a
generator.  At q = 3, O+(2), O-(2), O+(4) and O-(4) have 2, 4, 24 and 30
reflections, and 2, 3, 5 and 5 of them generate groups of order 4, 8,
1152 and 1440.  Every count is an exact :class:`~fractions.Fraction`, so a
count that is not an integer shows.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import isqrt

from .catalog import Sign, _check_sign
from .core import _check_bound, _check_int

Matrix = tuple[tuple[int, ...], ...]


def _check_space(m: int, witt: Sign, q: int) -> None:
    """Refuse a dimension that is not a positive even int, a Witt sign other
    than +1 or -1, a space whose vector scan exceeds the enumeration bound,
    a field size that is not an odd prime, and then a group whose matrix
    entries exceed the bound, all before any vector is read."""
    _check_int(m, "m")
    _check_int(q, "q")
    _check_sign(witt, "witt")
    if m < 2 or m % 2:
        raise ValueError(f"m must be a positive even int, got {m}")
    k, space = m // 2, f"O{'+' if witt > 0 else '-'}({m}) over F_{q}"
    _check_bound(q**m, space, "vectors")
    if q < 3 or q % 2 == 0 or any(q % p == 0 for p in range(3, isqrt(q) + 1, 2)):
        raise ValueError(f"q must be an odd prime, got {q}")
    order = 2 * q ** (k * (k - 1)) * (q**k - witt)
    for i in range(1, k):
        order *= q ** (2 * i) - 1
    _check_bound(order * m * m, space, "group matrix entries")


def _gram(m: int, witt: Sign, q: int) -> Matrix:
    """The Gram matrix of m / 2 hyperbolic planes; for witt = -1 the last one
    is the anisotropic plane x^2 - d y^2, with d a non-square mod q."""
    gram = [[0] * m for _ in range(m)]
    for i in range(0, m, 2):
        gram[i][i + 1] = gram[i + 1][i] = 1
    if witt < 0:
        d = next(d for d in range(2, q) if pow(d, (q - 1) // 2, q) == q - 1)
        gram[m - 2][m - 1] = gram[m - 1][m - 2] = 0
        gram[m - 2][m - 2], gram[m - 1][m - 1] = 1, -d % q
    return tuple(map(tuple, gram))


def _times(a: Matrix, b: Matrix, q: int) -> Matrix:
    columns = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, column)) % q for column in columns) for row in a)


def _rank_and_det(a: Matrix, q: int) -> tuple[int, int]:
    """The rank of a square matrix over F_q and its determinant mod q (0 when singular)."""
    rows, rank, det = [list(row) for row in a], 0, 1
    for column in range(len(rows)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][column]), None)
        if pivot is None:
            det = 0
            continue
        if pivot != rank:
            rows[rank], rows[pivot], det = rows[pivot], rows[rank], -det
        det = det * rows[rank][column] % q
        inverse = pow(rows[rank][column], -1, q)
        for r in range(rank + 1, len(rows)):
            factor = rows[r][column] * inverse % q
            rows[r] = [(x - factor * y) % q for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank, det


def reflections(m: int, witt: Sign, q: int) -> list[Matrix]:
    """The reflections of the quadratic space of dimension ``m`` and Witt sign
    ``witt`` over F_q, one per anisotropic line, in the order of the line's
    first vector with leading entry 1.

    The reflection in v is x -> x - 2 B(x, v) / B(v, v) v, for the bilinear
    form B of :func:`_gram`.
    """
    _check_space(m, witt, q)
    gram, out = _gram(m, witt, q), []
    for v in product(range(q), repeat=m):
        if next((x for x in v if x), 0) != 1:
            continue
        gv = [sum(g * x for g, x in zip(row, v)) % q for row in gram]
        norm = sum(x * y for x, y in zip(v, gv)) % q
        if norm:
            c = 2 * pow(norm, -1, q)
            out.append(tuple(tuple(((i == j) - c * v[i] * gv[j]) % q for j in range(m)) for i in range(m)))
    return out


def orthogonal_group(m: int, witt: Sign, q: int) -> tuple[set[Matrix], list[Matrix]]:
    """The orthogonal group of :func:`reflections`' space, and the reflections
    that generate it, each taken in order when the group so far lacks it.

    A new generator multiplies every element held so far, and each new
    element is multiplied by every generator, so the set ends closed under
    all of them.
    """
    group = {tuple(tuple(int(i == j) for j in range(m)) for i in range(m))}
    generators = []
    for r in reflections(m, witt, q):
        if r in group:
            continue
        generators.append(r)
        new = [g for g in (_times(g, r, q) for g in list(group)) if g not in group]
        group.update(new)
        while new:
            g = new.pop()
            for s in generators:
                h = _times(g, s, q)
                if h not in group:
                    group.add(h)
                    new.append(h)
    return group, generators


@cache
def _tally(m: int, witt: Sign, q: int) -> Counter:
    """How many elements of the group have each (dim ker(g - 1), det g), det as +1 or -1."""
    group, _ = orthogonal_group(m, witt, q)
    tally = Counter()
    for g in group:
        moved = tuple(tuple((x - (i == j)) % q for j, x in enumerate(row)) for i, row in enumerate(g))
        det = _rank_and_det(g, q)[1]
        tally[m - _rank_and_det(moved, q)[0], 1 if det == 1 else -1] += 1
    return tally


def weil_invariants(m: int, witt: Sign, q: int, n: int) -> tuple[Fraction, Fraction]:
    """The dimensions of the trivial and the det-isotypic parts of the Weil
    representation of (Sp_{2n}, O(V)) on O(V), dim V = ``m`` of Witt sign
    ``witt`` over F_q: the Burnside counts (1/|O|) sum_g q^{n dim ker(g - 1)}
    and (1/|O|) sum_g det(g) q^{n dim ker(g - 1)}.

    The group is built once per space (:func:`orthogonal_group`).
    """
    _check_int(n, "n")
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    _check_space(m, witt, q)
    tally = _tally(m, witt, q)
    order = sum(tally.values())
    trivial = sum(count * q ** (n * fixed) for (fixed, _), count in tally.items())
    det = sum(sign * count * q ** (n * fixed) for (fixed, sign), count in tally.items())
    return Fraction(trivial, order), Fraction(det, order)
