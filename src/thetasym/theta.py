"""The finite theta correspondence at symbol level.

Whether a unipotent representation of a rank-n symplectic group pairs with
one of a rank-n' even orthogonal group inside the oscillator representation
is a pure symbol condition: the pair of symbols must satisfy a band relation
between transposed staircase-free rows together with a defect equation,

    def(L') = sign - def(L),  with sign +1 on the plus and -1 on the minus tower.

This module implements that membership predicate, the four-way pair
condition governing branching multiplicities (the same band with vertical
strips), the closed-form first-occurrence index and lift for unipotent
symbols, and the cuspidal staircase chains.

First occurrences along a pair of Witt towers come in a small/large branch
pair whose assignment to the two tower signs is genuinely extra data (it
depends on the additive character through the square class of -1).  The
:class:`TowerContext` carries those orientation bits, and
:func:`default_orientation` derives the ones the cuspidal chain fixes.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from math import comb, prod
from typing import Callable, NamedTuple

from .catalog import (
    MINUS,
    PLUS,
    GroupFamily,
    RepLabel,
    Sign,
    _SLOTS,
    _check_sign,
    cuspidal_symbol,
    format_sign,
    kh_of,
    sign_pow,
)
from . import core
from .core import (
    Bipartition,
    Partition,
    Symbol,
    SymbolFamily,
    Value,
    _ROWS,
    _check_bound,
    _symbol_of,
    _value,
    close_dominates,
    defect_rank_offset,
    format_symbol,
    symbol_defect,
    symbol_rank,
    symbol_transpose,
    upsilon,
)
from .errors import DefectClassMismatch

# A (symplectic-type, even-type) symbol pair is exactly the sp slot pair.
_SP_TYPE, _EVEN_TYPE = _SLOTS[GroupFamily.SP]


class TowerContext(NamedTuple):
    """Additive-character-dependent data for first-occurrence questions.

    ``eps_minus_one`` is the square class of -1.  The four orientation slots
    resolve the small/large branch assignments: ``orient_left`` /
    ``orient_right`` are the primary bits of the two labels of a pair, and
    the ``_alt`` bits belong to the twisted partner family.  Concretely:

    * symplectic label: primary = sign of the even orthogonal tower where
      the first occurrence is small; alt = same for the odd towers;
    * orthogonal label: primary = + when the label itself (rather than its
      sign twist) occurs small in the symplectic tower; alt = the same bit
      for the label with its two symbols swapped.

    Unset bits are derived from the cuspidal theta chain whenever the
    label's support is unipotent cuspidal with trivial descriptor, and left
    open otherwise.
    """

    eps_minus_one: Sign = PLUS
    orient_left: Sign | None = None
    orient_right: Sign | None = None
    orient_left_alt: Sign | None = None
    orient_right_alt: Sign | None = None


class FirstOccurrence(Value):
    """First-occurrence index plus the lift there, a symbol of that rank."""

    __slots__ = _fields = ("index", "lift")

    def __new__(cls, index: int, lift: Symbol):
        if symbol_rank(lift) != index:
            raise ValueError(f"lift {lift!r} has rank {symbol_rank(lift)}, not the index {index}")
        return _value(cls, index, lift)


# ---------------------------------------------------------------------------
# Pair membership predicates
# ---------------------------------------------------------------------------


def _interlaces(inner: Partition, outer: Partition) -> bool:
    """Whether outer_1 >= inner_1 >= outer_2 >= inner_2 >= ... (zero padded).

    That is, outer / inner is a horizontal strip, which is the band
    relation between the two transposed partitions (Macdonald I.1).  The
    work grows with the number of parts, not with their size.
    """
    n = len(inner)
    if not n <= len(outer) <= n + 1:
        return False
    for i, x in enumerate(inner):
        if x > outer[i] or (i + 1 < len(outer) and x < outer[i + 1]):
            return False
    return True


def _band(bp: Bipartition, bp2: Bipartition, sign: Sign, strip: Callable) -> bool:
    """The band relation on staircase-free rows; ``strip(inner, outer)`` tests outer / inner.

    :func:`in_B` passes :func:`_interlaces` (a horizontal strip) and
    :func:`in_G` passes ``core.close_dominates`` (a vertical strip).  The
    band is symmetric in ``bp`` and ``bp2``: swapping them only swaps its
    two strip conditions.  The defect checks are the caller's.
    """
    up, lo = bp
    up2, lo2 = bp2
    if sign == PLUS:
        return strip(lo, up2) and strip(lo2, up)
    return strip(up, lo2) and strip(up2, lo)


def in_B(lam: Symbol, lam_prime: Symbol, sign: Sign) -> bool:
    """Symbol-level occurrence in the oscillator representation.

    ``lam`` is a symplectic-type symbol (defect = 1 mod 4), ``lam_prime``
    even-type; ``sign`` picks the tower.  Plus tower: the transposed rows
    must satisfy

        t(lower') <= t(upper),  t(lower) <= t(upper'),  def' = 1 - def,

    where <= is the band relation; the minus tower swaps the row roles and
    uses def' = -1 - def.  The band relation t(a) <= t(b) says that b / a
    is a horizontal strip, so it is read as interlacing of the
    untransposed rows and no partition is transposed.  The source and sign
    are refused by :func:`_fiber_source`, as in :func:`theta_fiber`.
    """
    _fiber_source(lam, sign)
    d2 = symbol_defect(lam_prime)
    _EVEN_TYPE.entry("second", d2)
    if d2 != sign - symbol_defect(lam):
        return False
    return _band(upsilon(lam), upsilon(lam_prime), sign, _interlaces)


class GVariant(Enum):
    EVEN_PLUS = "even+"
    EVEN_MINUS = "even-"
    ODD_MINUS = "odd-"
    ODD_PLUS = "odd+"


def in_G(lam: Symbol, lam_prime: Symbol) -> GVariant | None:
    """Which of the four branching-gate sets contains the pair, if any.

    Each set is the :func:`in_B` band read with vertical strips and the
    tower sign flipped, on the second symbol's rows transposed (which only
    swaps them) or as given.  With e the sign of d = def(lam), the
    transposed reading has def' = d - e and the direct one def' = -e - d.
    Pairs with d = 0 or outside every defect gate return ``None``.
    """
    d, d2 = symbol_defect(lam), symbol_defect(lam_prime)
    if d == 0:
        return None
    e = PLUS if d > 0 else MINUS
    bp, bp2 = upsilon(lam), upsilon(lam_prime)
    if d2 == d - e and _band(bp, bp2[::-1], -e, close_dominates):
        return GVariant.EVEN_PLUS if d > 0 else GVariant.ODD_MINUS
    if d2 == -e - d and _band(bp, bp2, e, close_dominates):
        return GVariant.EVEN_MINUS if d > 0 else GVariant.ODD_PLUS
    return None


@cache
def _inside(p: Partition, size: int) -> tuple[Partition, ...]:
    """Partitions q of ``size`` with p_1 >= q_1 >= p_2 >= ...: ``p`` minus a horizontal strip.

    Only first parts that leave a fillable rest are tried, so the work
    follows the output, not the size of the parts.  Kept per (p, size).
    """
    if not p:
        return ((),) if size == 0 else ()
    rest = p[1:]
    room, low = sum(rest), (rest[0] if rest else 0)
    return tuple(
        (first,) + q if first else ()
        for first in range(max(low, size - room), min(p[0], size - room + low) + 1)
        for q in _inside(rest, size - first)
    )


@cache
def _strips(p: Partition) -> int:
    """How many q make p / q a horizontal strip: prod (p_i - p_(i+1) + 1), p padded with one 0."""
    return prod(a - b + 1 for a, b in zip(p, p[1:] + (0,)))


def _fiber(source: Symbol, sign: Sign, ranks: range) -> tuple[int | None, list[Symbol]]:
    """The first rank of ``ranks`` (step 1) where ``source`` pairs on the ``sign`` tower, and the partners.

    The defect equation is its own inverse and :func:`_band` is symmetric,
    so this serves both directions.  The band is interlacing, so each side
    of a partner is a source row with a horizontal strip added or removed
    (Macdonald I.5): on the plus tower upper' is lower plus a strip and
    lower' is upper minus one, and the minus tower swaps the rows.  The
    strip sizes share out what the target residual leaves, and the partners
    are sorted on rows, the order of the target layer.

    The source is read once: its partner defect, its rows and the least
    residual with room for a strip.  Every rank from that residual on has
    partners, so the answer is the first rank of ``ranks`` at or above it,
    or ``(None, [])`` when there is none.  A fiber whose strip sizes times
    the most cuts and grown rows at one size exceed ``MAX_LAYER_SYMBOLS``
    is refused before any partner is built.  An even-type source whose
    partner defect is not 1 mod 4 has no partners.
    """
    want = sign - symbol_defect(source)
    if want % 2 and not SymbolFamily.SP_UNIPOTENT.admits_defect(want):
        return None, []
    up, lo = upsilon(source)
    grow, shrink = (lo, up) if sign == PLUS else (up, lo)
    total, need = sum(shrink), sum(grow)
    # size of the shrunk row: a strip takes at most shrink[0] boxes off it,
    # and the grown row takes at least sum(grow) of the residual, so a
    # residual below ``low + need`` leaves no room for a partner
    low = total - (shrink[0] if shrink else 0)
    offset = defect_rank_offset(want)
    rank = max(ranks.start, low + need + offset)
    if rank not in ranks:
        return None, []
    residual = rank - offset
    top = min(total, residual - need)
    cuts = (top - low + 1) * _strips(shrink[1:])
    if cuts * _strips(grow) > core.MAX_LAYER_SYMBOLS:
        # a strip of k boxes grows ``grow`` in at most C(k + len(grow), len(grow)) ways
        k = residual - need - low
        grown = min(_strips(grow), comb(k + len(grow), len(grow)))
        subject = f"the rank {rank} fiber of {format_symbol(source)}"
        _check_bound(cuts * grown, subject, "partners", "up to ")
    out = []
    for size in range(low, top + 1):
        # grow plus a strip, to n boxes in all, is what lies inside (n, *grow)
        n = residual - size
        grown = _inside((n,) + grow, n)
        for cut in _inside(shrink, size):
            for row in grown:
                bp = Bipartition(row, cut) if sign == PLUS else Bipartition(cut, row)
                out.append(_symbol_of(bp, want))
    out.sort(key=_ROWS)
    return rank, out


def theta_fiber(lam: Symbol, sign: Sign, target_rank: int) -> list[Symbol]:
    """All even-type symbols of the target rank pairing with ``lam``.

    The same list, in the same order, as :func:`in_B` against every
    even-type symbol of the target rank; :func:`_fiber` builds only the
    members.  Refusals come in this order, before anything is built: a sign
    other than +1 or -1 raises ``ValueError``, a ``lam`` not of symplectic
    type :class:`DefectClassMismatch`, as in ``in_B``, and a fiber that
    may hold more than ``MAX_LAYER_SYMBOLS`` partners ``ValueError``.  The
    first two are :func:`_fiber_source`.
    """
    _fiber_source(lam, sign)
    return _fiber(lam, sign, range(target_rank, target_rank + 1))[1]


def _fiber_source(lam: Symbol, sign: Sign) -> None:
    """The refusals of :func:`in_B` and :func:`theta_fiber` that read only the source and sign."""
    _check_sign(sign, "tower sign")
    _SP_TYPE.entry("first", symbol_defect(lam))


# ---------------------------------------------------------------------------
# Closed-form first occurrence for unipotent symbols
# ---------------------------------------------------------------------------


class ThetaDirection(Enum):
    SP_TO_O = "sp-to-o"
    O_TO_SP = "o-to-sp"


def first_occurrence_unipotent(
    lam: Symbol, sign: Sign, direction: ThetaDirection
) -> FirstOccurrence:
    """Closed-form first-occurrence index and lift for a unipotent symbol.

    Writing (up, lo) for the staircase-free rows of the source and d for
    its defect (the lift defect is sign - d, as in :func:`in_B`):

    * symplectic source, plus tower: index n - up_1 - (d-1)/2, lift rows
      (lo ; up minus its first part);
    * symplectic source, minus tower: index n - lo_1 + (d+1)/2, lift rows
      (lo minus first part ; up);
    * even orthogonal source (tower sign must match the symbol family):
      plus family: index n - up_1 - d/2, lift (lo ; up minus first part);
      minus family: index n - lo_1 + d/2, lift (lo minus first part ; up).

    The lift is always the unique fiber member at the index, so the result
    is resolved.  No tower-orientation data is needed: for unipotent data
    the two towers have *different* closed forms rather than an unknown
    assignment.  A sign other than +1 or -1 raises ``ValueError``.
    """
    _check_sign(sign, "tower sign")
    d = symbol_defect(lam)
    if direction is ThetaDirection.SP_TO_O:
        _SP_TYPE.entry("source", d)
    else:
        tower = _EVEN_TYPE.entry("source", d).sign
        if tower != sign:
            raise DefectClassMismatch(
                f"symbol of defect {d} lives on the o{format_sign(tower)} tower, "
                f"not o{format_sign(sign)}"
            )
    n = symbol_rank(lam)
    up, lo = upsilon(lam)
    # One formula per tower serves both directions: (d - 1) // 2 == d // 2
    # for odd d, and (d + 1) // 2 == d // 2 for even d.  The lift rows are
    # slices of canonical partitions, so they need no validation.
    if sign == PLUS:
        index = n - (up[0] if up else 0) - d // 2
        lift = _symbol_of(Bipartition(lo, up[1:]), sign - d)
    else:
        index = n - (lo[0] if lo else 0) + (d + 1) // 2
        lift = _symbol_of(Bipartition(lo[1:], up), sign - d)
    return FirstOccurrence(index, lift)


class CuspidalThetaVariant(Enum):
    DOWN = "down"
    UP = "up"


def cuspidal_theta(k: int, variant: CuspidalThetaVariant) -> tuple[Symbol, Symbol, Sign]:
    """The cuspidal chain: rank k(k+1) symplectic cuspidal paired down/up.

    DOWN pairs it with the even orthogonal cuspidal of rank k^2 on the tower
    of sign (-1)^k; UP with the rank (k+1)^2 cuspidal on the tower of sign
    (-1)^(k+1).  Returns (symplectic symbol, orthogonal symbol, tower sign).
    """
    j = k if variant is CuspidalThetaVariant.DOWN else k + 1
    sp_symbol, stair = cuspidal_symbol(GroupFamily.SP, k), cuspidal_symbol(GroupFamily.O_EVEN, j)
    o_symbol = symbol_transpose(stair) if k % 2 == 0 else stair
    return sp_symbol, o_symbol, sign_pow(j)


# ---------------------------------------------------------------------------
# Orientation bits derived from the cuspidal chain
# ---------------------------------------------------------------------------


def default_orientation(label: RepLabel) -> Sign | None:
    """The primary orientation bit derivable from the cuspidal chain, or None.

    ``(k, h)`` is the label's :func:`~thetasym.catalog.kh_of`.  Only labels
    with trivial descriptor and unipotent cuspidal support get defaults:

    * symplectic, h = 0: the chain puts the small even-tower occurrence on
      the tower of sign (-1)^k; the odd-tower bit is degenerate;
    * even orthogonal, h = 0: the label occurs small exactly when the sign
      of k agrees with (-1)^|k| (the defect of the small-occurring cuspidal
      staircase); the swapped-slot bit is degenerate;
    * everything else (odd orthogonal sign pairs, swapped-slot data, theta
      shapes with h != 0, nontrivial descriptors): no default.
    """
    k, h = kh_of(label)
    if not label.rho.is_trivial or h != 0:
        return None
    if label.group.family is GroupFamily.SP:
        return sign_pow(k)
    if label.group.family is GroupFamily.O_EVEN and k != 0:
        return sign_pow(k) if k > 0 else -sign_pow(k)
    return None
