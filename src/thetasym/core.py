"""Partitions, bipartitions and two-row symbols.

A *symbol* is a pair of strictly decreasing sequences of nonnegative
integers.  Symbols are taken up to the shift equivalence generated by

    (a_1, ..., a_r | b_1, ..., b_t)  ~  (a_1+1, ..., a_r+1, 0 | b_1+1, ..., b_t+1, 0),

and every equivalence class has a unique *reduced* representative in which
the two rows do not both contain the entry 0.  Two class invariants drive
everything downstream:

    rank(L) = sum(row_a) + sum(row_b) - floor(((|row_a| + |row_b| - 1) / 2)^2)
    def(L)  = |row_a| - |row_b|

Symbols of rank n are classified by the residue of the defect mod 4: the
class 1 parametrizes the unipotent representations of the rank-n symplectic
group (and, with an extra sign, of the odd orthogonal group), while the
classes 0 and 2 parametrize the split and non-split even orthogonal groups.

Removing the staircase (m-1, m-2, ..., 0) from each row turns a symbol into
an ordered pair of partitions (a *bipartition*); together with the defect
this is a bijection, which is how symbols of a given rank and defect are
enumerated here.

Partitions are plain tuples of weakly decreasing positive integers, with
trailing zeros trimmed; comparisons pad with zeros on the fly.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from itertools import repeat
from operator import add, attrgetter, ge, gt, le, lt
from typing import Iterable, Iterator, NamedTuple

from .errors import NormalizationError, ParseError

Partition = tuple[int, ...]

#: Every build that grows with its input - a layer, a sweep, a theta fiber,
#: a staircase - is refused over this size before it is built; the bound
#: is read at each check, so raise it for larger tables.  The variant
#: sweep's family count has its own bound, ``oracle.MAX_VARIANT_FAMILIES``.
MAX_LAYER_SYMBOLS = 1_000_000


def _check_bound(size: int, subject: str, unit: str, more: str = "",
                 name: str = "MAX_LAYER_SYMBOLS", bound: int | None = None) -> None:
    """The one ``ValueError`` of every bounded build, raised if ``size`` is over
    ``bound``, the bound called ``name``: by default MAX_LAYER_SYMBOLS, read at each call."""
    if bound is None:
        bound = MAX_LAYER_SYMBOLS
    if size > bound:
        raise ValueError(
            f"{subject} has {more}{size} {unit}, over the enumeration bound {name} = {bound}"
        )


def _check_int(value, name: str) -> None:
    """The one refusal of an argument that is not an int, or is a bool, as ``TypeError``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {value!r}")


def partition(parts: Iterable[int]) -> Partition:
    """Validate and canonicalize a partition of int parts: weakly decreasing, zeros trimmed."""
    try:
        p = tuple(parts)
    except TypeError:
        raise NormalizationError(f"partition {parts} is not a tuple of int") from None
    if not all(type(x) is int for x in p):
        raise NormalizationError(f"partition {p} is not a tuple of int")
    while p and p[-1] == 0:
        p = p[:-1]
    for i, x in enumerate(p):
        if x < 0:
            raise NormalizationError(f"negative part {x} in partition {p}")
        if i + 1 < len(p) and p[i + 1] > x:
            raise NormalizationError(f"parts not weakly decreasing in {p}")
    return p


def close_dominates(lam: Partition, mu: Partition) -> bool:
    """Whether mu / lam is a vertical strip: mu_i - 1 <= lam_i <= mu_i, zero padded.

    It is the twin of ``theta._interlaces``, the horizontal strip.  A part
    of ``lam`` beyond the length of ``mu`` would face a 0, and the parts of
    ``mu`` beyond the length of ``lam`` face a 0 and so must be at most 1;
    as ``mu`` is weakly decreasing its first such part decides.
    """
    if len(lam) > len(mu):
        return False
    for li, mi in zip(lam, mu):
        if not (mi - 1 <= li <= mi):
            return False
    return len(mu) == len(lam) or mu[len(lam)] <= 1


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n in decreasing lexicographic order, largest part first."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(max_part, n)
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


@cache
def partition_count(n: int) -> int:
    """Number of partitions of n, via the Euler pentagonal recurrence."""
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * partition_count(n - g1)
        if g2 <= n:
            total += sign * partition_count(n - g2)
        k += 1
    return total


class Bipartition(NamedTuple):
    """Ordered pair of partitions; the staircase-free image of a symbol."""

    upper: Partition
    lower: Partition


@cache
def _partitions(n: int) -> tuple[Partition, ...]:
    """:func:`partitions_of` of n, kept as one tuple for the life of the process."""
    return tuple(partitions_of(n))


def bipartitions_of(n: int) -> Iterator[Bipartition]:
    """All bipartitions of total size n."""
    for a in range(n, -1, -1):
        lows = _partitions(n - a)
        for up in _partitions(a):
            for lo in lows:
                yield Bipartition(up, lo)


def bipartition_count(n: int) -> int:
    """|P_2(n)|, computed from partition counts (independent of the generator)."""
    return sum(partition_count(a) * partition_count(n - a) for a in range(n + 1))


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------


def _check_row(row: tuple[int, ...], name: str) -> None:
    """The one row check: int entries (a bool is refused), strictly decreasing, nonnegative."""
    if not all(type(x) is int for x in row):
        raise NormalizationError(f"{name} row {row!r} is not a tuple of int")
    if all(map(gt, row, row[1:])) and (not row or row[-1] >= 0):
        return
    # Find the first fault in order, for the message.
    for i, x in enumerate(row):
        if x < 0:
            raise NormalizationError(f"negative entry {x} in {name} row {row}")
        if i + 1 < len(row) and row[i + 1] >= x:
            raise NormalizationError(f"{name} row {row} not strictly decreasing")


_set = object.__setattr__
_new = object.__new__


def _value(cls, *values):
    """A new ``cls`` holding ``values`` in its ``_fields`` order: the store of a :class:`Value`."""
    value = _new(cls)
    for name, field in zip(cls._fields, values):
        _set(value, name, field)
    return value


class Value:
    """An immutable record of the attributes named in ``_fields``.

    The record rule: a ``Value`` is a record whose constructor checks its
    arguments, or one that mutates (``VerificationReport``, the one
    exception); a plain record is a ``typing.NamedTuple``.

    Each subclass lists its fields in ``_fields`` (and in ``__slots__``) and
    writes ``__new__``, its one constructor, which checks its arguments and stores
    them with :func:`_value`; a symbol (:func:`_symbol_from_rows`) and
    ``theta.FirstOccurrence``, built per check of a sweep, set their two fields
    directly.  No ``__init__`` can refill a built value.  Equality holds only between
    instances of one class, field by field; the hash is the hash of the field tuple,
    and the ``repr`` is ``Class(field=value, ...)``.  Assigning or deleting an
    attribute raises ``AttributeError``.  Pickling and copying rebuild through ``__new__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple()))
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return (self.__class__, self._astuple())


def _by_fields(op):
    """An ordering method: ``op`` on the field tuples, within one class."""

    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(self._astuple(), other._astuple())
        return NotImplemented

    return compare


class OrderedValue(Value):
    """A :class:`Value` ordered by its field tuple, within one class."""

    __slots__ = ()
    __lt__, __le__, __gt__, __ge__ = map(_by_fields, (lt, le, gt, ge))


class Symbol(OrderedValue):
    """Reduced two-row symbol.

    The constructor checks rows from outside: tuples of int, strictly
    decreasing and nonnegative; :func:`_symbol_from_rows` then insists on
    the reduced representative.  Use :func:`symbol_normalize` to reduce
    raw row data.  Equality, hashing and ordering are structural on the
    reduced form, so symbols can live in sets and sorted tables.

    Data derived from the rows - :func:`upsilon` and
    :func:`symbol_transpose` - is computed at most once per instance and
    kept in the private slots below.  It takes no part in equality, hashing,
    ordering, ``repr`` or pickling.
    """

    __slots__ = ("row_a", "row_b", "_upsilon", "_transpose")
    _fields = ("row_a", "row_b")

    def __new__(cls, row_a: tuple[int, ...], row_b: tuple[int, ...]):
        for row, name in ((row_a, "first"), (row_b, "second")):
            if type(row) is not tuple:
                raise NormalizationError(f"{name} row {row!r} is not a tuple of int")
            _check_row(row, name)
        return _symbol_from_rows(row_a, row_b)

    # Symbols are hashed and compared in every gate lookup, so these two
    # skip the generic field tuple.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.row_a == other.row_a and self.row_b == other.row_b
        return NotImplemented

    def __hash__(self):
        return hash((self.row_a, self.row_b))

    def _astuple(self) -> tuple:
        return (self.row_a, self.row_b)

    def __repr__(self):
        return f"Symbol({format_symbol(self)!r})"


def _symbol_from_rows(row_a: tuple[int, ...], row_b: tuple[int, ...]) -> Symbol:
    """The one builder of a :class:`Symbol`, of checked rows: it runs the
    per-symbol reducedness test and stores the rows."""
    if row_a and row_b and row_a[-1] == 0 and row_b[-1] == 0:
        raise NormalizationError(f"symbol {row_a}|{row_b} is not reduced (0 in both rows)")
    s = _new(Symbol)
    _set(s, "row_a", row_a)
    _set(s, "row_b", row_b)
    return s


def _keep(s: Symbol, slot: str, value):
    """Store derived data on a (frozen) symbol and return it."""
    _set(s, slot, value)
    return value


EMPTY_SYMBOL = Symbol((), ())

#: Canonical rank-0 symbol of defect 1 (the trivial slot of a symplectic-type
#: factor; the empty symbol has defect 0 and fills the even-type slot).
ZERO_SYMBOL = Symbol((0,), ())

#: Sort key of a list of symbols on rows, the order of every defect layer.
_ROWS = attrgetter("row_a", "row_b")


def symbol_normalize(row_a: Iterable[int], row_b: Iterable[int]) -> Symbol:
    """Reduce raw rows: strip one 0 from each row and shift down while possible."""
    try:
        a = tuple(row_a)
    except TypeError:
        raise NormalizationError(f"first row {row_a!r} is not a tuple of int") from None
    try:
        b = tuple(row_b)
    except TypeError:
        raise NormalizationError(f"second row {row_b!r} is not a tuple of int") from None
    _check_row(a, "first")
    _check_row(b, "second")
    while a and b and a[-1] == 0 and b[-1] == 0:
        a = tuple(x - 1 for x in a[:-1])
        b = tuple(x - 1 for x in b[:-1])
    return _symbol_from_rows(a, b)


def symbol_rank(s: Symbol) -> int:
    # floor of the square of the half-integer (m-1)/2, not the square of its
    # floor: the two differ for even m, and only the former is shift invariant.
    m = len(s.row_a) + len(s.row_b)
    return sum(s.row_a) + sum(s.row_b) - ((m - 1) ** 2) // 4


def symbol_defect(s: Symbol) -> int:
    return len(s.row_a) - len(s.row_b)


def symbol_transpose(s: Symbol) -> Symbol:
    """Swap the two rows; rank is preserved, defect is negated.

    The partner is built once, of rows already checked, and the two
    symbols keep each other, so transposing twice returns ``s`` itself.
    """
    try:
        return s._transpose
    except AttributeError:
        pass
    t = _keep(s, "_transpose", _symbol_from_rows(s.row_b, s.row_a))
    _keep(t, "_transpose", s)
    return t


def upsilon(s: Symbol) -> Bipartition:
    """Subtract the staircase from each row and trim zeros.

    Entry ``a_i`` (1-indexed) maps to ``a_i - (m - i)`` where m is the row
    length, so the bottom entry is kept as is.  Computed once per symbol.
    """
    try:
        return s._upsilon
    except AttributeError:
        pass
    m1, m2 = len(s.row_a), len(s.row_b)
    up = partition(a - (m1 - 1 - i) for i, a in enumerate(s.row_a))
    lo = partition(b - (m2 - 1 - i) for i, b in enumerate(s.row_b))
    return _keep(s, "_upsilon", Bipartition(up, lo))


def defect_rank_offset(defect: int) -> int:
    """Rank of the staircase part: floor(d^2 / 4), which is (d/2)^2 for even d."""
    return defect * defect // 4


def upsilon_inverse(bp: Bipartition | tuple[Partition, Partition], defect: int) -> Symbol:
    """The unique reduced symbol with the given defect mapping to ``bp``.

    Row lengths are the minimal ones compatible with the defect, which is
    exactly what reducedness requires.  The validated bipartition is kept on
    the new symbol as its :func:`upsilon`.  A non-int defect raises ``TypeError``, and a
    row of more than ``MAX_LAYER_SYMBOLS`` entries ``ValueError``, before any is built.
    """
    _check_int(defect, "defect")
    up, lo = bp = Bipartition(partition(bp[0]), partition(bp[1]))
    longest = max(0, len(lo), len(up) - defect, -defect) + max(defect, 0)
    _check_bound(longest, f"a row of the defect {defect} symbol", "entries")
    return _symbol_of(bp, defect)


def _symbol_of(bp: Bipartition, defect: int) -> Symbol:
    """:func:`upsilon_inverse` of a bipartition of canonical partitions.

    The symbol keeps ``bp`` as its :func:`upsilon`, set in place; its rows
    come from :func:`_staircase_row`, so symbols that share a row share one
    tuple for it, checked once.
    """
    up, lo = bp
    m2 = max(0, len(lo), len(up) - defect, -defect)
    s = _symbol_from_rows(_staircase_row(up, m2 + defect), _staircase_row(lo, m2))
    _set(s, "_upsilon", bp)
    return s


@cache
def _staircase_row(p: Partition, m: int) -> tuple[int, ...]:
    """``p`` padded with zeros to length m, plus the staircase (m-1, ..., 0);
    built and checked once: a ``p`` of more than m parts, or not weakly
    decreasing, raises ``NormalizationError``."""
    if len(p) > m:
        raise NormalizationError(f"partition {p} has more than {m} parts")
    row = tuple(map(add, p + (0,) * (m - len(p)), range(m - 1, -1, -1)))
    _check_row(row, "staircase")
    return row


class SymbolFamily(Enum):
    """Defect residue classes mod 4, keyed by the groups they parametrize.

    Each family carries its ``defect_residue`` and its slot ``sign``
    (-1)^(defect/2), which for an even family is also its theta tower.
    SP_UNIPOTENT (residue 1) also parametrizes the odd orthogonal groups:
    their extra sign lives on labels, and no sign equation reads its +.
    """

    SP_UNIPOTENT = "sp"
    O_EVEN_PLUS = "o+"
    O_EVEN_MINUS = "o-"

    def __init__(self, value: str):
        # plain attributes, so the per-symbol residue tests stay cheap
        self.defect_residue, self.sign = {"sp": (1, 1), "o+": (0, 1), "o-": (2, -1)}[value]

    def admits_defect(self, defect: int) -> bool:
        return defect % 4 == self.defect_residue


def admissible_defects(rank: int, family: SymbolFamily) -> list[int]:
    """Defects of the family whose staircase offset fits inside ``rank``.

    Ordered by absolute value, positive before negative; all other defects
    give an empty set of symbols at this rank.
    """
    out = []
    size = 0
    while defect_rank_offset(size) <= rank:
        out += [d for d in ((size, -size) if size else (0,)) if family.admits_defect(d)]
        size += 1
    return out


#: Largest residual rank whose layer size is counted exactly when refusing it.
_COUNTED_RESIDUAL = 256


@cache
def _defect_layer(rank: int, defect: int) -> tuple[Symbol, ...]:
    """Reduced symbols of this rank and defect, sorted on rows; built once.

    A layer of more than :data:`MAX_LAYER_SYMBOLS` symbols is refused
    before anything is built.  A refusal is not kept, so the bound is read
    whenever a layer not yet built is asked for.
    """
    residual = rank - defect_rank_offset(defect)
    if residual < 0:
        return ()
    # Layer sizes grow with the residual, so past _COUNTED_RESIDUAL the
    # size is only bounded from below, which is enough to refuse it.
    size = bipartition_count(min(residual, _COUNTED_RESIDUAL))
    more = "" if residual <= _COUNTED_RESIDUAL else "more than "
    _check_bound(size, f"the rank {rank}, defect {defect} layer", "symbols", more)
    return tuple(sorted(_layer_symbols(rank, defect), key=_ROWS))


def _layer_symbols(rank: int, defect: int) -> Iterator[Symbol]:
    """The symbols of the rank and defect layer in :func:`bipartitions_of` order, built as
    they are read and kept by no one; unbounded, so a caller bounds the layer first."""
    return map(_symbol_of, bipartitions_of(rank - defect_rank_offset(defect)), repeat(defect))


def enumerate_symbols(rank: int, family: SymbolFamily) -> list[Symbol]:
    """All reduced symbols of this rank in the family's defect classes.

    Deterministic order: defect ascending by absolute value (positive before
    negative at ties), then lexicographic on rows.  The result is a fresh
    list, which the caller may mutate, of the per-defect layers; each is
    built once and kept for the life of the process with whatever derived
    data its symbols accumulate.  A defect layer of more than
    :data:`MAX_LAYER_SYMBOLS` symbols raises ``ValueError``, and a non-int
    ``rank`` ``TypeError``.
    """
    _check_int(rank, "rank")
    # The family's first defect has the largest layer, so an oversized rank
    # is refused here, before its list of defects is built.
    _defect_layer(rank, family.defect_residue)
    out: list[Symbol] = []
    for defect in admissible_defects(rank, family):
        out += _defect_layer(rank, defect)
    return out


def count_symbols(rank: int, family: SymbolFamily) -> int:
    """Symbol count by bipartition counting; independent of the generator."""
    _check_int(rank, "rank")
    return sum(
        bipartition_count(rank - defect_rank_offset(d))
        for d in admissible_defects(rank, family)
    )


def _check_sweep(max_rank: int) -> None:
    """Refuse a sweep over every family and rank <= max_rank, before any build.

    :data:`MAX_LAYER_SYMBOLS` bounds the sum of the layer sizes, counted as
    :func:`count_symbols` does, and the ``ValueError`` states the sum and the
    bound.  The sum is what a sweep that keeps its layers holds, and what the f1
    sweep, which streams its sources and keeps none, builds.  Counting stops at the
    first rank that puts the sum over the bound; below ``max_rank`` the message then
    says "more than".  A non-int ``max_rank`` is a ``TypeError``.
    """
    _check_int(max_rank, "max_rank")
    total = 0
    for rank in range(max_rank + 1):
        total += sum(count_symbols(rank, family) for family in SymbolFamily)
        more = "" if rank == max_rank else "more than "
        _check_bound(total, f"the rank <= {max_rank} sweep", "symbols", more)


# ---------------------------------------------------------------------------
# Text grammar
# ---------------------------------------------------------------------------


@cache
def _row_text(row: tuple[int, ...]) -> str:
    """The entries of a row or partition, comma separated; kept per tuple,
    as the symbols of a layer share their rows."""
    return ",".join(map(str, row))


def format_symbol(s: Symbol) -> str:
    """Render in the bracket grammar, e.g. ``[4,3,2,1,0|]`` or ``[|]``."""
    return f"[{_row_text(s.row_a)}|{_row_text(s.row_b)}]"


def format_bipartition(bp: Bipartition) -> str:
    return f"([{_row_text(bp.upper)}],[{_row_text(bp.lower)}])"


#: Longest digit run the grammars accept, so that every number in them fits
#: a signed 64-bit integer - far beyond any rank the library can enumerate.
MAX_INT_DIGITS = 18


def _parse_int(text: str, offset: int, what: str) -> int:
    """The one integer rule of the symbol and label grammars.

    Surrounding whitespace is ignored; the rest must be 1 to
    :data:`MAX_INT_DIGITS` ASCII digits (no sign, no underscore, no other
    numerals).  ``offset`` is where ``text`` starts in the parsed input.
    """
    token = text.strip()
    if len(token) > MAX_INT_DIGITS:
        raise ParseError(f"{what} has more than {MAX_INT_DIGITS} digits", offset)
    if not token or not all("0" <= c <= "9" for c in token):
        raise ParseError(f"bad {what} {text!r}", offset)
    return int(token)


def _parse_row(text: str, base: int) -> tuple[int, ...]:
    if not text.strip():
        return ()
    entries = []
    pos = 0
    for piece in text.split(","):
        entries.append(_parse_int(piece, base + pos, "row entry"))
        pos += len(piece) + 1
    return tuple(entries)


def parse_symbol(text: str) -> Symbol:
    """Parse the ``[a1,a2,...|b1,...]`` grammar and normalize.

    Raises :class:`ParseError` with a byte offset for malformed text and
    :class:`NormalizationError` for rows that are not strictly decreasing.
    """
    return _parse_symbol(text, 0)


def _parse_symbol(text: str, base: int) -> Symbol:
    """:func:`parse_symbol` of text that starts at offset ``base`` of the input."""
    stripped = text.strip()
    offset = base + len(text) - len(text.lstrip())
    if not stripped.startswith("["):
        raise ParseError("symbol must start with '['", offset)
    if not stripped.endswith("]"):
        raise ParseError("symbol must end with ']'", offset + len(stripped) - 1)
    body = stripped[1:-1]
    if body.count("|") != 1:
        raise ParseError("symbol needs exactly one '|' row separator", offset + 1)
    left, right = body.split("|")
    row_a = _parse_row(left, offset + 1)
    row_b = _parse_row(right, offset + 2 + len(left))
    return symbol_normalize(row_a, row_b)
