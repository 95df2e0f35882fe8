"""Representation labels for finite symplectic and orthogonal groups.

An irreducible representation in a quadratic Lusztig series is recorded here
as a *label*: the ambient group, an opaque descriptor for the product of
general-linear/unitary factors (only its rank and a regularity flag ever
enter a computation), a pair of symbols filling the two classical slots, and
a sign for odd orthogonal groups.  Validity rules:

* symplectic groups: first symbol has defect = 1 mod 4, second symbol has
  even defect;
* odd orthogonal groups: both defects = 1 mod 4, plus a +/- flag;
* even orthogonal groups: both defects even, and the product of the slot
  signs (-1)^(def/2) must equal eps_{-1} * eps of the group, where eps_{-1}
  is the square class of -1 (+ iff q = 1 mod 4).

These rules live in :data:`_SLOTS` (the symbol families of each slot, which
carry their own residues and slot signs) and :data:`_EPS_FLAGS`, read by label
validation and enumeration here.  :mod:`thetasym.theta` reads ``_SLOTS``
through the sp slot pair, in the class checks of bare (symplectic-type,
even-type) symbols.

The slot ranks plus the descriptor rank must add up to the group rank.

From the defects one reads off the pair (k, h) indexing the cuspidal
support: (|def|-1)/2 on defect = 1 mod 4 slots (always >= 0) and the signed
def/2 on even slots.  Parabolic induction preserves defects, so (k, h) of a
label and of its cuspidal support agree.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from itertools import product
from math import isqrt
from typing import Callable, Iterator, NamedTuple

from .core import (
    EMPTY_SYMBOL,
    ZERO_SYMBOL,
    OrderedValue,
    Symbol,
    SymbolFamily,
    _check_bound,
    _check_int,
    _staircase_row,
    _symbol_from_rows,
    _value,
    enumerate_symbols,
    _parse_int,
    _parse_symbol,
    format_symbol,
    symbol_defect,
    symbol_rank,
    symbol_transpose,
    upsilon,
)
from .errors import (
    DefectClassMismatch,
    ParseError,
    RankOverflow,
    SignMismatch,
)

Sign = int  # +1 or -1

PLUS: Sign = 1
MINUS: Sign = -1


def format_sign(s: Sign) -> str:
    return "+" if s > 0 else "-"


def _check_sign(value: Sign, name: str) -> None:
    """Refuse a ``name`` other than +1 or -1 with a ``ValueError``, before any work."""
    if value != PLUS and value != MINUS:
        raise ValueError(f"{name} must be +1 or -1, got {value}")


def parse_sign(text: str) -> Sign:
    if text == "+":
        return PLUS
    if text == "-":
        return MINUS
    raise ValueError(f"bad sign {text!r}")


#: Largest field size :func:`eps_minus_one_from_q` accepts, which keeps its
#: trial division below 2**15 steps.  Only q mod 4 enters a computation, so a
#: larger field is named by its square class of -1 instead.
MAX_Q = 2**32


def _is_prime_power(q: int) -> bool:
    """Whether an odd q > 1 is a power of a single prime, by trial division."""
    p = next((d for d in range(3, isqrt(q) + 1, 2) if q % d == 0), q)
    while q % p == 0:
        q //= p
    return q == 1


def eps_minus_one_from_q(q: int) -> Sign:
    """Square class of -1 in F_q: + iff q = 1 mod 4.

    ``q`` must be an odd prime power, at most :data:`MAX_Q`.
    """
    if q % 2 == 0 or q < 3:
        raise ValueError(f"q must be an odd prime power > 2, got {q}")
    if q > MAX_Q:
        raise ValueError(f"q = {q} exceeds {MAX_Q}; give the square class of -1 directly")
    if not _is_prime_power(q):
        raise ValueError(f"q must be an odd prime power, got {q}")
    return PLUS if q % 4 == 1 else MINUS


def sign_pow(n: int) -> Sign:
    """(-1)**n as a Sign, safe for negative n."""
    return MINUS if n % 2 else PLUS


class GroupFamily(Enum):
    SP = "sp"
    O_EVEN = "o_even"
    O_ODD = "o_odd"


class GroupTag(OrderedValue):
    """Sp(2n), O^eps(2n) or O^eps(2n+1); ``rank`` is n throughout."""

    __slots__ = _fields = ("family", "rank", "sign")

    def __new__(cls, family: GroupFamily, rank: int, sign: Sign | None = None):
        _check_int(rank, "rank")
        if rank < 0:
            raise ValueError("group rank must be nonnegative")
        if family is GroupFamily.SP and sign is not None:
            raise ValueError("symplectic groups carry no sign")
        if family is not GroupFamily.SP and sign not in (PLUS, MINUS):
            raise ValueError("orthogonal groups need a sign")
        return _value(cls, family, rank, sign)

    @property
    def dimension(self) -> int:
        if self.family is GroupFamily.O_ODD:
            return 2 * self.rank + 1
        return 2 * self.rank

    def __str__(self):
        if self.family is GroupFamily.SP:
            return f"sp({self.dimension})"
        return f"o{format_sign(self.sign)}({self.dimension})"


def sp(rank: int) -> GroupTag:
    return GroupTag(GroupFamily.SP, rank)


def o_even(rank: int, sign: Sign) -> GroupTag:
    return GroupTag(GroupFamily.O_EVEN, rank, sign)


def o_odd(rank: int, sign: Sign) -> GroupTag:
    return GroupTag(GroupFamily.O_ODD, rank, sign)


class RhoDescriptor(OrderedValue):
    """Opaque stand-in for the general-linear/unitary part of a label.

    Only ``glu_rank`` (the rank it consumes) and ``regular`` (whether the
    corresponding representation is regular) take part in computations; the
    id is for display and equality.  Rank 0 forces the trivial descriptor,
    and the id ``trivial`` names only it.
    """

    __slots__ = _fields = ("glu_rank", "regular", "id")

    def __new__(cls, glu_rank: int = 0, regular: bool = True, id: str = "trivial"):
        _check_int(glu_rank, "glu_rank")
        if glu_rank < 0:
            raise ValueError("descriptor rank must be nonnegative")
        if glu_rank == 0 and (id != "trivial" or not regular):
            raise ValueError("rank-0 descriptor must be trivial and regular")
        if glu_rank > 0 and id == "trivial":
            raise ValueError("descriptor id 'trivial' is reserved for rank 0")
        if any(c in id for c in ":;|"):
            raise ValueError(f"descriptor id {id!r} contains reserved characters")
        if id != id.strip():
            # the label grammar strips field values, so this id could not round-trip
            raise ValueError(f"descriptor id {id!r} has leading or trailing whitespace")
        return _value(cls, glu_rank, regular, id)

    @property
    def is_trivial(self) -> bool:
        return self.glu_rank == 0


TRIVIAL_RHO = RhoDescriptor()


class KH(NamedTuple):
    """Cuspidal-support coordinates read off the two slot defects."""

    k: int
    h: int


class RepLabel(NamedTuple):
    """A group, a descriptor, two slot symbols and an eps flag, unchecked;
    :func:`make_label` builds checked ones."""

    group: GroupTag
    rho: RhoDescriptor
    lam: Symbol
    lam_prime: Symbol
    eps_flag: Sign | None = None

    def __str__(self):
        return format_label(self)


class _SlotKind(NamedTuple):
    """The symbol families that may fill a slot, and the ``rule`` a defect
    outside all of them breaks.  Residues and slot signs are the families' own."""

    families: tuple[SymbolFamily, ...]
    rule: str

    def entry(self, position: str, defect: int, group: GroupTag | None = None) -> SymbolFamily:
        """The family of a defect in this slot, or DefectClassMismatch."""
        for family in self.families:
            if family.admits_defect(defect):
                return family
        where = "" if group is None else f" for {group}"
        raise DefectClassMismatch(f"{position} symbol defect {defect} {self.rule}{where}")


_ODD = _SlotKind((SymbolFamily.SP_UNIPOTENT,), "not = 1 mod 4")
_EVEN = _SlotKind((SymbolFamily.O_EVEN_PLUS, SymbolFamily.O_EVEN_MINUS), "must be even")

#: The slot rules: the (first, second) slot kind of each group family.
_SLOTS = {
    GroupFamily.SP: (_ODD, _EVEN),
    GroupFamily.O_ODD: (_ODD, _ODD),
    GroupFamily.O_EVEN: (_EVEN, _EVEN),
}

#: The eps flags of each group family's labels: only odd orthogonal labels carry one.
_EPS_FLAGS = {GroupFamily.SP: (None,), GroupFamily.O_ODD: (PLUS, MINUS), GroupFamily.O_EVEN: (None,)}


def _signs_fit(group: GroupTag, f1: SymbolFamily, f2: SymbolFamily, eps_minus_one: Sign) -> bool:
    """The even orthogonal sign equation: slot signs multiply to eps_{-1} * eps."""
    return group.family is not GroupFamily.O_EVEN or f1.sign * f2.sign == eps_minus_one * group.sign


def make_label(
    group: GroupTag,
    rho: RhoDescriptor,
    lam: Symbol,
    lam_prime: Symbol,
    eps_flag: Sign | None = None,
    eps_minus_one: Sign = PLUS,
) -> RepLabel:
    """Validate and build a label; see the module docstring for the rules.

    An ``eps_minus_one`` other than +1 or -1 raises ``ValueError``.
    """
    _check_sign(eps_minus_one, "eps_minus_one")
    first, second = _SLOTS[group.family]
    family1 = first.entry("first", symbol_defect(lam), group)
    family2 = second.entry("second", symbol_defect(lam_prime), group)
    total = rho.glu_rank + symbol_rank(lam) + symbol_rank(lam_prime)
    if total != group.rank:
        raise RankOverflow(
            f"component ranks {rho.glu_rank}+{symbol_rank(lam)}"
            f"+{symbol_rank(lam_prime)} != group rank {group.rank}"
        )
    flags = _EPS_FLAGS[group.family]
    if eps_flag not in flags:
        raise SignMismatch(
            "odd orthogonal labels need an eps flag" if None not in flags
            else f"{group} carries no eps flag"
        )
    if not _signs_fit(group, family1, family2, eps_minus_one):
        raise SignMismatch(
            f"slot signs {format_sign(family1.sign * family2.sign)} != "
            f"eps_minus_one*eps = {format_sign(eps_minus_one * group.sign)}"
        )
    return RepLabel(group, rho, lam, lam_prime, eps_flag)


def _slot_kh(defect: int) -> int:
    if defect % 2 == 1:
        return (abs(defect) - 1) // 2
    return defect // 2


def kh_of(label: RepLabel) -> KH:
    """(k, h) from the slot defects: (|d|-1)/2 on odd slots, signed d/2 on even."""
    return KH(_slot_kh(symbol_defect(label.lam)), _slot_kh(symbol_defect(label.lam_prime)))


# ---------------------------------------------------------------------------
# Cuspidal symbols
# ---------------------------------------------------------------------------


def cuspidal_symbol(family: GroupFamily, k: int) -> Symbol:
    """Staircase symbol of the unique unipotent cuspidal representation.

    Symplectic and odd orthogonal: rank k(k+1), staircase 2k..0 in the first
    row for even k and in the second row for odd k (defect (-1)^k(2k+1)).
    Even orthogonal: rank k^2, staircase 2k-1..0 in the first row (defect
    2k); its transpose carries the sign twist of the same group.

    A non-int ``k`` raises ``TypeError``, and a staircase of more than
    ``MAX_LAYER_SYMBOLS`` entries ``ValueError``, before any of it is built.
    """
    _check_int(k, "k")
    if k < 0:
        raise ValueError("cuspidal index must be nonnegative")
    top = 2 * k - 1 if family is GroupFamily.O_EVEN else 2 * k
    _check_bound(top + 1, f"the cuspidal staircase of index {k}", "entries")
    rows = _staircase_row((), top + 1)
    if family is GroupFamily.O_EVEN or k % 2 == 0:
        return _symbol_from_rows(rows, ())
    return _symbol_from_rows((), rows)


def is_unipotent_cuspidal(s: Symbol) -> bool:
    """Whether the symbol is the cuspidal staircase of its defect.

    The defect names the family: an odd one the symplectic staircase (whose
    defect is = 1 mod 4, so = 3 mod 4 gives False), an even one the even
    orthogonal staircase or its transpose (the sign-twisted pair on one group).
    """
    d = symbol_defect(s)
    stair = cuspidal_symbol(GroupFamily.SP if d % 2 else GroupFamily.O_EVEN, abs(_slot_kh(d)))
    return s == stair or (d % 2 == 0 and s == symbol_transpose(stair))


# ---------------------------------------------------------------------------
# Unipotent labels, regularity convention
# ---------------------------------------------------------------------------


def empty_second_slot(family: GroupFamily) -> Symbol:
    """The rank-0 symbol filling an unused second slot: defect 1 in a symplectic-type slot."""
    return ZERO_SYMBOL if _SLOTS[family][1] is _ODD else EMPTY_SYMBOL


def unipotent_label(
    group: GroupTag,
    lam: Symbol,
    eps_flag: Sign | None = None,
    eps_minus_one: Sign = PLUS,
) -> RepLabel:
    """Label of a unipotent representation: trivial descriptor, empty second slot."""
    return make_label(
        group, TRIVIAL_RHO, lam, empty_second_slot(group.family), eps_flag, eps_minus_one
    )


def is_unipotent_label(label: RepLabel) -> bool:
    return (
        label.rho.is_trivial
        and label.lam_prime == empty_second_slot(label.group.family)
    )


def symbol_regular_by_convention(s: Symbol) -> bool:
    """Default regularity marker for unipotent symbols.

    Convention, not a computed fact: rank-0 symbols are regular, and so is
    the defect +-1 symbol whose staircase-free image is a column ([], [1^r])
    or its transpose ([1^r], []).  It is the fixed rule of the unipotent-side
    regularity gate in :mod:`thetasym.ggp`.
    """
    if symbol_rank(s) == 0:
        return True
    d = symbol_defect(s)
    if abs(d) != 1:
        return False
    up, lo = upsilon(s)
    if d == 1:
        return not up and all(x == 1 for x in lo)
    return not lo and all(x == 1 for x in up)


# ---------------------------------------------------------------------------
# Enumeration of labels
# ---------------------------------------------------------------------------


def enumerate_labels(
    group: GroupTag,
    eps_minus_one: Sign = PLUS,
    rho_catalog: tuple[RhoDescriptor, ...] = (TRIVIAL_RHO,),
    keep: Callable[[int, Symbol], bool] | None = None,
) -> Iterator[RepLabel]:
    """All valid labels of the group with descriptors from the catalog.

    Only slot families whose signs fit are paired (:func:`_signs_fit`), so
    every label is valid as built.  ``keep(i, s)`` drops the labels whose
    slot i (0 is ``lam``) holds a symbol s it rejects, asked once per symbol
    of each (slot, rank, family) the walk reads.  Order: descriptor,
    first-slot rank, first-slot symbol, second-slot symbol (each slot by
    family, then in :func:`enumerate_symbols` order), eps flag.  An
    ``eps_minus_one`` other than +1 or -1 raises ``ValueError`` when the
    walk starts.
    """
    _check_sign(eps_minus_one, "eps_minus_one")
    kind, kind2 = _SLOTS[group.family]
    flags = _EPS_FLAGS[group.family]

    @cache
    def slot(i: int, rank: int, family: SymbolFamily) -> list[Symbol]:
        symbols = enumerate_symbols(rank, family)
        return symbols if keep is None else [s for s in symbols if keep(i, s)]

    for rho in rho_catalog:
        residual = group.rank - rho.glu_rank
        for r1 in range(residual + 1):
            for f1 in kind.families:
                seconds = [
                    lam_prime
                    for f2 in kind2.families
                    if _signs_fit(group, f1, f2, eps_minus_one)
                    for lam_prime in slot(1, residual - r1, f2)
                ]
                for lam, lam_prime, flag in product(slot(0, r1, f1), seconds, flags):
                    yield RepLabel(group, rho, lam, lam_prime, flag)


# ---------------------------------------------------------------------------
# Label text grammar
# ---------------------------------------------------------------------------


def format_rho(rho: RhoDescriptor) -> str:
    return f"{rho.id}:{rho.glu_rank}:{'reg' if rho.regular else 'irr'}"


def format_label(label: RepLabel) -> str:
    parts = [
        f"{label.group}: rho={format_rho(label.rho)}",
        f"L={format_symbol(label.lam)}",
        f"L'={format_symbol(label.lam_prime)}",
    ]
    if label.eps_flag is not None:
        parts.append(f"eps={format_sign(label.eps_flag)}")
    return " ; ".join(parts)


def _parse_group(text: str, offset: int) -> GroupTag:
    token = text.strip()
    offset += len(text) - len(text.lstrip())
    if not token.endswith(")") or "(" not in token:
        raise ParseError(f"bad group token {token!r}", offset)
    name, _, dim_text = token[:-1].partition("(")
    dim = _parse_int(dim_text, offset + len(name) + 1, "group dimension")
    if name == "sp":
        if dim % 2 != 0:
            raise ParseError("symplectic dimension must be even", offset + len(name) + 1)
        return sp(dim // 2)
    if name in ("o+", "o-"):
        sign = PLUS if name == "o+" else MINUS
        if dim % 2 == 0:
            return o_even(dim // 2, sign)
        return o_odd(dim // 2, sign)
    raise ParseError(f"unknown group family {name!r}", offset)


def parse_group(text: str) -> GroupTag:
    """Parse a group token: ``sp(2n)``, ``o+(m)`` or ``o-(m)``."""
    return _parse_group(text, 0)


def parse_label(text: str, eps_minus_one: Sign = PLUS) -> RepLabel:
    """Parse the label grammar::

        sp(2n)|o+(2n)|o-(2n)|o+(2n+1)|o-(2n+1) : rho=<id:rank:reg|irr> ;
            L=[..|..] ; L'=[..|..] ; eps=+|-

    Whitespace around separators is ignored; output of :func:`format_label`
    always round-trips.  A :class:`ParseError` offset points into ``text``:
    at the offending field, at the offending character inside a number or
    a symbol, or at the end of the text for a missing field.
    """
    head, colon, rest = text.partition(":")
    if not colon:
        raise ParseError("label needs 'group: fields'", 0)
    group = _parse_group(head, 0)
    # key -> (value, offset of the field, offset of the stripped value)
    fields: dict[str, tuple[str, int, int]] = {}
    offset = len(head) + 1
    for chunk in rest.split(";"):
        at = offset + len(chunk) - len(chunk.lstrip())
        key, eq, value = chunk.partition("=")
        value_at = offset + len(key) + 1 + len(value) - len(value.lstrip())
        offset += len(chunk) + 1
        if not chunk.strip():
            continue
        if not eq:
            raise ParseError(f"bad label field {chunk.strip()!r}", at)
        key = key.strip()
        if key in fields:
            raise ParseError(f"repeated label field {key!r}", at)
        fields[key] = (value.strip(), at, value_at)
    for name in ("rho", "L", "L'"):
        if name not in fields:
            raise ParseError(f"label missing field {name!r}", len(text))
    rho_text, rho_at, rho_value_at = fields.pop("rho")
    lam_text, _, lam_at = fields.pop("L")
    lam_prime_text, _, lam_prime_at = fields.pop("L'")
    eps_text, eps_at, _ = fields.pop("eps", (None, 0, 0))
    if fields:
        first = min(at for _, at, _ in fields.values())
        raise ParseError(f"unknown label fields {sorted(fields)}", first)
    rho_bits = rho_text.split(":")
    if len(rho_bits) != 3 or rho_bits[2] not in ("reg", "irr"):
        raise ParseError(f"bad rho descriptor {rho_text!r}", rho_at)
    rho_rank = _parse_int(rho_bits[1], rho_value_at + len(rho_bits[0]) + 1, "rho rank")
    try:
        rho = RhoDescriptor(rho_rank, rho_bits[2] == "reg", rho_bits[0])
    except ValueError as err:
        raise ParseError(str(err), rho_at) from None
    if eps_text not in (None, "+", "-"):
        raise ParseError(f"bad eps flag {eps_text!r}", eps_at)
    eps_flag = parse_sign(eps_text) if eps_text is not None else None
    return make_label(
        group,
        rho,
        _parse_symbol(lam_text, lam_at),
        _parse_symbol(lam_prime_text, lam_prime_at),
        eps_flag,
        eps_minus_one,
    )
