"""Branching multiplicities for symplectic and orthogonal pairs.

Two restriction problems are covered: the Fourier-Jacobi case (two
symplectic labels, paired through an oscillator-representation twist) and
the Bessel case (one odd and one even orthogonal label).  The multiplicity
of a pair factors through three gates and a base factor:

1. *Relevance bands.*  The first-occurrence distances of the two cuspidal
   supports must agree up to the shift built into the restriction: for
   Fourier-Jacobi, k on one side must lie in {|h'|, |h'| - 1} of the other
   (and symmetrically); for Bessel the slot parameters pair up straight,
   |k'| in {k, k + 1} and |h'| in {h, h + 1}.
2. *Matching towers.*  On top of the bands, the small-occurrence branches must
   sit on matching towers.  Which tower carries the small branch is data
   (it depends on the additive character), carried by orientation bits in
   the :class:`~thetasym.theta.TowerContext` and derived from the cuspidal
   chain when the support is unipotent cuspidal with trivial descriptor.
   A needed bit that is neither supplied nor derivable makes the result
   undetermined rather than a guess.
3. *Pair-condition gate.*  Some symbol of the transpose pair of each varied
   slot must combine with the fixed slot into one of the four branching
   sets (:func:`~thetasym.theta.in_G`).

The base factor is the multiplicity of the general-linear parts: 1 for two
regular descriptors (the trivial one counts as regular; two others are taken
to have disjoint eigenvalue data), 0 for a trivial descriptor against an
irregular one, and a symbolic value otherwise - evaluating it in general is
out of scope here.  A unipotent side of at least the other's rank forces a
slot of the other label to be regular (a documented default): the ``lam``
for Fourier-Jacobi; for Bessel only an odd side is read, forcing ``lam_prime``.

Each case's facts live on its :class:`GGPCase` member: its command-line
name, the group families of a normalized pair, the slots a variant family
varies, the fixed slot each key of the pair-condition gate reads and its
refusal text.  The gates above read the case by hand.

There is one evaluation path: a run validates a pair, builds each label's
sides and runs the gates above on each side pair in normalized order.  A
plain pair is one unvaried pair on a fresh run, a transpose-variant family
its variant pairs, and :func:`branch_decomposition` the candidates whose
slots pass the pair-condition gate, on one run.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from itertools import product
from typing import NamedTuple

from .catalog import (
    PLUS,
    GroupFamily,
    GroupTag,
    RepLabel,
    RhoDescriptor,
    Sign,
    TRIVIAL_RHO,
    _check_sign,
    enumerate_labels,
    is_unipotent_label,
    kh_of,
    symbol_regular_by_convention,
)
from .core import Symbol, _check_sweep, symbol_defect, symbol_transpose
from .errors import CaseMismatch, MultipleNonzero, NotUnipotent, RankMismatch
from .theta import TowerContext, default_orientation, in_G


class GGPCase(Enum):
    """Which restriction problem, by its command-line name, with its facts.

    Each case carries the group ``families`` of a normalized pair, the
    ``slots`` a transpose-variant family varies on each side (0 is ``lam``),
    the ``fixed_slots`` its gate keys read (:meth:`_VariantRun.candidate_gate`)
    and the ``mismatch`` text that refuses a pair of other families.  The
    oscillator twist of the Fourier-Jacobi case is the square class of -1.
    """

    FOURIER_JACOBI = "fj"
    BESSEL = "bessel"

    def __init__(self, value: str):
        sp, odd, even = GroupFamily.SP, GroupFamily.O_ODD, GroupFamily.O_EVEN
        self.families, self.slots, self.fixed_slots, self.mismatch = {
            "fj": ((sp, sp), ((1,), (1,)), (1, 0), "Fourier-Jacobi needs two symplectic labels"),
            "bessel": ((odd, even), ((), (0, 1)), (0, 1), "Bessel needs one odd and one even orthogonal label"),
        }[value]


BESSEL = GGPCase.BESSEL
FOURIER_JACOBI = GGPCase.FOURIER_JACOBI


class MultKind(Enum):
    ZERO = "zero"
    ONE = "one"
    SYMBOLIC = "symbolic-base"
    UNDETERMINED = "undetermined"


class Multiplicity(NamedTuple):
    """Zero, One, a symbolic base factor, or an undetermined marker.

    The symbolic value stands for the unevaluated pairing of the two
    general-linear descriptors; it does not depend on the additive
    character.
    """

    kind: MultKind
    rho_left: RhoDescriptor | None = None
    rho_right: RhoDescriptor | None = None
    reason: str | None = None

    @property
    def is_zero(self) -> bool:
        return self.kind is MultKind.ZERO

    @property
    def is_one(self) -> bool:
        return self.kind is MultKind.ONE

    @property
    def is_nonzero(self) -> bool:
        return self.kind in _NONZERO

    @property
    def is_undetermined(self) -> bool:
        return self.kind is MultKind.UNDETERMINED

    def __str__(self):
        if self.kind is MultKind.ZERO:
            return "0"
        if self.kind is MultKind.ONE:
            return "1"
        if self.kind is MultKind.SYMBOLIC:
            return f"m({self.rho_left.id},{self.rho_right.id})"
        return f"undetermined({self.reason})"


_NONZERO = (MultKind.ONE, MultKind.SYMBOLIC)
# Multiplicity compares by value, so the common values are shared.
_ZERO = Multiplicity(MultKind.ZERO)
_ONE = Multiplicity(MultKind.ONE)
_ORIENTATION_OPEN = Multiplicity(MultKind.UNDETERMINED, reason="orientation")


# ---------------------------------------------------------------------------
# Relevance
# ---------------------------------------------------------------------------


Bit = Sign | None
Bits = tuple[Bit, Bit]


def _one_sided(dist: int, other: int, mine: Bit, theirs: Bit, twist: Sign = PLUS) -> bool | None:
    """One relevance condition: distance band plus tower match.

    ``dist`` is the small-branch distance of the picked side (>= 0),
    ``other`` the absolute slot parameter of the opposing side.  Once the
    band holds, the opposing small branch sits on the matching tower when
    ``mine * twist == theirs`` (None when either bit is open).  With
    ``other`` = 0 the opposing branches coincide and no bit is read.
    """
    if other == 0:
        return dist == 0
    if dist not in (other - 1, other):
        return False
    if mine is None or theirs is None:
        return None
    return mine * twist == theirs


class _Side(NamedTuple):
    """One label of a pair, ready for evaluation.

    ``kh`` is the label's (k, h) and ``bits`` its resolved orientation bits,
    entry i of each for slot i.  A defect-0 slot and its transpose pass the
    same gates (the band uses the absolute slot parameter, the pair condition
    both transposes), so within a family ``kh`` names the variant class.
    ``order`` is the label's :func:`_fj_order`, which every side pair reads.
    """

    label: RepLabel
    kh: tuple[int, int]
    bits: Bits
    order: tuple


def _strong_relevance(left: _Side, right: _Side, case: GGPCase, ctx: TowerContext) -> bool | None:
    """Bands and tower match of a normalized pair; None when a needed bit is open.

    The one-sided conditions contain the relevance bands of the module
    docstring (the distances on the picked sides are never negative), so a
    pair outside the bands is False here.
    """
    (kl, hl), bits_left = left.kh, left.bits
    (kr, hr), bits_right = right.kh, right.bits
    if case is FOURIER_JACOBI:
        # the second side's twist is eps(-1) times the oscillator twist eps(-1): always +
        c1 = _one_sided(kl, abs(hr), bits_left[0], bits_right[1], ctx.eps_minus_one)
        c2 = _one_sided(kr, abs(hl), bits_right[0], bits_left[1])
    else:
        c1 = _one_sided(kl, abs(kr), bits_left[0], bits_right[0])
        c2 = _one_sided(hl, abs(hr), bits_left[1], bits_right[1])
    if c1 is False or c2 is False:
        return False
    return c1 and c2  # True, or None when a needed bit is open


def _fj_order(label: RepLabel):
    """Fourier-Jacobi order key: the larger rank first, a canonical key at ties.

    Both labels are symplectic, so group family, sign and eps flag never differ.
    """
    return (-label.group.rank, label.rho, label.lam, label.lam_prime)


def _in_order(left: _Side, right: _Side, case: GGPCase) -> tuple[_Side, _Side]:
    """A side pair in normalized order; each side keeps its own bits.

    A Fourier-Jacobi pair goes in :func:`_fj_order` (each side's ``order``); a Bessel
    pair from :meth:`_VariantRun.pairs` already has the odd orthogonal side first.
    """
    if case is FOURIER_JACOBI and left.order > right.order:
        return right, left
    return left, right


def is_strongly_relevant(
    left: RepLabel,
    right: RepLabel,
    case: GGPCase,
    ctx: TowerContext,
) -> bool | None:
    """Two-sided relevance of the pair's cuspidal supports.

    False is definitive; None means the bands hold but a needed
    tower-orientation bit is absent.  Implied by (and implying nothing
    beyond) the distance comparison of the supports' first occurrences.
    This is the first gate of :func:`ggp_multiplicity`.
    """
    [(a, b)] = _VariantRun(ctx).pairs(left, right, case, False)
    return _strong_relevance(*_in_order(a, b, case), case, ctx)


# ---------------------------------------------------------------------------
# The pair evaluator
# ---------------------------------------------------------------------------


def _base_multiplicity(left: RepLabel, right: RepLabel) -> Multiplicity:
    rl, rr = left.rho, right.rho
    if rl.regular and rr.regular:
        return _ONE
    if rl.is_trivial or rr.is_trivial:
        return _ZERO
    return Multiplicity(MultKind.SYMBOLIC, rl, rr)


def _unipotent_slot_gates(left: RepLabel, right: RepLabel, case: GGPCase) -> bool:
    """Regularity forced on one slot of the other label by a unipotent side.

    Applied when the unipotent side has at least the rank of the other.  A
    Fourier-Jacobi side forces the other ``lam``, both ways at equal ranks.
    Bessel reads only the odd label (first; 2n+1 >= 2m iff n >= m), forcing
    ``lam_prime``: a unipotent even side is never read, even when larger.
    """
    fj = case is FOURIER_JACOBI
    rl, rr = left.group.rank, right.group.rank
    if rl >= rr and is_unipotent_label(left):
        if not symbol_regular_by_convention(right.lam if fj else right.lam_prime):
            return False
    if fj and rr >= rl and is_unipotent_label(right):
        return symbol_regular_by_convention(left.lam)
    return True


class VariantReport(NamedTuple):
    """Evaluation of a transpose-variant family.

    ``entries`` holds every (left, right, multiplicity) triple in family
    order.  ``nonzero`` filters it to the entries with definite nonzero
    multiplicity, ``undetermined`` to the orientation-blocked ones, and
    ``selected`` is the first nonzero entry when there is one.
    """

    entries: tuple[tuple[RepLabel, RepLabel, Multiplicity], ...]

    @property
    def nonzero(self) -> tuple[tuple[RepLabel, RepLabel, Multiplicity], ...]:
        return tuple(e for e in self.entries if e[2].is_nonzero)

    @property
    def undetermined(self) -> tuple[tuple[RepLabel, RepLabel, Multiplicity], ...]:
        return tuple(e for e in self.entries if e[2].is_undetermined)

    @property
    def selected(self) -> tuple[RepLabel, RepLabel, Multiplicity] | None:
        return next(iter(self.nonzero), None)


class _VariantRun:
    """The one pair evaluator: sides, pair-condition gates and the gate sequence.

    A plain pair is a family of one, a branch table one run over its
    candidates, and a transpose-variant family its four variant pairs.  A
    label's sides depend only on the label, its supplied orientation bits
    and the varied slots, and a slot's gate only on its two symbols, so a
    run under one context builds each of them once.  Sides are keyed by
    label identity and a profile row by the identities of its lists; every
    entry holds its label or lists, so no key is reused while the run
    lives.  A variant sweep
    (:func:`~thetasym.oracle.verify_variant_uniqueness`) walks each left
    list once against its universe, the labels of its right lists in one
    list, which the :meth:`profile_row` of those lists holds with its gate
    rows.  Per left label it reads one :meth:`gate_mask` over the universe,
    splits the open families by :meth:`groups`, one group per right
    profile and rank sign, and evaluates one family of a group only at a
    new memo key.  Nothing outlives the run.  Every
    ``ggp`` answer comes from a run, so a ``ctx`` that is not a
    ``TowerContext`` is refused here with ``TypeError``, and an eps(-1)
    other than +1 or -1, or a bit neither of them nor ``None``, with
    ``ValueError`` naming the field.
    """

    def __init__(self, ctx: TowerContext):
        if not isinstance(ctx, TowerContext):
            raise TypeError(f"ctx must be a TowerContext, got {ctx!r}")
        _check_sign(ctx.eps_minus_one, "eps_minus_one")
        for name, bit in zip(ctx._fields[1:], ctx[1:]):
            if bit is not None:
                _check_sign(bit, name)
        self.ctx = ctx
        # the supplied bits of the left and of the right argument
        self.bits: tuple[Bits, Bits] = (
            (ctx.orient_left, ctx.orient_left_alt),
            (ctx.orient_right, ctx.orient_right_alt),
        )
        self._sides: dict[tuple, list[_Side]] = {}
        self._gates: dict[tuple[Symbol, Symbol], bool] = {}
        # each profile row by its lists' identities, position and case, and the profiles interned
        self._profile_rows: dict[tuple, tuple] = {}
        self._interned: dict[tuple, int] = {}

    def sides(self, label: RepLabel, supplied: Bits, slots: tuple[int, ...]) -> list[_Side]:
        """``label`` and its transposes in the varied slots, in family order.

        Transposing slot i (0 is ``lam``, 1 ``lam_prime``) negates entry i of
        the variant's supplied bits, an open bit staying open.  A slot equal
        to its own transpose gives no new variant.  Bits are resolved last:
        an open first bit takes its cuspidal-chain default.
        """
        key = (id(label), supplied, slots)
        sides = self._sides.get(key)
        if sides is not None:
            return sides
        out = [(label, supplied)]
        for i in slots:
            s = (label.lam, label.lam_prime)[i]
            t = symbol_transpose(s)
            if t == s:
                continue
            for v, bits in list(out):
                syms, bits = [v.lam, v.lam_prime], list(bits)
                syms[i] = t
                if bits[i] is not None:
                    bits[i] = -bits[i]
                out.append((RepLabel(v.group, v.rho, *syms, v.eps_flag), tuple(bits)))
        sides = self._sides[key] = [
            _Side(v, kh_of(v), (default_orientation(v) if p is None else p, s), _fj_order(v))
            for v, (p, s) in out
        ]
        return sides

    def pairs(
        self, left: RepLabel, right: RepLabel, case: GGPCase, varied: bool
    ) -> list[tuple[_Side, _Side]]:
        """Validate the pair; its side pairs in family order.

        A pair whose families come reversed from the case's ``families`` is
        swapped (Bessel puts the odd orthogonal label first), and one that
        still does not match raises the case's ``mismatch``.  When ``varied``,
        each side varies its slots in the case's ``slots``.  Each label keeps
        its argument's supplied bits.  Side lists start with the unvaried
        label, so the first pair holds the gate labels.
        """
        bits = self.bits
        if (left.group.family, right.group.family) != case.families:
            if (right.group.family, left.group.family) != case.families:
                raise CaseMismatch(case.mismatch)
            left, right, bits = right, left, bits[::-1]
        first, second = case.slots if varied else ((), ())
        return list(product(self.sides(left, bits[0], first), self.sides(right, bits[1], second)))

    def slot_gate(self, fixed: Symbol, varied: Symbol) -> bool:
        """Whether ``fixed`` and a transpose of ``varied`` form a branching pair.

        Stored under both transposes; only :meth:`candidate_gate` asks.
        """
        key = (fixed, varied)
        gate = self._gates.get(key)
        if gate is None:
            t = symbol_transpose(varied)
            gate = self._gates[key] = self._gates[fixed, t] = any(
                in_G(fixed, v) is not None for v in {varied, t}
            )
        return gate

    def candidate_gate(self, fixed: RepLabel, i: int, s: Symbol, case: GGPCase) -> bool:
        """Whether ``s`` in slot i (0 is ``lam``) of a candidate passes its key against ``fixed``.

        The one wiring of slots to :meth:`slot_gate`: key i reads slot ``case.fixed_slots[i]``
        of ``fixed``, lower slot first, the fixed one at a tie.  So Fourier-Jacobi pairs
        each ``lam`` with the other, varied ``lam_prime``, and Bessel slot i with slot i.
        """
        j = case.fixed_slots[i]
        f = (fixed.lam, fixed.lam_prime)[j]
        return self.slot_gate(*((s, f) if j > i else (f, s)))

    def gate_mask(self, fixed: RepLabel, row: tuple, case: GGPCase) -> int:
        """The families of ``fixed`` against the labels of ``row``, a :meth:`profile_row`
        of ``case``, whose pair-condition gate is open.

        Bit j stands for the row's label j.  The mask ANDs one gate row per key, built once
        per profile row, slot and fixed symbol by one :meth:`candidate_gate` per distinct
        symbol in that slot of the row's labels, and held with the row; the second gate row
        is read only if a bit is left.
        """
        mask, (*_, index, rows, _) = -1, row
        for i, j in enumerate(case.fixed_slots):
            f = (fixed.lam, fixed.lam_prime)[j]
            gate = rows.get((i, f))
            if gate is None:
                gate = rows[i, f] = sum(bits for s, bits in index[i].items() if self.candidate_gate(fixed, i, s, case))
            mask &= gate
            if not mask:
                break
        return mask

    def evaluate(
        self, left: RepLabel, right: RepLabel, case: GGPCase, varied: bool
    ) -> list[tuple[_Side, _Side, Multiplicity]]:
        """Each side pair of :meth:`pairs` with its multiplicity, in family order.

        Each pair runs the gate sequence of :func:`ggp_multiplicity` in
        :func:`_in_order`.  The pair-condition gate, :meth:`candidate_gate` on
        both slots of the second gate label, tries each varied slot in both
        transposes and is symmetric for Fourier-Jacobi, so all side pairs share
        it: it is read at most once, and only if relevance is not definitely false.
        Once it reads closed, every pair is Zero and the remaining ones are not read.
        """
        pairs = self.pairs(left, right, case, varied)
        first, second = pairs[0][0].label, pairs[0][1].label
        gate = None
        out = []
        for lv, rv in pairs:
            a, b = _in_order(lv, rv, case)
            strong = _strong_relevance(a, b, case, self.ctx)
            if strong is not False and gate is None:
                slot = self.candidate_gate
                gate = slot(first, 0, second.lam, case) and slot(first, 1, second.lam_prime, case)
                if not gate:  # the pairs before this one failed relevance
                    return [(lv, rv, _ZERO) for lv, rv in pairs]
            if strong is False:
                value = _ZERO
            elif strong is None:
                value = _ORIENTATION_OPEN
            else:
                value = _base_multiplicity(a.label, b.label)
                if not (value.is_zero or _unipotent_slot_gates(a.label, b.label, case)):
                    value = _ZERO
            out.append((lv, rv, value))
        return out

    def family(self, left: RepLabel, right: RepLabel, case: GGPCase) -> VariantReport:
        """:func:`select_nonzero_variant` on this run."""
        if not (left.rho.regular and right.rho.regular):
            raise ValueError(
                "variant selection expects a definite base factor "
                "(trivial or regular descriptors)"
            )
        results = self.evaluate(left, right, case, True)
        classes = _nonzero_classes(results)
        if classes > 1:
            raise _too_many_nonzero(classes, left, right)
        return VariantReport(tuple([(lv.label, rv.label, value) for lv, rv, value in results]))

    def profile_row(self, lists: tuple[list[RepLabel], ...], position: int, case: GGPCase) -> tuple:
        """The profile row of the labels of ``lists``, in order, in argument ``position`` of ``case``.

        Position 0 is left.  ``lists`` is a variant sweep's left list alone, or
        a walk's right lists, whose labels in one list make the walk's
        universe.  The row is
        ``(labels, sides, profiles, index, rows, tables)``: those labels, each
        label's :meth:`sides` in that position, each side list's interned
        profile, for each slot the bit mask of the positions of each symbol in
        it, the gate rows that :meth:`gate_mask` builds on the row and the
        mask tables that :meth:`groups` builds on it (bit j stands for
        ``labels[j]``).  A profile holds what :meth:`evaluate` reads of each
        side of an open family but the group rank: its ``kh``, resolved bits,
        unipotence, slot regularity and descriptor.  Built once per run for
        each tuple of lists, position and case, and held with the lists, so
        walks with the same right lists share one universe, its gate rows and
        its mask tables.
        """
        key = (*map(id, lists), position, case)
        entry = self._profile_rows.get(key)
        if entry is None:
            supplied, slots, interned = self.bits[position], case.slots[position], self._interned
            labels = [label for part in lists for label in part]
            sides = [self.sides(label, supplied, slots) for label in labels]
            profiles, index = [], ({}, {})
            for j, (label, variants) in enumerate(zip(labels, sides)):
                facts = []
                for side in variants:
                    v = side.label
                    regular = symbol_regular_by_convention(v.lam), symbol_regular_by_convention(v.lam_prime)
                    facts.append((side.kh, side.bits, is_unipotent_label(v), regular, v.rho))
                profiles.append(interned.setdefault(tuple(facts), len(interned)))
                for s, held in zip((label.lam, label.lam_prime), index):
                    held[s] = held.get(s, 0) | 1 << j
            entry = self._profile_rows[key] = lists, (labels, sides, profiles, index, {}, {})
        return entry[1]

    def groups(
        self, case: GGPCase, left_row: tuple, i: int, right_row: tuple, mask: int
    ) -> list[tuple[tuple, int]]:
        """The families in ``mask`` of left label i against the right row, grouped by memo key.

        Each ``(key, group)`` masks families of ``left_row``'s label i
        against ``right_row``'s labels, and what :meth:`evaluate` makes of
        each family in it whose pair-condition gate is open depends only on
        ``key``.  This is the one builder of that key: the case, the two
        :meth:`profile_row` profiles and, at unequal ranks, the sign of
        rank(left) - rank(right), which is all that the order of
        :func:`_in_order` and the rank comparisons of
        :func:`_unipotent_slot_gates` read of the ranks.  So the families of
        one right profile and rank sign form one group, read off a mask
        table of the right row, one bit mask per (right profile, rank sign),
        built once per left rank.  At equal Fourier-Jacobi ranks the left
        list is one of the right row's lists, and which side pairs
        :func:`_in_order` swaps belongs to the pair, so that pattern takes
        the sign's place and each family is a group of one.  Groups come in
        no particular order.
        """
        lefts, lsides, lprofiles, *_ = left_row
        rights, rsides, rprofiles, *_, tables = right_row
        rank, groups = lefts[i].group.rank, []
        table = tables.get(rank)
        if table is None:  # each (right profile, rank sign) mask, built once per left rank
            table = tables[rank] = {}
            for j, (profile, right) in enumerate(zip(rprofiles, rights)):
                at = profile, (rank > right.group.rank) - (rank < right.group.rank)
                table[at] = table.get(at, 0) | 1 << j
        for (profile, sign), positions in table.items():
            group = mask & positions
            if case is FOURIER_JACOBI and not sign:
                while group:
                    j = (group & -group).bit_length() - 1
                    group ^= 1 << j
                    groups.append((rprofiles[j], 1 << j, tuple([a.order > b.order for a in lsides[i] for b in rsides[j]])))
            else:
                groups.append((profile, group, sign))
        return [((case, lprofiles[i], profile, order), group) for profile, group, order in groups if group]


def _nonzero_classes(results: list[tuple[_Side, _Side, Multiplicity]]) -> int:
    """How many variant classes, the sides' (k, h) pairs, come out nonzero in
    the ``results`` of :meth:`_VariantRun.evaluate`."""
    return len({(lv.kh, rv.kh) for lv, rv, value in results if value.kind in _NONZERO})


def _too_many_nonzero(classes: int, left: RepLabel, right: RepLabel) -> MultipleNonzero:
    """The error of a family with more than one nonzero variant class."""
    return MultipleNonzero(f"{classes} variant classes nonzero for {left} / {right}")


def ggp_multiplicity(
    left: RepLabel,
    right: RepLabel,
    case: GGPCase,
    ctx: TowerContext,
) -> Multiplicity:
    """Multiplicity of the pair under the restriction named by ``case``.

    The pair is normalized internally (larger rank first for Fourier-Jacobi,
    odd orthogonal first for Bessel) so that evaluating with swapped
    arguments returns the same value.

    Gate order: the necessary bands, then two-sided relevance, then the
    pair-condition gate - a definite failure anywhere gives Zero, and only
    then does an open orientation surface as undetermined.  Afterwards the
    base factor and the unipotent-side regularity gates decide between One,
    Zero and a symbolic base.
    """
    return _VariantRun(ctx).evaluate(left, right, case, False)[0][2]


# ---------------------------------------------------------------------------
# Variant selection
# ---------------------------------------------------------------------------


def select_nonzero_variant(
    left: RepLabel,
    right: RepLabel,
    case: GGPCase,
    ctx: TowerContext,
) -> VariantReport:
    """Evaluate the transpose-variant family and check the selection shape.

    Fourier-Jacobi varies the second slot on both sides (four pairs);
    Bessel varies both slots of the even orthogonal label (four pairs, the
    odd label fixed).  A slot equal to its own transpose gives one variant,
    not two.  At most one variant class may come out nonzero; more than one
    raises :class:`MultipleNonzero`.  That is a known gate defect, not a data
    condition: it happens with eps(-1) = - and supplied orientation bits
    (see :class:`MultipleNonzero`).

    The pair is validated once per family.  The pair-condition gate, which all
    variants share, is read at most once; closed, it makes the whole family Zero.
    """
    return _VariantRun(ctx).family(left, right, case)


# ---------------------------------------------------------------------------
# Branching decompositions
# ---------------------------------------------------------------------------


def default_rho_catalog(max_rank: int) -> tuple[RhoDescriptor, ...]:
    """One regular descriptor per residual rank, plus the trivial one."""
    return (TRIVIAL_RHO,) + tuple(
        RhoDescriptor(r, True, f"regular-{r}") for r in range(1, max_rank + 1)
    )


def branch_decomposition(
    pi: RepLabel,
    target: GroupTag,
    ctx: TowerContext,
) -> list[tuple[RepLabel, Multiplicity]]:
    """Constituents of a unipotent label's restriction to the target group.

    The case is the one whose ``families`` are the source's and the target's,
    at equal rank: a symplectic label against symplectic candidates (through
    the oscillator twist) or an odd against even orthogonal candidates.
    Candidates run over the labels of the target built from
    :func:`default_rho_catalog`; rows whose multiplicity is definitely zero
    are dropped, and orientation-blocked rows are kept as undetermined
    rather than silently discarded.

    The label walk keeps only the candidate slot symbols that pass their own
    key of the pair-condition gate (:meth:`_VariantRun.candidate_gate`, which
    evaluation reads too), so no nonzero row is lost.  It reads each layer of
    rank <= the target rank at most once per slot, so a target whose sweep
    exceeds ``MAX_LAYER_SYMBOLS`` (rank 23 and up) raises ``ValueError``
    before any layer is built.

    Output order: first-slot defect, second-slot defect, rows, descriptor
    id, sign flag.
    """
    if not is_unipotent_label(pi):
        raise NotUnipotent(f"{pi} is not a unipotent label")
    families = (pi.group.family, target.family)
    case = next((case for case in GGPCase if case.families == families), None)
    if case is None:
        raise CaseMismatch(
            f"no branching rule from {pi.group} to {target}; expected a "
            "symplectic or odd-orthogonal-to-even restriction"
        )
    if target.rank != pi.group.rank:
        raise RankMismatch(
            f"target rank {target.rank} != source rank parameter {pi.group.rank}"
        )
    _check_sweep(target.rank)
    run = _VariantRun(ctx)
    keep = partial(run.candidate_gate, pi, case=case)
    rows = []
    catalog = default_rho_catalog(target.rank)
    for candidate in enumerate_labels(target, ctx.eps_minus_one, catalog, keep):
        value = run.evaluate(pi, candidate, case, False)[0][2]
        if not value.is_zero:
            rows.append((candidate, value))
    rows.sort(
        key=lambda row: (
            symbol_defect(row[0].lam),
            symbol_defect(row[0].lam_prime),
            row[0].lam,
            row[0].lam_prime,
            row[0].rho.id,
            row[0].eps_flag or 0,
        )
    )
    return rows
