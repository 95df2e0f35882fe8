"""Definition-driven verifiers for the closed-form operations.

Everything here recomputes results from first principles - pair-membership
scans, bipartition counting, exhaustive variant evaluation - and compares
against the closed forms.  These checks are part of the library surface,
not just of the test suite: table generation pipelines run them as gates.

The brute-force side shares only the raw combinatorics (symbols, strips,
enumeration) with the code it checks; in particular the first-occurrence
scan never consults the closed-form index except to compare.
"""

from __future__ import annotations

import time
from bisect import bisect
from collections import Counter
from itertools import accumulate, count, product

from .catalog import (
    MINUS,
    PLUS,
    GroupFamily,
    Sign,
    cuspidal_symbol,
    enumerate_labels,
    format_sign,
    is_unipotent_cuspidal,
    o_even,
    o_odd,
    sign_pow,
    sp,
    unipotent_label,
)
from .core import (
    Symbol,
    SymbolFamily,
    Value,
    _check_bound,
    _check_int,
    _check_sweep,
    admissible_defects,
    count_symbols,
    defect_rank_offset,
    enumerate_symbols,
    format_symbol,
    symbol_defect,
    symbol_rank,
    symbol_transpose,
)
from .ggp import BESSEL, FOURIER_JACOBI, GGPCase, _nonzero_classes, _too_many_nonzero, _VariantRun
from .theta import (
    ThetaDirection,
    TowerContext,
    _fiber,
    _fiber_source,
    default_orientation,
    first_occurrence_unipotent,
)


class VerificationReport(Value):
    """Outcome of one verifier run: counts, failures and elapsed time.

    The one mutable ``Value``: it grows while its run checks, so unlike the
    checked values it takes assignment and has no hash.  A verifier records
    each check through :meth:`record`; a hot loop counts a pass in place
    (``report.checked += 1``) and calls ``record(False, ...)`` only when the
    check fails, so a passing check builds no failure text.  No verifier
    builds a closure per check.
    """

    __slots__ = _fields = ("checked", "failures", "elapsed")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, checked: int = 0, failures: list[dict] | None = None, elapsed: float = 0.0):
        self.checked = checked
        self.failures = [] if failures is None else failures
        self.elapsed = elapsed

    @property
    def passed(self) -> bool:
        """No failures over at least one check; an empty run does not pass."""
        return self.checked > 0 and not self.failures

    def record(self, ok: bool, input_repr: str, expected, actual) -> None:
        """Count one check, and keep its text as a failure unless ``ok``."""
        self.checked += 1
        if not ok:
            self.failures.append(
                {"input": input_repr, "expected": str(expected), "actual": str(actual)}
            )

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "checked": self.checked,
                "failures": self.failures,
                "elapsed_ms": round(self.elapsed * 1000, 3),
            },
            sort_keys=True,
        )

    def __str__(self):
        """What ``thetasym verify`` prints after ``suite NAME: ``; the elapsed time is left out."""
        status = "pass" if self.passed else "FAIL"
        lines = [f"{status} ({self.checked} checks, {len(self.failures)} failures)"]
        lines += [f"  {f['input']}: expected {f['expected']}, got {f['actual']}" for f in self.failures]
        return "\n".join(lines)


def default_scan_bound(lam: Symbol) -> int:
    """Rank bound guaranteed to contain the first occurrence of ``lam``.

    The closed forms never exceed rank + (|defect| + 1) / 2; one extra step
    of headroom keeps the bound safe for either tower.
    """
    return symbol_rank(lam) + (abs(symbol_defect(lam)) + 1) // 2 + 1


def brute_first_occurrence(lam: Symbol, sign: Sign, max_rank: int) -> int | None:
    """Smallest target rank <= ``max_rank`` with a nonempty fiber, or None; refused as ``theta_fiber`` is."""
    _check_int(max_rank, "max_rank")
    _fiber_source(lam, sign)
    return _fiber(lam, sign, range(max_rank + 1))[0]


def verify_f1(max_rank: int) -> VerificationReport:
    """Closed-form first occurrence against exhaustive fiber scanning.

    Covers every symplectic-type symbol of rank <= max_rank in both towers
    and every even-type symbol in its own tower; checks the index, that the
    fiber at the index is a singleton, and that its member is the closed
    form's lift.  The fiber scan builds partners from the source's rows and
    reads no layer, so the layers the sweep keeps are its sources', of rank
    <= max_rank.  A sweep whose layers hold more than ``MAX_LAYER_SYMBOLS``
    symbols in all raises ``ValueError`` before any layer is built.
    """
    _check_sweep(max_rank)
    report = VerificationReport()
    start = time.monotonic()
    # an even-type source pairs only on the tower of its family's sign
    sources = [(SymbolFamily.SP_UNIPOTENT, (PLUS, MINUS), ThetaDirection.SP_TO_O)] + [
        (family, (family.sign,), ThetaDirection.O_TO_SP)
        for family in (SymbolFamily.O_EVEN_PLUS, SymbolFamily.O_EVEN_MINUS)
    ]
    for rank in range(max_rank + 1):
        for family, signs, direction in sources:
            for lam in enumerate_symbols(rank, family):
                scan = range(default_scan_bound(lam) + 1)
                for sign in signs:
                    closed = first_occurrence_unipotent(lam, sign, direction)
                    brute, fiber = _fiber(lam, sign, scan)
                    if brute == closed.index and len(fiber) == 1 and fiber[0] == closed.lift:
                        report.checked += 1
                    else:
                        report.record(
                            False,
                            f"{format_symbol(lam)} sign {format_sign(sign)} {direction.value}",
                            f"index {closed.index}, lift {format_symbol(closed.lift)}",
                            f"index {brute}, fiber {[format_symbol(s) for s in fiber]}",
                        )
    report.elapsed = time.monotonic() - start
    return report


def verify_orientation(max_k: int) -> VerificationReport:
    """Orientation bits derived from the cuspidal chain against the brute scan.

    For each k <= max_k, the bit of the sp cuspidal staircase label must name
    the even tower with the smaller scanned first occurrence.  For k >= 1 the
    even staircase and its transpose label one group, and each one's bit must
    be + exactly when its own scanned index in the symplectic tower is the
    smaller.  A failure shows the two indices: (plus, minus) or (own, transpose).
    A non-int ``max_k`` raises ``TypeError``, and staircases (4k + 1 entries for each k)
    of more than ``MAX_LAYER_SYMBOLS`` entries in all ``ValueError``, before any is built.
    """
    _check_int(max_k, "max_k")
    entries = max(max_k + 1, 0) * (2 * max_k + 1)
    _check_bound(entries, f"the k <= {max_k} orientation sweep", "staircase entries")
    report = VerificationReport()
    start = time.monotonic()

    def scan(s: Symbol, sign: Sign) -> int | None:
        return _fiber(s, sign, range(default_scan_bound(s) + 1))[0]

    for k in range(max_k + 1):
        lam = cuspidal_symbol(GroupFamily.SP, k)
        cases = [(unipotent_label(sp(symbol_rank(lam)), lam), scan(lam, PLUS), scan(lam, MINUS))]
        if k:  # the empty even staircase of k = 0 is its own transpose
            stair, tower = cuspidal_symbol(GroupFamily.O_EVEN, k), sign_pow(k)
            twin, group = symbol_transpose(stair), o_even(k * k, tower)
            own, twin_own = scan(stair, tower), scan(twin, tower)
            cases += [(unipotent_label(group, stair), own, twin_own),
                      (unipotent_label(group, twin), twin_own, own)]
        for label, mine, other in cases:
            small, bit = PLUS if mine < other else MINUS, default_orientation(label)
            report.record(bit == small, str(label), f"{format_sign(small)} from indices {(mine, other)}",
                          bit if bit is None else format_sign(bit))
    report.elapsed = time.monotonic() - start
    return report


def verify_counts(max_rank: int) -> VerificationReport:
    """Enumeration sizes against independent bipartition counting.

    Also checks the cuspidal pattern: within each admissible defect there is
    exactly one cuspidal staircase, occurring exactly at its staircase rank.
    Oversized sweeps are refused as in :func:`verify_f1`.
    """
    _check_sweep(max_rank)
    report = VerificationReport()
    start = time.monotonic()
    for family in SymbolFamily:
        for rank in range(max_rank + 1):
            symbols = enumerate_symbols(rank, family)
            expected = count_symbols(rank, family)
            report.record(len(symbols) == expected, f"count {family.value} rank {rank}", expected, len(symbols))
            cuspidals = Counter(symbol_defect(s) for s in symbols if is_unipotent_cuspidal(s))
            for defect in admissible_defects(rank, family):
                expected_count = 1 if rank == defect_rank_offset(defect) else 0
                report.record(
                    cuspidals[defect] == expected_count,
                    f"cuspidal pattern {family.value} rank {rank} defect {defect}",
                    expected_count,
                    cuspidals[defect],
                )
    report.elapsed = time.monotonic() - start
    return report


#: Families a variant sweep may check.  Families are streamed walk by
#: walk, never stored, so this bound guards time, not memory: rank 6
#: (21,656,970 families) runs, and rank 7 (121,512,138) is refused before
#: any family is read.  Read at each check; no command-line option sets it.
MAX_VARIANT_FAMILIES = 25_000_000


def _variant_families(max_rank: int, eps_minus_one: Sign) -> list[tuple[list, tuple, GGPCase, list]]:
    """The (lefts, rights, case, blocks) walks of a variant sweep, counted before any is read.

    A walk pairs one left label list with the right lists it meets, and its
    families are its (left, right) pairs, left by left, over the right lists
    in order.  A block is one left list against one right list, and
    ``blocks[k]`` is the place of the block of ``rights[k]`` in family order:
    Fourier-Jacobi pairs an sp(n) label with an sp(m) label, m <= n, and
    Bessel every odd with every even orthogonal label, n, m, then the sign of
    each.  So the two Bessel walks of one rank, one per sign, interleave
    their blocks.  The trivial-descriptor label lists are built once each,
    rank by rank, while the families they give are counted, and a walk
    holds the lists themselves, each the labels of one group; every Bessel
    walk holds the same right lists.  A count over
    ``MAX_VARIANT_FAMILIES`` raises ``ValueError`` at its first rank; below
    ``max_rank`` the message then says "more than".
    """
    ranks, signs = range(max_rank + 1), (PLUS, MINUS)
    sps, odd, even, fj = [], {}, {}, 0
    for n in ranks:
        sps.append(list(enumerate_labels(sp(n))))
        fj += len(sps[n]) * sum(map(len, sps))
        for e in signs:
            odd[n, e] = list(enumerate_labels(o_odd(n, e), eps_minus_one))
            even[n, e] = list(enumerate_labels(o_even(n, e), eps_minus_one))
        families = fj + sum(map(len, odd.values())) * sum(map(len, even.values()))
        more = "" if n == max_rank else "more than "
        _check_bound(families, f"the rank <= {max_rank} variant sweep", "families", more,
                     "MAX_VARIANT_FAMILIES", MAX_VARIANT_FAMILIES)
    place = count()  # each block's place in family order
    walks = [(sps[n], tuple(sps[: n + 1]), FOURIER_JACOBI, [next(place) for _ in ranks[: n + 1]]) for n in ranks]
    bessel = {(n, e): (odd[n, e], tuple(even.values()), BESSEL, []) for n, e in product(ranks, signs)}
    for n, _, e, _ in product(ranks, ranks, signs, signs):
        bessel[n, e][3].append(next(place))
    return walks + list(bessel.values())


def verify_variant_uniqueness(max_rank: int, ctx: TowerContext) -> VerificationReport:
    """At most one transpose variant per family receives nonzero multiplicity.

    Runs over all case-compatible pairs of trivial-descriptor labels up to
    the rank bound; defect-0 slots collapse with their transposes into a
    single variant (they pass identical gates).  A family with more than one
    nonzero variant class is recorded as a failure, with the text of the
    :class:`~thetasym.errors.MultipleNonzero` that
    :func:`~thetasym.ggp.select_nonzero_variant` raises for it.

    The sweep walks each left list of :func:`_variant_families` once,
    against its universe: the labels of its right lists in one list, held
    by the :meth:`~thetasym.ggp._VariantRun.profile_row` of those lists, so
    that every Bessel walk shares one universe.  For each left label one
    :meth:`~thetasym.ggp._VariantRun.gate_mask` marks the families of the
    universe whose pair-condition gate is open.  A closed family is
    all Zero, so it is counted as a passed check in bulk and never
    evaluated.  :meth:`~thetasym.ggp._VariantRun.groups` splits the open
    ones by memo key (the case, the interned profile of each side list from
    the profile rows of the left list and of the universe, and the sign of
    rank(left) - rank(right) or, at equal Fourier-Jacobi ranks, the
    normalized order's swap pattern), one group per right profile and rank
    sign.  Each group reads a per-run memo of the number of nonzero variant
    classes once; a new key is filled by
    :meth:`~thetasym.ggp._VariantRun.evaluate` on the group's first family.
    A group then counts its families as passed checks in bulk, or fails them
    all.  Failing families are kept with their block's place in family
    order and their left and universe positions, and recorded at the end in
    that order, so failures come in family order though the blocks of two
    Bessel walks interleave.  Oversized sweeps are refused as in
    :func:`verify_f1`, and then a sweep of more than
    ``MAX_VARIANT_FAMILIES`` families (rank 7 and up) as in
    :func:`_variant_families`.
    """
    _check_sweep(max_rank)
    report = VerificationReport()
    start = time.monotonic()
    run = _VariantRun(ctx)
    classes: dict[tuple, int] = {}  # nonzero variant classes by memo key
    failed = []  # (block, left position, universe position, left, right, nonzero classes) of each failing family
    for lefts, rights, case, blocks in _variant_families(max_rank, ctx.eps_minus_one):
        left_row, right_row = run.profile_row((lefts,), 0, case), run.profile_row(rights, 1, case)
        universe, ends = right_row[0], list(accumulate(map(len, rights)))
        report.checked += len(lefts) * len(universe)
        for i, left in enumerate(lefts):
            for key, group in run.groups(case, left_row, i, right_row, run.gate_mask(left, right_row, case)):
                nonzero = classes.get(key)
                if nonzero is None:
                    right = universe[(group & -group).bit_length() - 1]
                    nonzero = classes[key] = _nonzero_classes(run.evaluate(left, right, case, True))
                if nonzero > 1:
                    for j in range(group.bit_length()):
                        if group >> j & 1:
                            failed.append((blocks[bisect(ends, j)], i, j, left, universe[j], nonzero))
    report.checked -= len(failed)  # recorded below, in family order
    for *_, left, right, nonzero in sorted(failed):
        report.record(False, f"{left} / {right}", "<=1 class", _too_many_nonzero(nonzero, left, right))
    report.elapsed = time.monotonic() - start
    return report
