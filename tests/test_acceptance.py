"""Acceptance suite: desk-scale exact checks with stated runtime budgets.

Each criterion prints one pass/fail line (run ``pytest -s`` to see them all);
a failing assertion marks the criterion failed.
"""

import random
import time

from thetasym.catalog import (
    MINUS,
    PLUS,
    GroupFamily,
    RhoDescriptor,
    TRIVIAL_RHO,
    cuspidal_symbol,
    enumerate_labels,
    kh_of,
    make_label,
    o_even,
    o_odd,
    sp,
    unipotent_label,
)
from thetasym.core import (
    EMPTY_SYMBOL,
    SymbolFamily,
    bipartition_count,
    defect_rank_offset,
    admissible_defects,
    enumerate_symbols,
    symbol_defect,
    symbol_normalize,
    symbol_rank,
    symbol_transpose,
    upsilon,
    upsilon_inverse,
)
from thetasym.ggp import (
    BESSEL,
    FOURIER_JACOBI,
    MultKind,
    ggp_multiplicity,
    branch_decomposition,
)
from thetasym.oracle import (
    brute_first_occurrence,
    default_scan_bound,
    verify_f1,
    verify_variant_uniqueness,
)
from thetasym.theta import (
    CuspidalThetaVariant,
    ThetaDirection,
    TowerContext,
    cuspidal_theta,
    first_occurrence_unipotent,
    in_B,
)

from symbol_helpers import random_symbol, relevance_necessary, shift_symbol

CTX = TowerContext(eps_minus_one=PLUS)


def _report(number: int, description: str, ok: bool, elapsed: float | None = None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {number} {status}: {description}{timing}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_bijection_counts():
    start = time.monotonic()
    ok = True
    for n in range(9):
        for family in SymbolFamily:
            expected = sum(
                bipartition_count(n - defect_rank_offset(d))
                for d in admissible_defects(n, family)
            )
            ok = ok and len(enumerate_symbols(n, family)) == expected
    ok = ok and len(enumerate_symbols(1, SymbolFamily.SP_UNIPOTENT)) == 2
    ok = ok and len(enumerate_symbols(2, SymbolFamily.SP_UNIPOTENT)) == 6
    elapsed = time.monotonic() - start
    _report(1, "enumeration matches bipartition counts, n <= 8", ok and elapsed < 5.0, elapsed)


def test_criterion_2_closed_form_equals_brute():
    start = time.monotonic()
    report = verify_f1(18)
    elapsed = time.monotonic() - start
    _report(
        2,
        f"first-occurrence closed form == exhaustive scan, rank <= 18 ({report.checked} checks)",
        report.passed and elapsed < 60.0,
        elapsed,
    )


def test_criterion_3_cuspidal_chain_consistency():
    ok = True
    for k in range(4):
        for variant in CuspidalThetaVariant:
            lam, lam_prime, sign = cuspidal_theta(k, variant)
            ok = ok and in_B(lam, lam_prime, sign)
            ok = ok and symbol_rank(lam) == k * (k + 1)
            ok = ok and symbol_defect(lam) == (-1) ** k * (2 * k + 1)
            if variant is CuspidalThetaVariant.DOWN:
                ok = ok and symbol_rank(lam_prime) == k * k
                ok = ok and abs(symbol_defect(lam_prime)) == 2 * k
            else:
                ok = ok and symbol_rank(lam_prime) == (k + 1) ** 2
                ok = ok and abs(symbol_defect(lam_prime)) == 2 * k + 2
    _report(3, "cuspidal chain satisfies pairing, ranks and defects, k <= 3", ok)


def test_criterion_4_conservation():
    """On each sp cuspidal staircase the closed form agrees with the scan on
    both towers, and the two first occurrences sum to 2n + 1."""
    ok = True
    for k in range(9):
        lam = cuspidal_symbol(GroupFamily.SP, k)
        indices = []
        for sign in (PLUS, MINUS):
            closed = first_occurrence_unipotent(lam, sign, ThetaDirection.SP_TO_O).index
            ok = ok and closed == brute_first_occurrence(lam, sign, default_scan_bound(lam))
            indices.append(closed)
        ok = ok and sum(indices) == 2 * k * (k + 1) + 1
    _report(4, "cuspidal staircase indices == scan, sum to 2n+1, k <= 8", ok)


def test_criterion_5_variant_uniqueness():
    start = time.monotonic()
    report = verify_variant_uniqueness(6, CTX)
    elapsed = time.monotonic() - start
    _report(
        5,
        f"at most one transpose variant nonzero, ranks <= 6 ({report.checked} families)",
        report.passed and elapsed < 60.0,
        elapsed,
    )


def _trivial_symbol_sp(n):
    """The symbol of the trivial representation, identified independently:
    the unique rank-n symbol of the symplectic family whose plus-tower first
    occurrence is 0 (the one-dimensional oscillator space pairs only with
    the trivial representation)."""
    hits = [
        s
        for s in enumerate_symbols(n, SymbolFamily.SP_UNIPOTENT)
        if first_occurrence_unipotent(s, PLUS, ThetaDirection.SP_TO_O).index == 0
    ]
    assert len(hits) == 1
    return hits[0]


def _trivial_symbol_o_even_plus(n):
    """Same identification on the even orthogonal side: first occurrence 0
    in the symplectic tower."""
    hits = [
        s
        for s in enumerate_symbols(n, SymbolFamily.O_EVEN_PLUS)
        if first_occurrence_unipotent(s, PLUS, ThetaDirection.O_TO_SP).index == 0
    ]
    assert len(hits) == 1
    return hits[0]


def test_criterion_6_multiplicity_one_branching():
    start = time.monotonic()
    ok = True
    for n in range(4):
        for eps in (PLUS, MINUS):
            for lam in enumerate_symbols(n, SymbolFamily.SP_UNIPOTENT):
                for flag in (PLUS, MINUS):
                    pi = unipotent_label(o_odd(n, eps), lam, flag)
                    for eps2 in (PLUS, MINUS):
                        rows = branch_decomposition(pi, o_even(n, eps2), CTX)
                        ok = ok and all(v.is_one for _, v in rows if v.is_nonzero)
                        labels = [label for label, _ in rows]
                        ok = ok and len(labels) == len(set(labels))
    # cross-check against direct character restriction of the trivial
    # character: restriction of 1 is 1, so the trivial constituent appears
    # exactly once and with multiplicity one
    for n in (0, 1):
        pi = unipotent_label(o_odd(n, PLUS), _trivial_symbol_sp(n), PLUS)
        rows = branch_decomposition(pi, o_even(n, PLUS), CTX)
        trivial_target = _trivial_symbol_o_even_plus(n)
        hits = [
            (label, value)
            for label, value in rows
            if label.lam == trivial_target
            and label.lam_prime == EMPTY_SYMBOL
            and label.rho.is_trivial
        ]
        ok = ok and len(hits) == 1 and hits[0][1].is_one
    elapsed = time.monotonic() - start
    _report(6, "odd-to-even branching multiplicity free, n <= 3", ok, elapsed)


def test_criterion_7_gate_soundness():
    start = time.monotonic()
    rng = random.Random(2024)
    extra = (
        TRIVIAL_RHO,
        RhoDescriptor(1, True, "regular-1"),
        RhoDescriptor(2, True, "regular-2"),
        RhoDescriptor(1, False, "cusp-gl1"),
    )
    sp_pool, odd_pool, even_pool = [], [], []
    for n in range(5):
        sp_pool.extend(enumerate_labels(sp(n), PLUS, extra))
        for eps in (PLUS, MINUS):
            odd_pool.extend(enumerate_labels(o_odd(n, eps), PLUS, extra))
            even_pool.extend(enumerate_labels(o_even(n, eps), PLUS, extra))
    ok = True
    full_bits = TowerContext(
        eps_minus_one=PLUS,
        orient_left=PLUS,
        orient_right=MINUS,
        orient_left_alt=PLUS,
        orient_right_alt=MINUS,
    )
    for i in range(10_000):
        if i % 2 == 0:
            left, right = rng.choice(sp_pool), rng.choice(sp_pool)
            case = FOURIER_JACOBI
            ordered = (
                (left, right)
                if left.group.rank >= right.group.rank
                else (right, left)
            )
        else:
            left, right = rng.choice(odd_pool), rng.choice(even_pool)
            case = BESSEL
            ordered = (left, right)
        value = ggp_multiplicity(left, right, case, CTX)
        if not relevance_necessary(kh_of(ordered[0]), kh_of(ordered[1]), case):
            ok = ok and value.is_zero
        if left.rho.is_trivial and right.rho.is_trivial:
            ok = ok and value.kind is not MultKind.SYMBOLIC
        if value.is_undetermined:
            resolved = ggp_multiplicity(left, right, case, full_bits)
            ok = ok and not resolved.is_undetermined
    elapsed = time.monotonic() - start
    _report(7, "gate soundness under 10^4 random pairs, ranks <= 4", ok, elapsed)


def test_criterion_8_roundtrip_suite():
    start = time.monotonic()
    ok = True
    for n in range(9):
        for family in (
            SymbolFamily.SP_UNIPOTENT,
            SymbolFamily.O_EVEN_PLUS,
            SymbolFamily.O_EVEN_MINUS,
        ):
            for s in enumerate_symbols(n, family):
                ok = ok and upsilon_inverse(upsilon(s), symbol_defect(s)) == s
                ok = ok and symbol_transpose(symbol_transpose(s)) == s
                ok = ok and symbol_normalize(s.row_a, s.row_b) == s
    rng = random.Random(77)
    for _ in range(10_000):
        s = random_symbol(rng)
        raw = shift_symbol(s, rng.randrange(1, 4))
        again = symbol_normalize(*raw)
        ok = ok and again == s
        ok = ok and symbol_rank(again) == symbol_rank(s)
        ok = ok and symbol_defect(again) == symbol_defect(s)
    elapsed = time.monotonic() - start
    _report(8, "round trips and class invariance (exhaustive rank <= 8 + 10^4 random)", ok, elapsed)
