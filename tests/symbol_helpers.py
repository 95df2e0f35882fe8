"""Random and shifted symbols for the fuzz and round-trip tests, guards
that fail any layer build or variant family evaluation, and
definition-level references that the library itself no longer needs."""

import thetasym.core as core
import thetasym.theta as theta
from thetasym.catalog import KH, MINUS, PLUS, GroupFamily, RepLabel, Sign
from thetasym.ggp import FOURIER_JACOBI
from thetasym.core import (
    Bipartition,
    Partition,
    Symbol,
    SymbolFamily,
    _defect_layer,
    admissible_defects,
    close_dominates,
    defect_rank_offset,
    symbol_defect,
    symbol_transpose,
    upsilon,
    upsilon_inverse,
)
from thetasym.theta import GVariant, ThetaDirection, _band, _interlaces


def random_symbol(rng, max_rank: int = 12) -> Symbol:
    """A uniform-ish random reduced symbol."""
    rank = rng.randrange(max_rank + 1)
    choices = [
        d for fam in SymbolFamily for d in admissible_defects(rank, fam)
    ]
    defect = rng.choice(choices)
    residual = rank - defect_rank_offset(defect)
    cut = rng.randrange(residual + 1)
    up = random_partition(rng, cut)
    lo = random_partition(rng, residual - cut)
    return upsilon_inverse(Bipartition(up, lo), defect)


def random_partition(rng, n: int) -> Partition:
    parts = []
    remaining = n
    bound = n
    while remaining > 0:
        x = rng.randrange(1, min(bound, remaining) + 1)
        parts.append(x)
        bound = x
        remaining -= x
    return tuple(parts)


def shift_symbol(s: Symbol, steps: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Un-reduced raw rows equivalent to ``s``, shifted up ``steps`` times."""
    a, b = s.row_a, s.row_b
    for _ in range(steps):
        a = tuple(x + 1 for x in a) + (0,)
        b = tuple(x + 1 for x in b) + (0,)
    return a, b


def forbid_layer_builds(monkeypatch) -> None:
    """Make every symbol builder of ``core``, and the partner builders of
    ``theta``, fail, for refusal tests."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("a layer was built for a refused size")

    for name in ("bipartitions_of", "_partitions", "_symbol_of", "upsilon_inverse"):
        monkeypatch.setattr(core, name, must_not_run)
    for name in ("_symbol_of", "_inside"):
        monkeypatch.setattr(theta, name, must_not_run)


def forbid_variant_families(monkeypatch) -> list:
    """Make every variant family evaluation fail, for refusal tests; the
    returned list collects each group whose labels ``oracle`` lists."""
    import thetasym.oracle as oracle
    from thetasym.ggp import _VariantRun

    def must_not_run(*args, **kwargs):
        raise AssertionError("a family was evaluated in a refused sweep")

    built = []
    enumerate_labels = oracle.enumerate_labels

    def spy(group, *args):
        built.append(group)
        return enumerate_labels(group, *args)

    monkeypatch.setattr(_VariantRun, "family", must_not_run)
    monkeypatch.setattr(oracle, "enumerate_labels", spy)
    return built


def partners_by_layer_filter(source: Symbol, sign: Sign, rank: int) -> list[Symbol]:
    """The reference for ``theta._partners``: the whole target layer, filtered by the band.

    The defect equation names the one layer to read, and :func:`_band` is
    symmetric, so each member is tested with the band alone.  An even-type
    source whose partner defect is not 1 mod 4 has none.
    """
    want = sign - symbol_defect(source)
    if want % 2 and not SymbolFamily.SP_UNIPOTENT.admits_defect(want):
        return []
    bp = upsilon(source)
    return [s for s in _defect_layer(rank, want) if _band(bp, upsilon(s), sign, _interlaces)]


def in_G_by_hand(lam: Symbol, lam_prime: Symbol) -> GVariant | None:
    """The reference for ``theta.in_G``: its four sets written out as eight
    ``close_dominates`` tests on the untransposed rows, one pair per set."""
    d, d2 = symbol_defect(lam), symbol_defect(lam_prime)
    up, lo = upsilon(lam)
    up2, lo2 = upsilon(lam_prime)
    if d > 0:
        if d2 == d - 1 and close_dominates(up, up2) and close_dominates(lo2, lo):
            return GVariant.EVEN_PLUS
        if d2 == MINUS - d and close_dominates(lo2, up) and close_dominates(lo, up2):
            return GVariant.EVEN_MINUS
    if d < 0:
        if d2 == d + 1 and close_dominates(up2, up) and close_dominates(lo, lo2):
            return GVariant.ODD_MINUS
        if d2 == PLUS - d and close_dominates(up2, lo) and close_dominates(up, lo2):
            return GVariant.ODD_PLUS
    return None


def first_fiber_by_ranks(
    lam: Symbol, sign: Sign, direction: ThetaDirection, max_rank: int
) -> tuple[int | None, list[Symbol]]:
    """The reference for ``oracle._first_fiber``: one single-rank call per rank.

    An sp-to-o source asks ``theta_fiber`` and an o-to-sp one ``_partners``
    at each rank from 0 up, so the source is set up again at every rank and
    an sp-to-o source is class-checked only once a rank is scanned.
    """
    fiber_at = theta.theta_fiber if direction is ThetaDirection.SP_TO_O else theta._partners
    for rank in range(max_rank + 1):
        fiber = fiber_at(lam, sign, rank)
        if fiber:
            return rank, fiber
    return None, []


def sgn(label: RepLabel) -> RepLabel:
    """The sign twist of an orthogonal label, the reference for the equivariance checks.

    On an even orthogonal group it transposes both symbols; on an odd one it
    flips the eps flag.  It is an involution, and undefined on symplectic groups.
    """
    if label.group.family is GroupFamily.O_EVEN:
        return label._replace(
            lam=symbol_transpose(label.lam), lam_prime=symbol_transpose(label.lam_prime)
        )
    assert label.group.family is GroupFamily.O_ODD, label
    return label._replace(eps_flag=-label.eps_flag)


def partition_transpose(p: Partition) -> Partition:
    """Conjugate partition (column counts of the Young diagram).

    Involutive and size preserving: ``[3, 1] -> [2, 1, 1]``.
    """
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > j) for j in range(p[0]))


def relevance_necessary(kh_left: KH, kh_right: KH, case) -> bool:
    """Orientation-free necessary bands for nonzero multiplicity.

    Fourier-Jacobi pairs cross the slots: k against |h'| and k' against |h|.
    Bessel pairs them straight, with the odd orthogonal side on the left:
    |k'| in {k, k + 1} and |h'| in {h, h + 1}.
    """
    if case is FOURIER_JACOBI:
        return kh_left.k in (abs(kh_right.h), abs(kh_right.h) - 1) and kh_right.k in (
            abs(kh_left.h),
            abs(kh_left.h) - 1,
        )
    return abs(kh_right.k) in (kh_left.k, kh_left.k + 1) and abs(kh_right.h) in (
        kh_left.h,
        kh_left.h + 1,
    )
