"""Symbol combinatorics for the finite theta correspondence and branching laws.

The package is organized in layers:

* :mod:`thetasym.core` - partitions, bipartitions and reduced two-row
  symbols, with rank/defect invariants, the staircase bijection and
  deterministic enumeration;
* :mod:`thetasym.catalog` - representation labels of finite symplectic and
  orthogonal groups, cuspidal staircases and the label grammar;
* :mod:`thetasym.theta` - pair-membership predicates for the oscillator
  representation, closed-form first occurrences and the cuspidal chain;
* :mod:`thetasym.ggp` - relevance, branching multiplicities, variant
  selection and restriction decompositions;
* :mod:`thetasym.oracle` - brute-force verifiers that gate the closed
  forms;
* :mod:`thetasym.cli` - table generation and verification from the shell.

All values are immutable and all operations pure functions.
"""

from .catalog import (
    KH,
    MINUS,
    PLUS,
    GroupFamily,
    GroupTag,
    RepLabel,
    RhoDescriptor,
    Sign,
    TRIVIAL_RHO,
    cuspidal_symbol,
    enumerate_labels,
    eps_minus_one_from_q,
    format_label,
    format_sign,
    is_unipotent_cuspidal,
    is_unipotent_label,
    kh_of,
    make_label,
    o_even,
    o_odd,
    parse_group,
    parse_label,
    parse_sign,
    sp,
    symbol_regular_by_convention,
    unipotent_label,
)
from .core import (
    Bipartition,
    EMPTY_SYMBOL,
    Partition,
    Symbol,
    SymbolFamily,
    ZERO_SYMBOL,
    close_dominates,
    enumerate_symbols,
    format_bipartition,
    format_symbol,
    parse_symbol,
    partition,
    symbol_defect,
    symbol_normalize,
    symbol_rank,
    symbol_transpose,
    upsilon,
    upsilon_inverse,
)
from .errors import (
    CaseMismatch,
    DefectClassMismatch,
    MultipleNonzero,
    NormalizationError,
    NotUnipotent,
    ParseError,
    RankMismatch,
    RankOverflow,
    SignMismatch,
    ThetasymError,
)
from .ggp import (
    BESSEL,
    FOURIER_JACOBI,
    GGPCase,
    Multiplicity,
    VariantReport,
    branch_decomposition,
    default_rho_catalog,
    ggp_multiplicity,
    is_strongly_relevant,
    select_nonzero_variant,
)
from .oracle import (
    VerificationReport,
    brute_first_occurrence,
    verify_counts,
    verify_f1,
    verify_orientation,
    verify_variant_uniqueness,
)
from .theta import (
    CuspidalThetaVariant,
    FirstOccurrence,
    GVariant,
    ThetaDirection,
    TowerContext,
    cuspidal_theta,
    first_occurrence_unipotent,
    in_B,
    in_G,
    theta_fiber,
)

__version__ = "0.1.0"
