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
* :mod:`thetasym.degrees` - character degrees of unipotent symbols and
  trivial-descriptor labels, an oracle that imports no ``ggp`` or
  ``oracle`` code;
* :mod:`thetasym.weil` - orbit counts of the Weil representation on small
  finite orthogonal groups, a group-level oracle for ``in_B`` that imports
  no ``theta``, ``ggp`` or ``oracle`` code;
* :mod:`thetasym.cli` - table generation and verification from the shell.

All values are immutable and all operations pure functions.

The public names below are loaded from their layer on first use (PEP 562),
so ``import thetasym`` loads no layer, and a command-line call only those
its verb needs.
"""

__version__ = "0.1.0"

#: Each public name by the module that defines it.
_HOMES = {
    name: module
    for module, names in {
        "catalog": (
            "KH", "MINUS", "PLUS", "GroupFamily", "GroupTag", "RepLabel", "RhoDescriptor", "Sign",
            "TRIVIAL_RHO", "cuspidal_symbol", "enumerate_labels", "eps_minus_one_from_q",
            "format_label", "format_sign", "is_unipotent_cuspidal", "is_unipotent_label", "kh_of",
            "make_label", "o_even", "o_odd", "parse_group", "parse_label", "parse_sign", "sp",
            "symbol_regular_by_convention", "unipotent_label",
        ),
        "core": (
            "Bipartition", "EMPTY_SYMBOL", "Partition", "Symbol", "SymbolFamily", "ZERO_SYMBOL",
            "close_dominates", "enumerate_symbols", "format_bipartition", "format_symbol",
            "parse_symbol", "partition", "symbol_defect", "symbol_normalize", "symbol_rank",
            "symbol_transpose", "upsilon", "upsilon_inverse",
        ),
        "errors": (
            "CaseMismatch", "DefectClassMismatch", "MultipleNonzero", "NormalizationError",
            "NotUnipotent", "ParseError", "RankMismatch", "RankOverflow", "SignMismatch",
            "ThetasymError",
        ),
        "ggp": (
            "BESSEL", "FOURIER_JACOBI", "GGPCase", "Multiplicity", "VariantReport",
            "branch_decomposition", "default_rho_catalog", "ggp_multiplicity",
            "is_strongly_relevant", "select_nonzero_variant",
        ),
        "oracle": (
            "VerificationReport", "brute_first_occurrence", "verify_counts", "verify_f1",
            "verify_orientation", "verify_variant_uniqueness",
        ),
        "theta": (
            "CuspidalThetaVariant", "FirstOccurrence", "GVariant", "ThetaDirection", "TowerContext",
            "cuspidal_theta", "first_occurrence_unipotent", "in_B", "in_G", "theta_fiber",
        ),
    }.items()
    for name in names
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    """Import the module that defines ``name`` and keep the name here."""
    try:
        module = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
