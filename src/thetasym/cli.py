"""Command line interface: deterministic tables from the library operations.

Verbs:

* ``symbols-enumerate`` - symbol tables by rank and family;
* ``theta-fiber`` - pairing partners of a symbol at a target rank;
* ``theta-first`` - closed-form first occurrence of a unipotent symbol;
* ``theta-cuspidal`` - the cuspidal chain at a given index;
* ``ggp-mult`` - multiplicity of a label pair;
* ``ggp-branch`` - restriction decomposition of a unipotent label;
* ``verify`` - run a brute-force verification suite.

Output formats: ``pretty`` (aligned text), ``json`` (one object per row),
``csv``.  Identical inputs produce byte-identical output.  Exit codes:
0 success, 1 domain error, 2 verification failure or usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .core import MAX_INT_DIGITS, SymbolFamily
from .errors import ThetasymError

#: Each family by its value, plus ``o-odd``: odd orthogonal groups use the symplectic symbols.
_FAMILIES = {family.value: family for family in SymbolFamily} | {"o-odd": SymbolFamily.SP_UNIPOTENT}


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------


def _emit(columns: tuple[str, ...], rows: list[tuple], fmt: str, out) -> None:
    """Write a table whose rows are tuples in ``columns`` order."""
    if fmt == "json":
        import json

        # objects built in sorted key order dump as with sort_keys=True
        order = sorted(range(len(columns)), key=columns.__getitem__)
        out.write("".join(json.dumps({columns[i]: row[i] for i in order}) + "\n" for row in rows))
        return
    if fmt == "csv":
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        out.write(buffer.getvalue())
        return
    table = [columns, *(tuple(map(str, row)) for row in rows)]
    widths = [max(map(len, cells)) for cells in zip(*table)]
    pattern = "  ".join(f"{{:<{w}}}" for w in widths)
    out.write("".join(pattern.format(*line).rstrip() + "\n" for line in table))


# ---------------------------------------------------------------------------
# Shared option handling
# ---------------------------------------------------------------------------


class _StoreOnce(argparse.Action):
    """The store action of every verb option: an option given twice is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if self.dest in parser.given:
            raise argparse.ArgumentError(self, "given twice")
        parser.given.add(self.dest)
        setattr(namespace, self.dest, values)


class _VerbParser(argparse.ArgumentParser):
    """A verb's parser: ``options`` adds its options and command just before
    it parses, so a call reads the choices of its own verb alone."""

    def __init__(self, *args, options, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _StoreOnce)  # the action of an option that names none
        self.options = options

    def parse_known_args(self, args=None, namespace=None):
        if self.options is not None:
            self.options(self)
            self.options = None
        self.given = set()
        return super().parse_known_args(args, namespace)


def _add_format(parser) -> None:
    parser.add_argument(
        "--format",
        choices=("pretty", "json", "csv"),
        default="pretty",
        help="output format (default: pretty)",
    )


_ORIENT_FLAGS = ("--orient-left", "--orient-right", "--orient-left-alt", "--orient-right-alt")


def _add_context(parser) -> None:
    """The evaluation context: the square class of -1 (by sign or by q) and the orientation bits."""
    parser.add_argument("--eps-minus-one", choices=("+", "-"), default=None)
    parser.add_argument("--q", type=int, default=None, help="odd prime power; sets eps-minus-one by q mod 4")
    for name in _ORIENT_FLAGS:
        parser.add_argument(name, choices=("+", "-"), default=None)


def _check_args(args) -> None:
    """Refuse a negative rank option, and a ``--target-rank`` longer than the symbol grammar
    reads (its fiber prints entries up to it), before any work starts; ``--q`` is read
    by :func:`_context` alone, which each verb that takes it calls first."""
    for name in ("rank", "max_rank", "target_rank"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            flag = "--" + name.replace("_", "-")
            raise ThetasymError(f"{flag} must be nonnegative, got {value}")
    if getattr(args, "target_rank", 0) >= 10**MAX_INT_DIGITS:
        raise ThetasymError(f"--target-rank has more than {MAX_INT_DIGITS} digits, got {args.target_rank}")


def _context(args, default=None):
    """The ``TowerContext`` of :func:`_add_context`'s flags; ``default`` is
    eps(-1) when neither eps flag is given."""
    from .catalog import eps_minus_one_from_q, parse_sign
    from .theta import TowerContext

    if args.eps_minus_one is None and args.q is None and default is not None:
        eps = default
    elif (args.eps_minus_one is None) == (args.q is None):
        raise ThetasymError("exactly one of --eps-minus-one and --q is required")
    else:
        eps = parse_sign(args.eps_minus_one) if args.q is None else eps_minus_one_from_q(args.q)
    bits = (args.orient_left, args.orient_right, args.orient_left_alt, args.orient_right_alt)
    return TowerContext(eps, *(None if bit is None else parse_sign(bit) for bit in bits))


_MULT_COLUMNS = ("label", "multiplicity", "status")


def _mult_row(label_text: str, value) -> tuple[str, str, str]:
    return label_text, str(value), "undetermined" if value.is_undetermined else "ok"


# ---------------------------------------------------------------------------
# Verbs: the options of each, then its command
# ---------------------------------------------------------------------------


def _symbols_enumerate_options(p) -> None:
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_symbols_enumerate)


def _cmd_symbols_enumerate(args, out) -> int:
    from .core import (
        enumerate_symbols, format_bipartition, format_symbol, symbol_defect, symbol_rank, upsilon
    )

    symbols = enumerate_symbols(args.rank, _FAMILIES[args.family])
    rows = [
        (format_symbol(s), symbol_rank(s), symbol_defect(s), format_bipartition(upsilon(s)))
        for s in symbols
    ]
    _emit(("symbol", "rank", "defect", "upsilon"), rows, args.format, out)
    return 0


def _theta_fiber_options(p) -> None:
    p.add_argument("--symbol", required=True)
    p.add_argument("--sign", choices=("+", "-"), required=True)
    p.add_argument("--target-rank", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_theta_fiber)


def _cmd_theta_fiber(args, out) -> int:
    from .catalog import parse_sign
    from .core import format_symbol, parse_symbol, symbol_defect, symbol_rank
    from .theta import theta_fiber

    lam = parse_symbol(args.symbol)
    fiber = theta_fiber(lam, parse_sign(args.sign), args.target_rank)
    rows = [(format_symbol(s), symbol_rank(s), symbol_defect(s)) for s in fiber]
    _emit(("symbol", "rank", "defect"), rows, args.format, out)
    return 0


def _theta_first_options(p) -> None:
    from .theta import ThetaDirection

    p.add_argument("--symbol", required=True)
    p.add_argument("--sign", choices=("+", "-"), required=True)
    p.add_argument("--direction", choices=[d.value for d in ThetaDirection], required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_theta_first)


def _cmd_theta_first(args, out) -> int:
    from .catalog import parse_sign
    from .core import format_symbol, parse_symbol
    from .theta import ThetaDirection, first_occurrence_unipotent

    lam = parse_symbol(args.symbol)
    direction = ThetaDirection(args.direction)
    occ = first_occurrence_unipotent(lam, parse_sign(args.sign), direction)
    row = (format_symbol(lam), args.sign, args.direction, occ.index, format_symbol(occ.lift))
    _emit(("symbol", "sign", "direction", "index", "lift"), [row], args.format, out)
    return 0


def _theta_cuspidal_options(p) -> None:
    from .theta import CuspidalThetaVariant

    p.add_argument("--k", type=int, required=True)
    p.add_argument("--variant", choices=[v.value for v in CuspidalThetaVariant], required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_theta_cuspidal)


def _cmd_theta_cuspidal(args, out) -> int:
    from .catalog import format_sign
    from .core import format_symbol
    from .theta import CuspidalThetaVariant, cuspidal_theta

    variant = CuspidalThetaVariant(args.variant)
    sp_symbol, o_symbol, sign = cuspidal_theta(args.k, variant)
    row = (
        args.k, args.variant, format_symbol(sp_symbol), format_symbol(o_symbol), format_sign(sign)
    )
    _emit(("k", "variant", "sp_symbol", "o_symbol", "tower_sign"), [row], args.format, out)
    return 0


def _ggp_mult_options(p) -> None:
    from .ggp import GGPCase

    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--case", choices=[c.value for c in GGPCase], required=True)
    _add_context(p)
    _add_format(p)
    p.set_defaults(func=_cmd_ggp_mult)


def _cmd_ggp_mult(args, out) -> int:
    from .catalog import format_label, parse_label
    from .ggp import GGPCase, ggp_multiplicity

    ctx = _context(args)
    left = parse_label(args.left, ctx.eps_minus_one)
    right = parse_label(args.right, ctx.eps_minus_one)
    value = ggp_multiplicity(left, right, GGPCase(args.case), ctx)
    row = _mult_row(f"{format_label(left)} / {format_label(right)}", value)
    _emit(_MULT_COLUMNS, [row], args.format, out)
    return 0


def _ggp_branch_options(p) -> None:
    p.add_argument("--pi", required=True)
    p.add_argument("--target", required=True)
    _add_context(p)
    _add_format(p)
    p.set_defaults(func=_cmd_ggp_branch)


def _cmd_ggp_branch(args, out) -> int:
    from .catalog import format_label, parse_group, parse_label
    from .ggp import branch_decomposition

    ctx = _context(args)
    pi = parse_label(args.pi, ctx.eps_minus_one)
    target = parse_group(args.target)
    rows = [
        _mult_row(format_label(label), value)
        for label, value in branch_decomposition(pi, target, ctx)
    ]
    _emit(_MULT_COLUMNS, rows, args.format, out)
    return 0


def _verify_options(p) -> None:
    p.add_argument("--suite", choices=("f1", "counts", "variants"), required=True)
    p.add_argument("--max-rank", type=int, required=True)
    _add_context(p)
    p.set_defaults(func=_cmd_verify)


def _cmd_verify(args, out) -> int:
    from .catalog import PLUS
    from .oracle import verify_counts, verify_f1, verify_variant_uniqueness

    if args.suite != "variants":
        for flag in ("--eps-minus-one", "--q", *_ORIENT_FLAGS):
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                raise ThetasymError(f"{flag} applies only to --suite variants")
    if args.suite == "f1":
        report = verify_f1(args.max_rank)
    elif args.suite == "counts":
        report = verify_counts(args.max_rank)
    else:
        report = verify_variant_uniqueness(args.max_rank, _context(args, PLUS))
    out.write(f"suite {args.suite}: {report}\n")
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetasym",
        description="symbol tables, theta first occurrences and branching multiplicities",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_VerbParser)
    for verb, help_text, options in (
        ("symbols-enumerate", "list symbols of a rank and family", _symbols_enumerate_options),
        ("theta-fiber", "pairing partners at a target rank", _theta_fiber_options),
        ("theta-first", "closed-form first occurrence", _theta_first_options),
        ("theta-cuspidal", "cuspidal chain at index k", _theta_cuspidal_options),
        ("ggp-mult", "multiplicity of a label pair", _ggp_mult_options),
        ("ggp-branch", "restriction decomposition of a unipotent label", _ggp_branch_options),
        ("verify", "run a verification suite", _verify_options),
    ):
        sub.add_parser(verb, help=help_text, options=options)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return args.func(args, sys.stdout)
    except (ThetasymError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
