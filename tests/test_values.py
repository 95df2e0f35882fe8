"""The value classes: start-up cost, the record rule and value semantics.

Start-up: the package resolves its public names on first use, so a bare
``import thetasym`` loads no layer and each command-line verb only its own.

No value class is a dataclass, so that importing the package never loads
``dataclasses`` (and with it ``inspect``, ``ast``, ``dis`` and
``tokenize``), which every command-line call would pay for.  The record
rule: a plain record is a ``typing.NamedTuple``, and a record is a
``core.Value`` only where its constructor checks its arguments or the
record mutates (``VerificationReport``).  These tests pin that rule in the
source and the semantics of both kinds: equality and hashing over the
field tuple, a ``Value`` equal only within its class and a record also to
its bare field tuple, ordering by the field tuple, refused assignment and
refilling, the constructor refusals, ``repr``, pickling and copying.
"""

import ast
import copy
import inspect
import operator
import pickle
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from thetasym.catalog import (
    MINUS,
    PLUS,
    GroupFamily,
    GroupTag,
    RepLabel,
    RhoDescriptor,
    enumerate_labels,
    o_even,
    o_odd,
    sp,
)
from thetasym.core import (
    ZERO_SYMBOL,
    Bipartition,
    Symbol,
    Value,
    parse_symbol,
    partition,
    symbol_normalize,
    upsilon_inverse,
)
from thetasym.errors import NormalizationError
from thetasym.ggp import FOURIER_JACOBI, MultKind, Multiplicity, VariantReport, ggp_multiplicity
from thetasym.oracle import VerificationReport
from thetasym.theta import FirstOccurrence, ThetaDirection, TowerContext, first_occurrence_unipotent

SRC = Path(__file__).resolve().parent.parent / "src"

#: The fields of each value class, in constructor order, written out here
#: so that the tests do not read them from the classes they check.
FIELDS = {
    Symbol: ("row_a", "row_b"),
    GroupTag: ("family", "rank", "sign"),
    RhoDescriptor: ("glu_rank", "regular", "id"),
    RepLabel: ("group", "rho", "lam", "lam_prime", "eps_flag"),
    TowerContext: ("eps_minus_one", "orient_left", "orient_right", "orient_left_alt", "orient_right_alt"),
    FirstOccurrence: ("index", "lift"),
    Multiplicity: ("kind", "rho_left", "rho_right", "reason"),
    VariantReport: ("entries",),
    VerificationReport: ("checked", "failures", "elapsed"),
}
#: Plain records (``typing.NamedTuple``) and the frozen values whose
#: constructors check their arguments.
RECORDS = (RepLabel, TowerContext, Multiplicity, VariantReport)
CHECKED = (Symbol, GroupTag, RhoDescriptor, FirstOccurrence)
FROZEN = RECORDS + CHECKED
ORDERED = (Symbol, GroupTag, RhoDescriptor)


def field_tuple(value) -> tuple:
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


def _samples(cls) -> tuple:
    """Two instances of ``cls`` with the same fields and one that differs."""
    label, other = list(enumerate_labels(sp(2)))[:2]
    rho = RhoDescriptor(1, False, "x")
    occ = first_occurrence_unipotent(parse_symbol("[|2,1,0]"), MINUS, ThetaDirection.SP_TO_O)
    value = ggp_multiplicity(label, next(enumerate_labels(sp(1))), FOURIER_JACOBI, TowerContext(PLUS))
    return {
        Symbol: lambda: (Symbol((2, 0), (1,)), Symbol((2, 0), (1,)), Symbol((2, 0), (2,))),
        GroupTag: lambda: (o_even(2, PLUS), GroupTag(GroupFamily.O_EVEN, 2, PLUS), o_even(2, MINUS)),
        RhoDescriptor: lambda: (rho, RhoDescriptor(1, False, "x"), RhoDescriptor(1, True, "x")),
        RepLabel: lambda: (label, RepLabel(*field_tuple(label)), other),
        TowerContext: lambda: (
            TowerContext(PLUS, MINUS),
            TowerContext(eps_minus_one=PLUS, orient_left=MINUS),
            TowerContext(PLUS, orient_right=MINUS),
        ),
        FirstOccurrence: lambda: (occ, FirstOccurrence(occ.index, occ.lift), FirstOccurrence(0, Symbol((0,), ()))),
        Multiplicity: lambda: (
            Multiplicity(MultKind.SYMBOLIC, rho, rho),
            Multiplicity(MultKind.SYMBOLIC, RhoDescriptor(1, False, "x"), rho),
            Multiplicity(MultKind.SYMBOLIC, rho, RhoDescriptor(1, True, "x")),
        ),
        VariantReport: lambda: (
            VariantReport(((label, other, value),)),
            VariantReport(((label, other, value),)),
            VariantReport(()),
        ),
        VerificationReport: lambda: (
            VerificationReport(2, [{"input": "x"}], 0.5),
            VerificationReport(2, [{"input": "x"}], 0.5),
            VerificationReport(2, [], 0.5),
        ),
    }[cls]()


# ---------------------------------------------------------------------------
# Start-up cost
# ---------------------------------------------------------------------------


#: The layers past ``core``, and the stdlib modules only the json and csv
#: output formats use.
LATE = ("thetasym.catalog", "thetasym.theta", "thetasym.ggp", "thetasym.oracle", "json", "csv")

#: A fresh interpreter imports the module ``argv[2]``, runs the CLI on
#: ``argv[4:]`` if any, and prints which of the names in ``argv[3]`` it has
#: loaded.
_CHILD = textwrap.dedent("""
    import io, sys
    sys.path.insert(0, sys.argv[1])
    __import__(sys.argv[2])
    if sys.argv[4:]:
        sys.stdout = io.StringIO()
        code = sys.modules["thetasym.cli"].main(sys.argv[4:])
        sys.stdout = sys.__stdout__
        assert code == 0, code
    print(*sorted(set(sys.argv[3].split()) & set(sys.modules)))
""")


def _loaded_in_child(names, module="thetasym.cli", argv=()) -> list[str]:
    """Which of ``names`` a fresh interpreter (no site, no environment) loads
    to import ``module`` and run ``thetasym argv``.  It must be a child
    process: pytest itself has loaded all of them here."""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _CHILD, str(SRC), module, " ".join(names), *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Importing the CLI module loads neither ``dataclasses`` nor
    ``inspect``, nor a layer past ``core``, ``json`` or ``csv``."""
    assert _loaded_in_child(("dataclasses", "inspect", *LATE)) == []


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["symbols-enumerate", "--rank", "2", "--family", "sp", "--format", "pretty"], LATE),
        (["theta-first", "--symbol", "[1,0|1]", "--sign", "+", "--direction", "sp-to-o"],
         ("thetasym.ggp", "thetasym.oracle")),
        (["ggp-mult", "--left", "sp(0): rho=trivial:0:reg ; L=[0|] ; L'=[|]",
          "--right", "sp(2): rho=trivial:0:reg ; L=[1|] ; L'=[|]", "--case", "fj", "--eps-minus-one", "+"],
         ("thetasym.oracle",)),
    ],
    ids=["symbols-enumerate", "theta-first", "ggp-mult"],
)
def test_a_verb_imports_only_its_own_layers(argv, unloaded):
    assert _loaded_in_child(unloaded, argv=argv) == []


#: The public names of the package, by the module that defines each: the
#: names the package exported when it imported every layer up front.
EXPORTS = {
    "catalog": (
        "KH", "MINUS", "PLUS", "GroupFamily", "GroupTag", "RepLabel", "RhoDescriptor", "Sign",
        "TRIVIAL_RHO", "cuspidal_symbol", "enumerate_labels", "eps_minus_one_from_q", "format_label",
        "format_sign", "is_unipotent_cuspidal", "is_unipotent_label", "kh_of", "make_label", "o_even",
        "o_odd", "parse_group", "parse_label", "parse_sign", "sp", "symbol_regular_by_convention",
        "unipotent_label",
    ),
    "core": (
        "Bipartition", "EMPTY_SYMBOL", "Partition", "Symbol", "SymbolFamily", "ZERO_SYMBOL",
        "close_dominates", "enumerate_symbols", "format_bipartition", "format_symbol", "parse_symbol",
        "partition", "symbol_defect", "symbol_normalize", "symbol_rank", "symbol_transpose", "upsilon",
        "upsilon_inverse",
    ),
    "errors": (
        "CaseMismatch", "DefectClassMismatch", "MultipleNonzero", "NormalizationError", "NotUnipotent",
        "ParseError", "RankMismatch", "RankOverflow", "SignMismatch", "ThetasymError",
    ),
    "ggp": (
        "BESSEL", "FOURIER_JACOBI", "GGPCase", "Multiplicity", "VariantReport", "branch_decomposition",
        "default_rho_catalog", "ggp_multiplicity", "is_strongly_relevant", "select_nonzero_variant",
    ),
    "oracle": (
        "VerificationReport", "brute_first_occurrence", "verify_counts", "verify_f1",
        "verify_orientation", "verify_variant_uniqueness",
    ),
    "theta": (
        "CuspidalThetaVariant", "FirstOccurrence", "GVariant", "ThetaDirection", "TowerContext",
        "cuspidal_theta", "first_occurrence_unipotent", "in_B", "in_G", "theta_fiber",
    ),
}


def test_package_names_are_their_modules_objects():
    """Each public name resolves, on first use, to the object its module
    defines, and ``__all__`` and ``dir`` list every one of them."""
    import thetasym

    names = [name for group in EXPORTS.values() for name in group]
    assert sorted(thetasym.__all__) == sorted(names)
    assert set(names) | {"__version__"} <= set(dir(thetasym))
    for module, group in EXPORTS.items():
        home = __import__(f"thetasym.{module}", fromlist=["_"])
        for name in group:
            assert getattr(thetasym, name) is getattr(home, name), name
    assert thetasym.__version__ == "0.1.0"


def test_unknown_package_name_raises_attribute_error():
    import thetasym

    with pytest.raises(AttributeError, match="module 'thetasym' has no attribute 'no_such_name'"):
        thetasym.no_such_name


def test_bare_package_import_loads_no_layer():
    layers = [f"thetasym.{module}" for module in (*EXPORTS, "cli")]
    assert _loaded_in_child(layers, module="thetasym") == []


def test_no_package_module_imports_dataclasses():
    modules = sorted((SRC / "thetasym").glob("*.py"))
    assert len(modules) >= 8
    pattern = re.compile(r"^\s*(import|from)\s+dataclasses\b", re.M)
    assert [m.name for m in modules if pattern.search(m.read_text())] == []


# ---------------------------------------------------------------------------
# Value semantics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_field_list_is_the_constructor_order(cls):
    assert cls._fields == FIELDS[cls]
    a, _, _ = _samples(cls)
    assert cls(*field_tuple(a)) == a
    assert cls(**dict(zip(FIELDS[cls], field_tuple(a)))) == a


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_equality_and_hash_are_over_the_field_tuple(cls):
    a, b, c = _samples(cls)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(field_tuple(a))
    assert a != c and field_tuple(a) != field_tuple(c)
    assert len({a, b, c}) == 2


@pytest.mark.parametrize("cls", CHECKED, ids=lambda c: c.__name__)
def test_a_value_never_equals_its_field_tuple(cls):
    a = _samples(cls)[0]
    assert a != field_tuple(a) and field_tuple(a) != a
    assert field_tuple(a) not in {a}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_record_is_its_field_tuple(cls):
    a = _samples(cls)[0]
    assert a == field_tuple(a) and field_tuple(a) == a
    assert hash(a) == hash(field_tuple(a)) and field_tuple(a) in {a}
    assert tuple(a) == field_tuple(a)


def test_verification_report_compares_by_fields_and_stays_mutable():
    a, b, c = _samples(VerificationReport)
    assert a == b and a != c
    with pytest.raises(TypeError):
        hash(a)
    a.checked += 1
    a.failures.append({"input": "y"})
    assert field_tuple(a) == (3, [{"input": "x"}, {"input": "y"}], 0.5)
    fresh = VerificationReport()
    assert field_tuple(fresh) == (0, [], 0.0)
    assert fresh.failures is not VerificationReport().failures


@pytest.mark.parametrize("cls", ORDERED, ids=lambda c: c.__name__)
def test_ordering_is_the_field_tuple_ordering(cls):
    values = {
        Symbol: [Symbol((2, 0), (1,)), Symbol((1,), ()), Symbol((2, 0), (2,)), Symbol((), (0,)), Symbol((3,), ())],
        GroupTag: [o_even(2, PLUS), o_even(1, MINUS), o_even(2, MINUS), o_even(0, PLUS), o_even(1, PLUS)],
        RhoDescriptor: [
            RhoDescriptor(2, True, "b"), RhoDescriptor(), RhoDescriptor(2, False, "b"),
            RhoDescriptor(1, True, "a"), RhoDescriptor(2, True, "a"),
        ],
    }[cls]
    assert sorted(values) == sorted(values, key=field_tuple)
    for x in values:
        for y in values:
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                assert op(x, y) == op(field_tuple(x), field_tuple(y)), (op, x, y)


def test_group_tags_of_two_families_do_not_order():
    """The family is a plain enum, so tags of two families do not order,
    just as their field tuples do not."""
    with pytest.raises(TypeError):
        sp(1) < o_odd(1, PLUS)
    with pytest.raises(TypeError):
        field_tuple(sp(1)) < field_tuple(o_odd(1, PLUS))


def test_symbol_never_equals_a_bipartition_with_its_rows():
    s, bp = Symbol((1,), ()), Bipartition((1,), ())
    assert tuple(bp) == field_tuple(s)
    assert s != bp and bp != s
    assert bp not in {s} and s not in {bp}
    with pytest.raises(TypeError):
        s < bp


@pytest.mark.parametrize("cls", CHECKED, ids=lambda c: c.__name__)
def test_fields_refuse_assignment_and_deletion(cls):
    """A built value refuses assignment and deletion, and calling its
    ``__init__`` again leaves it as it was: its one constructor is ``__new__``."""
    a, _, c = _samples(cls)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, getattr(c, name))
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    a.__init__(*field_tuple(c))
    assert field_tuple(a) == field_tuple(_samples(cls)[0])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_fields_refuse_assignment_and_deletion(cls):
    a, _, c = _samples(cls)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(c, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert field_tuple(a) == field_tuple(_samples(cls)[0])


@pytest.mark.parametrize(
    "build, kind, message",
    [
        (lambda: GroupTag(GroupFamily.SP, -1), ValueError, "group rank must be nonnegative"),
        (lambda: GroupTag(GroupFamily.O_EVEN, -1), ValueError, "group rank must be nonnegative"),
        (lambda: GroupTag(GroupFamily.SP, 1, PLUS), ValueError, "symplectic groups carry no sign"),
        (lambda: GroupTag(GroupFamily.O_ODD, 1), ValueError, "orthogonal groups need a sign"),
        (lambda: GroupTag(GroupFamily.O_EVEN, 1, 0), ValueError, "orthogonal groups need a sign"),
        (lambda: GroupTag(GroupFamily.SP, 2.5), TypeError, "rank must be an int, got 2.5"),
        (lambda: GroupTag(GroupFamily.O_EVEN, 2.0, PLUS), TypeError, "rank must be an int, got 2.0"),
        (lambda: GroupTag(GroupFamily.SP, True), TypeError, "rank must be an int, got True"),
        (lambda: GroupTag(GroupFamily.SP, "3"), TypeError, "rank must be an int, got '3'"),
        (lambda: GroupTag("sp", 1), TypeError, "family must be a GroupFamily, got 'sp'"),
        (lambda: GroupTag(None, -1), TypeError, "family must be a GroupFamily, got None"),
        (lambda: RhoDescriptor(-1), ValueError, "descriptor rank must be nonnegative"),
        (lambda: RhoDescriptor(0, False), ValueError, "rank-0 descriptor must be trivial and regular"),
        (lambda: RhoDescriptor(0, True, "x"), ValueError, "rank-0 descriptor must be trivial and regular"),
        (lambda: RhoDescriptor(1), ValueError, "descriptor id 'trivial' is reserved for rank 0"),
        (lambda: RhoDescriptor(1, True, "a:b"), ValueError, "descriptor id 'a:b' contains reserved characters"),
        (lambda: RhoDescriptor(1, True, " a"), ValueError, "descriptor id ' a' has leading or trailing whitespace"),
        (lambda: RhoDescriptor("2", True, "x"), TypeError, "glu_rank must be an int, got '2'"),
        (lambda: RhoDescriptor(1.0, True, "x"), TypeError, "glu_rank must be an int, got 1.0"),
        (lambda: RhoDescriptor(1, "no", "x"), TypeError, "regular must be a bool, got 'no'"),
        (lambda: RhoDescriptor(1, 1, "x"), TypeError, "regular must be a bool, got 1"),
        (lambda: RhoDescriptor(1, True, 5), TypeError, "id must be a str, got 5"),
        (lambda: RhoDescriptor(0, "no"), TypeError, "regular must be a bool, got 'no'"),
        (lambda: RhoDescriptor(0, True, None), TypeError, "id must be a str, got None"),
        (lambda: RhoDescriptor(-1, None), TypeError, "regular must be a bool, got None"),
        (lambda: Symbol((0, -1), ()), NormalizationError, "negative entry -1 in first row (0, -1)"),
        (lambda: Symbol((1,), (1, 1)), NormalizationError, "second row (1, 1) not strictly decreasing"),
        (lambda: Symbol((1, 1), (-1,)), NormalizationError, "first row (1, 1) not strictly decreasing"),
        (lambda: Symbol((1, 0), (0,)), NormalizationError, "symbol (1, 0)|(0,) is not reduced (0 in both rows)"),
        (lambda: Symbol([2, 0], (1,)), NormalizationError, "first row [2, 0] is not a tuple of int"),
        (lambda: Symbol((2, 0), [1]), NormalizationError, "second row [1] is not a tuple of int"),
        (lambda: Symbol(("a",), ()), NormalizationError, "first row ('a',) is not a tuple of int"),
        (lambda: Symbol((1,), (True,)), NormalizationError, "second row (True,) is not a tuple of int"),
        (lambda: symbol_normalize([2.5], []), NormalizationError, "first row (2.5,) is not a tuple of int"),
        (lambda: symbol_normalize([], ["7"]), NormalizationError, "second row ('7',) is not a tuple of int"),
        (lambda: symbol_normalize([True], []), NormalizationError, "first row (True,) is not a tuple of int"),
        (lambda: symbol_normalize(5, []), NormalizationError, "first row 5 is not a tuple of int"),
        (lambda: symbol_normalize([], None), NormalizationError, "second row None is not a tuple of int"),
        (lambda: partition("321"), NormalizationError, "partition ('3', '2', '1') is not a tuple of int"),
        (lambda: partition([2.5, 1]), NormalizationError, "partition (2.5, 1) is not a tuple of int"),
        (lambda: partition([2, True]), NormalizationError, "partition (2, True) is not a tuple of int"),
        (lambda: partition(5), NormalizationError, "partition 5 is not a tuple of int"),
        (lambda: upsilon_inverse(("21", ""), 1), NormalizationError, "partition ('2', '1') is not a tuple of int"),
        (lambda: FirstOccurrence(3, ZERO_SYMBOL), ValueError, "lift Symbol('[0|]') has rank 0, not the index 3"),
    ],
)
def test_constructor_refusals_keep_their_types_and_messages(build, kind, message):
    with pytest.raises(kind) as info:
        build()
    assert type(info.value) is kind
    assert str(info.value) == message


def test_constructor_checks_survive_python_O():
    """The checks are raised, not asserted, so ``python -O`` keeps them."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from thetasym.core import ZERO_SYMBOL; "
        "from thetasym.theta import FirstOccurrence; FirstOccurrence(3, ZERO_SYMBOL)"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-O", "-c", code, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == "ValueError: lift Symbol('[0|]') has rank 0, not the index 3"


def test_reprs():
    assert repr(Symbol((2, 0), (1,))) == "Symbol('[2,0|1]')"
    assert repr(Symbol((), ())) == "Symbol('[|]')"
    assert repr(sp(2)) == "GroupTag(family=<GroupFamily.SP: 'sp'>, rank=2, sign=None)"
    assert repr(RhoDescriptor()) == "RhoDescriptor(glu_rank=0, regular=True, id='trivial')"
    assert repr(TowerContext(MINUS, orient_right_alt=PLUS)) == (
        "TowerContext(eps_minus_one=-1, orient_left=None, orient_right=None, "
        "orient_left_alt=None, orient_right_alt=1)"
    )
    assert repr(VerificationReport()) == "VerificationReport(checked=0, failures=[], elapsed=0.0)"


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_pickle_round_trip(cls):
    """Pickling and deep copying rebuild a checked value through its ``__new__``."""
    a = _samples(cls)[0]
    copies = [pickle.loads(pickle.dumps(a, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in copies + [copy.deepcopy(a)]:
        assert type(back) is cls and back == a and hash(back) == hash(a)


def test_label_replace_changes_only_the_named_fields():
    label = next(enumerate_labels(o_even(1, PLUS)))
    swapped = label._replace(lam=label.lam_prime, lam_prime=label.lam)
    assert type(swapped) is RepLabel and swapped == RepLabel(
        label.group, label.rho, label.lam_prime, label.lam, label.eps_flag
    )
    assert field_tuple(label) == field_tuple(next(enumerate_labels(o_even(1, PLUS))))
    with pytest.raises(ValueError, match="unexpected field names"):
        label._replace(sign=PLUS)


# ---------------------------------------------------------------------------
# The record rule, read off the source
# ---------------------------------------------------------------------------


def _value_classes() -> list[type]:
    """Every ``Value`` subclass the package defines, ``OrderedValue`` excepted."""
    import thetasym.cli  # noqa: F401  (loads every package module)

    found, todo = [], [Value]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("thetasym.") and sub._fields:
                found.append(sub)
    return found


def _new_checks(cls) -> bool:
    """Whether the class's own ``__new__`` holds a ``raise`` (an ``assert``
    would not survive ``python -O``)."""
    if "__new__" not in vars(cls):
        return False
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls.__new__)))
    return any(isinstance(node, ast.Raise) for node in ast.walk(tree))


def test_every_value_checks_its_arguments_but_the_mutable_report():
    """A ``Value`` whose constructor only stores its fields should be a
    NamedTuple.  A checked value is built in one step, by its ``__new__``;
    only the mutable report has an ``__init__``."""
    classes = _value_classes()
    assert set(classes) == {*CHECKED, VerificationReport}
    assert [cls for cls in classes if not _new_checks(cls)] == [VerificationReport]
    assert [cls for cls in classes if "__init__" in vars(cls)] == [VerificationReport]
    assert VerificationReport.__setattr__ is object.__setattr__
