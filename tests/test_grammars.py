"""Property-based fuzzing of the symbol and label grammars.

``parse`` after ``format`` is the identity on generated values, and every
parser refuses arbitrary text with a domain error only.
"""


from hypothesis import given, settings
from hypothesis import strategies as st

from thetasym.catalog import (
    MINUS,
    PLUS,
    GroupFamily,
    GroupTag,
    RhoDescriptor,
    TRIVIAL_RHO,
    enumerate_labels,
    format_label,
    parse_group,
    parse_label,
)
from thetasym.core import (
    Bipartition,
    format_symbol,
    parse_symbol,
    upsilon_inverse,
)
from thetasym.errors import ThetasymError

FUZZ = settings(max_examples=150, deadline=None)

partitions = st.lists(st.integers(1, 12), max_size=6).map(lambda xs: tuple(sorted(xs, reverse=True)))
bipartitions = st.builds(Bipartition, partitions, partitions)
symbols = st.builds(upsilon_inverse, bipartitions, st.integers(-9, 9))
signs = st.sampled_from((PLUS, MINUS))
groups = st.one_of(
    st.builds(GroupTag, st.just(GroupFamily.SP), st.integers(0, 10**9)),
    st.builds(
        GroupTag,
        st.sampled_from((GroupFamily.O_EVEN, GroupFamily.O_ODD)),
        st.integers(0, 10**9),
        signs,
    ),
)
LABEL_POOL = [
    (label, eps)
    for eps in (PLUS, MINUS)
    for rank in range(4)
    for group in (
        GroupTag(GroupFamily.SP, rank),
        *(GroupTag(f, rank, e) for f in (GroupFamily.O_EVEN, GroupFamily.O_ODD) for e in (PLUS, MINUS)),
    )
    for label in enumerate_labels(
        group, eps, (TRIVIAL_RHO, RhoDescriptor(1, True, "x"), RhoDescriptor(2, True, "x"))
    )
]


@st.composite
def labels(draw):
    """(label, eps_minus_one): a label of a small group and the square class it was built under.

    A nontrivial descriptor gets a drawn id, which may hold interior
    whitespace, and a regularity flag.
    """
    label, eps = draw(st.sampled_from(LABEL_POOL))
    if not label.rho.is_trivial:
        rho_id = draw(
            st.text("abcxyz-_.0123456789 \t", min_size=1, max_size=8).filter(lambda t: t == t.strip())
        )
        rho = RhoDescriptor(label.rho.glu_rank, draw(st.booleans()), rho_id)
        label = label._replace(rho=rho)
    return label, eps


GRAMMAR_ALPHABET = "[]()|,;:=+-' 0123456789spoLrhegiftvalx_\t٤²"
grammar_text = st.text(GRAMMAR_ALPHABET, max_size=40)
any_text = st.one_of(st.text(max_size=40), grammar_text)


@FUZZ
@given(symbols)
def test_symbol_roundtrip(s):
    assert parse_symbol(format_symbol(s)) == s


@FUZZ
@given(groups)
def test_group_roundtrip(group):
    assert parse_group(str(group)) == group


@FUZZ
@given(labels())
def test_label_roundtrip(pair):
    label, eps = pair
    text = format_label(label)
    assert parse_label(text, eps) == label
    assert format_label(parse_label(text, eps)) == text


def _refuses_with_domain_errors_only(parse, text):
    try:
        parse(text)
    except ThetasymError:
        pass


@FUZZ
@given(any_text)
def test_parsers_on_arbitrary_text(text):
    for parse in (parse_symbol, parse_group, parse_label):
        _refuses_with_domain_errors_only(parse, text)


@FUZZ
@given(labels(), st.data())
def test_label_parser_on_edited_labels(pair, data):
    """Valid label text with one span replaced, so that the parser gets past its first checks."""
    text = format_label(pair[0])
    start = data.draw(st.integers(0, len(text)))
    end = data.draw(st.integers(start, min(len(text), start + 6)))
    edited = text[:start] + data.draw(grammar_text.map(lambda t: t[:6])) + text[end:]
    _refuses_with_domain_errors_only(parse_label, edited)
    _refuses_with_domain_errors_only(parse_symbol, edited[edited.find("[") :])
