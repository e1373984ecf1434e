"""Property tests for the one scalar grammar and the DSL parser around it.

Scalar text parses the same through parse_scalar, a param line and a mat
entry; token soup from the DSL alphabet never escapes the package's error
types; a bad token in a mat entry is reported at its own line and column,
and a division by zero at its operator's;
dumps writes text that parses back to the same document.
Integers are single digits and texts short, since exponents and dimensions
in the input multiply the work the parser does.
"""

from math import prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from cqtcheck.dsl import Document, dumps, parse_presentation  # noqa: E402
from cqtcheck.errors import CqtError, DivisionByZero, ParseError  # noqa: E402
from cqtcheck.scalars import parse_scalar  # noqa: E402

PROPS = settings(max_examples=150, deadline=None, database=None)

atoms = st.sampled_from(["0", "1", "2", "3", "i", "t", "q"])
nonzero_atoms = st.sampled_from(["1", "2", "3", "i", "t", "q"])


def expressions(atom, depth, ops="+-*/", zero_powers=True):
    """Well-formed scalar texts nested at most depth deep.

    With zero_powers=False no base that evaluates to zero is raised to a
    negative power.
    """
    if depth == 0:
        return atom
    sub = expressions(atom, depth - 1, ops, zero_powers)
    powers = st.tuples(sub, st.sampled_from(["0", "1", "2", "3", "-1", "-2"]))
    if not zero_powers:
        powers = powers.filter(lambda p: not (p[1].startswith("-")
                                              and parse_scalar(p[0]).is_zero()))
    return st.one_of(
        atom,
        st.tuples(sub, st.sampled_from(ops), sub).map(" ".join),
        sub.map(lambda e: f"({e})"),
        sub.map(lambda e: f"-{e}"),
        powers.map(lambda p: f"({p[0]})^{p[1]}"),
    )


SCALAR_SOUP = ["0", "1", "2", "3", "i", "t", "q", "x", "+", "-", "*", "/", "^",
               "(", ")", ".", ","]
scalar_texts = st.one_of(
    expressions(atoms, 3),
    st.lists(st.sampled_from(SCALAR_SOUP), max_size=12).map(" ".join),
    st.lists(st.sampled_from(SCALAR_SOUP), max_size=12).map("".join),
)


def _outcome(parse):
    try:
        return parse()
    except CqtError as exc:
        return type(exc)


@PROPS
@given(scalar_texts)
def test_scalar_text_parses_alike_everywhere(text):
    direct = _outcome(lambda: parse_scalar(text))
    param = _outcome(lambda: parse_presentation(
        f"param c = {text}\n").params["c"])
    entry = _outcome(lambda: parse_presentation(
        f"gen w : 1\nmat A : [w] -> [w] {{ 1,1 = {text} }}\n"
    ).mats["A"].entries[(1, 1)])
    assert direct == param == entry


DSL_SOUP = [
    "gen", "mat", "rel", "cand", "table", "rep", "param", "field", "conj",
    "var", "real", "unimodular", "w", "wb", "A", "E", "G", "H", "c", "kron",
    "flip", "inv", "tauconj", "i", "t", "q", "0", "1", "2", "3", "[", "]",
    "{", "}", "(", ")", ":", ";", ",", "=", "+", "-", "*", "/", "^", ".",
    "->", "\n", "# note\n", "@",
    "gen w : 2", "gen wb : 2 conj w", "gen w : 2 conj wb", "rel A",
    "mat A : [w] -> [w] {", "mat E : [] -> [w w] {", "1,1 =", "2,1 =",
    "cand w w =", "param c =", "table rep w { G =", "flip(2,2)", "kron(A, A)",
    "field { var = t ; conj = real }",
]


@PROPS
@given(st.lists(st.sampled_from(DSL_SOUP), max_size=30))
def test_token_soup_yields_document_or_package_error(parts):
    text = " ".join(parts)
    assume(text.count("^") <= 2)
    try:
        doc = parse_presentation(text)
    except CqtError:
        return
    assert isinstance(doc, Document)


PREAMBLE = ["", "# a comment", "param c = 1/2", "gen v : 1"]


@PROPS
@given(st.lists(st.sampled_from(PREAMBLE), max_size=3, unique=True),
       st.integers(0, 3),
       expressions(nonzero_atoms, 2, ops="+-*", zero_powers=False),
       st.sampled_from(["x", "w", "@", ")", ";", "}", "*"]))
def test_bad_mat_entry_token_reported_at_its_position(lines, indent, expr,
                                                      bad):
    head = " " * indent + "mat A : [w] -> [w] { 1,1 = " + expr + " + "
    text = "\n".join(["gen w : 2", *lines, head + bad + " }"]) + "\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert (err.value.line, err.value.col) == (len(lines) + 2, len(head) + 1)


@pytest.mark.parametrize("text,pos", [
    ("gen w : 2\nmat A : [w] -> [w] { 1,1 = (1 - 1)^-1 + x }\n", (2, 35)),
    ("gen w : 2\nmat A : [w] -> [w] { 1,1 = 2 + 3 / (t - t) }\n", (2, 34)),
    ("param c = 1\nparam d = q / (2 - 2)\n", (2, 13)),
    ("param c = (i - i)^-2\n", (1, 18)),
])
def test_zero_division_is_reported_at_its_operator(text, pos):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert (err.value.line, err.value.col) == pos
    assert isinstance(err.value, DivisionByZero)


def test_mat_entry_error_points_at_the_bad_token():
    with pytest.raises(ParseError) as err:
        parse_presentation("gen w : 2\nmat A : [w] -> [w] { 1,1 = 1 + x }\n")
    assert (err.value.line, err.value.col) == (2, 32)


GENS = [("w", 2, None), ("u", 1, None), ("v", 2, "vb")]


@st.composite
def documents(draw):
    """Document text with generators, mats, relations, a cand line and params."""
    gens = draw(st.lists(st.sampled_from(GENS), min_size=1, max_size=3,
                         unique=True))
    lines = [f"field {{ var = t ; conj = "
             f"{draw(st.sampled_from(['real', 'unimodular']))} }}"]
    dim = {}
    for name, d, conj in gens:
        dim[name] = d
        if conj:
            lines += [f"gen {name} : {d} conj {conj}",
                      f"gen {conj} : {d} conj {name}"]
            dim[conj] = d
        else:
            lines.append(f"gen {name} : {d}")
    words = st.lists(st.sampled_from(sorted(dim)), max_size=2)
    mats = []
    for k in range(draw(st.integers(0, 2))):
        src, tgt = draw(words), draw(words)
        nrows, ncols = (prod(dim[n] for n in w) for w in (tgt, src))
        cells = draw(st.lists(
            st.tuples(st.integers(1, nrows), st.integers(1, ncols)),
            max_size=3, unique=True))
        body = " ; ".join(f"{r},{c} = {draw(expressions(nonzero_atoms, 2))}"
                          for r, c in cells)
        lines.append(f"mat M{k} : [{' '.join(src)}] -> [{' '.join(tgt)}] "
                     f"{{ {body} }}")
        mats.append(f"M{k}")
    if mats:
        rels = draw(st.lists(st.sampled_from(mats), unique=True))
        lines += [f"rel {m}" for m in rels]
    if draw(st.booleans()):
        a = draw(st.sampled_from(sorted(dim)))
        lines.append(f"cand {a} {a} = ({draw(expressions(nonzero_atoms, 1))}) "
                     f"* flip({dim[a]},{dim[a]})")
    for name in draw(st.lists(st.sampled_from("cde"), max_size=2, unique=True)):
        lines.append(f"param {name} = {draw(expressions(nonzero_atoms, 2))}")
    return "\n".join(lines) + "\n"


@PROPS
@given(documents())
def test_dumps_then_parse_reproduces_the_document(text):
    try:
        doc = parse_presentation(text)
    except CqtError:
        assume(False)
    text2 = dumps(doc)
    doc2 = parse_presentation(text2)
    assert dumps(doc2) == text2
    assert doc2.mode == doc.mode
    assert doc2.presentation.generators == doc.presentation.generators
    assert list(doc2.mats) == list(doc.mats)
    for name, m in doc.mats.items():
        m2 = doc2.mats[name]
        assert (m2.source_word, m2.target_word) == (m.source_word, m.target_word)
        assert m2.entries == m.entries
        assert m2.matrix == m.matrix
    assert doc2.relation_names == doc.relation_names
    assert (doc2.candidate is None) == (doc.candidate is None)
    if doc.candidate is not None:
        assert doc2.candidate.blocks == doc.candidate.blocks
    assert doc2.params == doc.params
