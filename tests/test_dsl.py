from fractions import Fraction
from pathlib import Path

import pytest

from cqtcheck import cli, dsl, lorentz
from cqtcheck.errors import (DuplicateName, ParseError, ShapeError,
                             UnknownGenerator)
from cqtcheck.scalars import G_I, ConjMode, ONE, Q, Scalar, T
from cqtcheck.tensor import flip, kron, tauconj

SLQ2_DOC = Path(__file__).resolve().parents[1] / "src/cqtcheck/data/slq2.qg"
SLQ2 = """
field { var = t ; conj = real }
gen w : 2
mat E : [] -> [w w] { 2,1 = 1 ; 3,1 = -q }
mat Ep : [w w] -> [] { 1,2 = -1/q ; 1,3 = 1 }
rel E
rel Ep
cand w w = t * kron(flip(1,2), flip(1,2)) + t^-1 * E . Ep
"""


def test_parse_shipped_fixture():
    doc = dsl.parse_presentation(SLQ2_DOC.read_text())
    assert sorted(doc.presentation.generators) == ["1", "w"]
    assert [r.name for r in doc.presentation.relations] == ["E", "Ep"]
    d = lorentz.make_sl2(Q)
    assert doc.mats["E"].matrix == d.E
    assert doc.mats["Ep"].matrix == d.Eprime
    assert doc.candidate.block("w", "w") == lorentz.candidate_L(d, 1)


def test_round_trip_is_identity():
    generic = dsl.parse_presentation(
        SLQ2 + "param c = q - 1/t\n")
    for value in (None, 1, G_I, Fraction(3, 2)):
        doc = generic if value is None else generic.subs(value)
        text = dsl.dumps(doc)
        doc2 = dsl.parse_presentation(text)
        assert dsl.dumps(doc2) == text
        if value is not None:   # past the field line, which names the variable
            body = text.split("\n", 1)[1].split()
            assert "t" not in body and "q" not in body
        assert doc2.candidate.block("w", "w") == doc.candidate.block("w", "w")
        assert [r.name for r in doc2.presentation.relations] == \
            [r.name for r in doc.presentation.relations]
        for name in doc.mats:
            assert doc2.mats[name].matrix == doc.mats[name].matrix
        assert doc2.params == doc.params


def test_empty_relation_list_is_valid_presentation():
    doc = dsl.parse_presentation("gen w : 2\n")
    assert doc.presentation.relations == []
    assert doc.candidate is None


def test_conjugate_generators_and_unimodular_mode():
    doc = dsl.parse_presentation(
        "field { var = t ; conj = unimodular }\n"
        "gen w : 2 conj wb\ngen wb : 2 conj w\n")
    assert doc.mode is ConjMode.UNIMODULAR
    assert doc.presentation.conj_name("w") == "wb"


def test_wrong_shape_entry_names_the_mat():
    with pytest.raises(ShapeError) as err:
        dsl.parse_presentation("gen w : 2\nmat E : [] -> [w w] { 9,1 = 1 }")
    assert "E" in str(err.value)


def test_unknown_generator_in_word():
    with pytest.raises(UnknownGenerator):
        dsl.parse_presentation("gen w : 2\nmat E : [] -> [v w] { 1,1 = 1 }")


def test_duplicate_names():
    with pytest.raises(DuplicateName):
        dsl.parse_presentation("gen w : 2\ngen w : 2\n")
    with pytest.raises(DuplicateName):
        dsl.parse_presentation(
            "gen w : 2\nmat A : [w] -> [w] { 1,1 = 1 }\n"
            "mat A : [w] -> [w] { 1,1 = 1 }")


def test_zero_cell_is_not_printed_and_parses_back():
    doc = dsl.parse_presentation(
        "gen w : 2\nmat A : [w] -> [w] { 1,1 = 0 ; 2,2 = t }\n")
    text = dsl.dumps(doc)
    assert "mat A : [w] -> [w] { 2,2 = t }" in text.splitlines()
    again = dsl.parse_presentation(text)
    assert again.mats["A"].matrix == doc.mats["A"].matrix


def test_zero_cell_given_twice_is_a_duplicate():
    # the matrix drops the zero, so the parser keeps its own record of cells
    with pytest.raises(DuplicateName) as err:
        dsl.parse_presentation(
            "gen w : 2\nmat A : [w] -> [w] { 1,1 = 0 ; 1,1 = 1 }")
    assert str(err.value) == "mat 'A': entry (1,1) set twice"


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        dsl.parse_presentation("gen w : 2\nrel nothere\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        dsl.parse_presentation("gen w : x\n")
    assert err.value.line == 1
    assert err.value.col == 9
    assert err.value.expected


def test_allocating_integers_at_their_budget_parse():
    big = dsl.MAX_GEN_DIM
    doc = dsl.parse_presentation(f"gen w : {big}\n"
                                 f"cand w w = flip({big},{big})\n")
    assert doc.candidate.blocks[("w", "w")] == flip(big, big)
    # a mat between two words of MAX_WORD_DIM indices
    word = " ".join(["w"] * 8)
    doc = dsl.parse_presentation(f"gen w : 2\nmat A : [{word}] -> [{word}] "
                                 "{ 256,1 = 1 }\n")
    assert 2 ** 8 == dsl.MAX_WORD_DIM
    assert doc.mats["A"].matrix.nrows == doc.mats["A"].matrix.ncols == 256
    for text in (f"gen w : {big + 1}\n",
                 f"gen w : 2\ncand w w = flip({dsl.MAX_FLIP_DIM + 1},1)\n",
                 f"gen w : 2\nmat A : [{word} w] -> [] {{ 1,1 = 1 }}\n"):
        with pytest.raises(ParseError) as err:
            dsl.parse_presentation(text)
        assert "is over the limit of" in str(err.value)


def test_tensor_expressions():
    doc = dsl.parse_presentation(
        "gen w : 2\n"
        "mat A : [w] -> [w] { 1,1 = 1 ; 2,2 = -1 }\n"
        "mat B : [w] -> [w] { 1,2 = 1 ; 2,1 = 1 }\n"
        "cand w w = kron(A, B) . flip(2,2) + (1/2) * kron(B, inv(A))\n")
    a = doc.mats["A"].matrix
    b = doc.mats["B"].matrix
    expect = kron(a, b) @ flip(2, 2) + kron(b, a.inverse()) * Scalar.normalize(
        (ONE.num[0],), (ONE.num[0] + ONE.num[0],))
    assert doc.candidate.block("w", "w") == expect


def test_tauconj_in_expressions():
    doc = dsl.parse_presentation(
        "gen w : 2\n"
        "mat A : [w w] -> [w w] { 1,1 = i ; 2,3 = 1 ; 3,2 = 1 ; 4,4 = t }\n"
        "cand w w = tauconj(A)\n")
    a = doc.mats["A"].matrix.with_legs((2, 2), (2, 2))
    assert doc.candidate.block("w", "w") == tauconj(a, ConjMode.REAL)


def test_params():
    from cqtcheck.scalars import parse_scalar
    doc = dsl.parse_presentation(
        "gen w : 2\n"
        "param beta = -1\n"
        "param c = 1/2 + i\n")
    assert doc.params["beta"] == -ONE
    assert doc.params["c"] == parse_scalar("1/2 + i")


def test_table_statement_is_a_parse_error(capsys, tmp_path):
    # nothing reads a rep table, so the statement is not part of the format
    text = ("gen w : 2\n"
            "mat G0 : [w w] -> [w w] { 1,1 = 1 ; 2,2 = 1 ; 3,3 = 1 ; 4,4 = 1 }\n"
            "  table rep w { G = G0 }\n")
    with pytest.raises(ParseError) as err:
        dsl.parse_presentation(text)
    assert (err.value.line, err.value.col) == (3, 3)
    assert "table" not in err.value.expected
    doc = tmp_path / "table.qg"
    doc.write_text(text)
    assert cli.main(["check", str(doc), "--suite", "validate"]) == 2
    assert "3:3" in capsys.readouterr().err


def test_scalar_expressions_in_entries():
    from cqtcheck.scalars import I
    doc = dsl.parse_presentation(
        "gen w : 2\n"
        "mat A : [w] -> [w] { 1,1 = (t^2-1)/(t+2) ; 2,2 = -i*q^-1 }\n")
    a = doc.mats["A"].matrix
    t = T
    assert a[0, 0] == (t * t - 1) / (t + 2)
    assert a[1, 1] == -I * (t ** -2)


def test_comments_and_whitespace():
    doc = dsl.parse_presentation(
        "# heading\n\ngen w : 2   # trailing\n"
        "mat E : [] -> [w w] { 2,1 = 1 }  # entries\n")
    assert "E" in doc.mats
