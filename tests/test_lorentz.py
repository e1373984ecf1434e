from fractions import Fraction

import pytest

from cqtcheck import cqt, lorentz
from cqtcheck.catalog import make_lorentz_beta_minus, make_lorentz_flip
from cqtcheck.errors import AxiomViolation, ForbiddenParameter
from cqtcheck.presentation import (GeneratorSpec, Presentation, Relation,
                                   Saturation)
from cqtcheck.scalars import ConjMode, Gaussian, I, ONE, Q, Scalar, T, ZERO
from cqtcheck.tensor import Tensor, flip, kron

q = Q
t = T


def classified(classify, d):
    """classify(d) in a run of its own: a saturation and a law table."""
    return classify(d, Saturation(d.presentation, 3), cqt.LawTable())


@pytest.fixture(scope="module")
def generic():
    return lorentz.make_sl2(Q)


@pytest.fixture(scope="module")
def lorentz_generic(generic):
    return lorentz.make_lorentz(generic, flip(2, 2), ONE)


def test_make_sl2_case1(generic):
    assert generic.E.entries == [ZERO, ONE, -q, ZERO]
    assert generic.Eprime.entries == [ZERO, -(q ** -1), ONE, ZERO]
    assert (generic.Eprime @ generic.E).entries[0] == -(q + q ** -1)


def sl2_case2(q):
    """SL(2) at q = 1 with the pairing E = [[1, 1], [-1, 0]] in place of
    make_sl2's [[0, 1], [-q, 0]]: a second datum at q = 1, which no
    built-in makes."""
    if not q.is_one():
        raise ForbiddenParameter(f"case 2 needs q = 1, got {q}")
    emat = Tensor.from_rows([[1, 1], [-1, 0]])
    E = emat.slice_legs((0, 1), ())
    Eprime = emat.inverse().slice_legs((), (0, 1))
    p = Presentation([GeneratorSpec("w", 2, "w")],
                     [Relation("E", E, (), ("w", "w")),
                      Relation("Ep", Eprime, ("w", "w"), ())])
    return lorentz.SL2Datum(q, q.sqrt(), E, Eprime, p)


def test_make_sl2_case2():
    d = sl2_case2(Q.subs(1))
    assert d.E.entries == [ONE, ONE, -ONE, ZERO]
    assert (d.Eprime @ d.E).entries[0] == Scalar.from_int(-2)
    assert cqt.all_pass(lorentz.validate_sl2(d))
    with pytest.raises(ForbiddenParameter):
        sl2_case2(Q)


def test_make_sl2_forbidden_parameters():
    with pytest.raises(ForbiddenParameter):
        lorentz.make_sl2(Q.subs(Gaussian(0, 1)) * 0)   # q = 0
    with pytest.raises(ForbiddenParameter):
        lorentz.make_sl2(Scalar.from_gaussian(Gaussian(0, 1)))  # q = i
    with pytest.raises(ForbiddenParameter):
        lorentz.make_sl2(Scalar.from_int(2))  # no square root in the field


def test_duality_identities(generic):
    from cqtcheck.tensor import pad_with_identity
    E, Ep = generic.E, generic.Eprime
    lhs = pad_with_identity(Ep, (), (2,)) @ pad_with_identity(E, (2,), ())
    assert lhs == Tensor.identity((2,))
    rhs = pad_with_identity(Ep, (2,), ()) @ pad_with_identity(E, (), (2,))
    assert rhs == Tensor.identity((2,))


def test_candidate_block_expansion(generic):
    L1 = lorentz.candidate_L(generic, 1)
    expect = Tensor.from_rows(
        [[t, ZERO, ZERO, ZERO],
         [ZERO, t - t ** -3, t ** -1, ZERO],
         [ZERO, t ** -1, ZERO, ZERO],
         [ZERO, ZERO, ZERO, t]]).with_legs((2, 2), (2, 2))
    assert L1 == expect


def test_candidate_block_at_one_is_swap(generic):
    assert lorentz.candidate_L(generic, 1).subs(1) == flip(2, 2)


def test_candidate_family_inverse_relation(generic):
    L1 = lorentz.candidate_L(generic, 1)
    L2 = lorentz.candidate_L(generic, 2)
    L3 = lorentz.candidate_L(generic, 3)
    L4 = lorentz.candidate_L(generic, 4)
    ident = Tensor.identity((2, 2))
    assert L1 @ L3 == ident
    assert L2 @ L4 == ident
    assert L2 == -L1


def test_classify_sl2_counts(generic):
    assert classified(lorentz.classify_sl2, generic).counts()["cqt"] == 4
    assert classified(lorentz.classify_sl2, generic).counts()["ct"] == 0

    at_one = lorentz.make_sl2(Q.subs(1))
    counts = classified(lorentz.classify_sl2, at_one).counts()
    assert counts["cqt"] == 2 and counts["ct"] == 2

    at_i = lorentz.make_sl2(Q.subs(Gaussian(0, 1)))
    counts = classified(lorentz.classify_sl2, at_i).counts()
    assert counts["cqt"] == 2 and counts["ct"] == 0


def test_make_lorentz_validates_exchange_duality(generic):
    with pytest.raises(AxiomViolation) as err:
        lorentz.make_lorentz(generic, flip(2, 2) * 2, ONE)
    assert err.value.axiom == "exchange-duality"


def test_make_lorentz_validates_invertibility(generic):
    # a singular X is rejected before its beta is looked at
    with pytest.raises(AxiomViolation) as err:
        lorentz.make_lorentz(generic, Tensor.zeros((2, 2), (2, 2)),
                             Scalar.from_int(2))
    assert err.value.axiom == "invertibility"


def test_a_replaced_intertwiner_brings_its_own_inverse(lorentz_generic):
    d = lorentz_generic
    assert d.X_inv @ d.X == Tensor.identity((2, 2))
    e = d._replace(X=d.X * Scalar.from_int(2))
    assert e.X_inv == d.X_inv * Scalar.from_gaussian(Gaussian(Fraction(1, 2)))
    with pytest.raises(AttributeError):
        d.X = e.X


def test_make_lorentz_validates_conjugation(generic):
    with pytest.raises(AxiomViolation) as err:
        lorentz.make_lorentz(generic, flip(2, 2), I)
    assert err.value.axiom == "conjugation"
    with pytest.raises(AxiomViolation) as err:
        lorentz.make_lorentz(generic, flip(2, 2), Scalar.from_int(2))
    assert err.value.axiom == "beta-quartic"


def test_make_lorentz_derives_conjugate_pairings(lorentz_generic):
    d = lorentz_generic
    assert d.Etilde == flip(2, 2) @ d.base.E.conjugate(ConjMode.REAL)
    assert d.Eptilde == d.base.Eprime.conjugate(ConjMode.REAL) @ flip(2, 2)


def test_beta_minus_datum_valid():
    d = make_lorentz_beta_minus(None)
    assert d.beta == Scalar.from_int(-1)


def test_candidate_blocks_tilde_consistency(lorentz_generic):
    from cqtcheck.tensor import tauconj
    c = lorentz.candidate_blocks(lorentz_generic, 1, 2, 1, -1,
                                 lorentz.family_blocks(lorentz_generic))
    L2inv = lorentz.candidate_L(lorentz_generic.base, 2).inverse()
    assert c.block("wb", "wb") == tauconj(
        L2inv.with_legs((2, 2), (2, 2)), ConjMode.REAL)
    assert c.block("w", "wb") == lorentz_generic.X
    assert c.block("wb", "w") == -lorentz_generic.X.inverse()


def test_candidate_blocks_braid(lorentz_generic):
    # every admissible single block satisfies the braid identity
    from cqtcheck.tensor import pad_with_identity
    for i in (1, 2, 3, 4):
        L = lorentz.candidate_L(lorentz_generic.base, i)
        r1 = pad_with_identity(L, (), (2,))
        r2 = pad_with_identity(L, (2,), ())
        assert r1 @ r2 @ r1 == r2 @ r1 @ r2


@pytest.mark.parametrize("value,counts", [
    (None, {"cqt": 64, "cqt_star": 16, "ct": 0, "ct_star": 0}),
    (1, {"cqt": 16, "cqt_star": 8, "ct": 8, "ct_star": 4}),
    (Gaussian(0, 1), {"cqt": 16, "cqt_star": 8, "ct": 0, "ct_star": 0}),
])
def test_classify_lorentz_counts(value, counts):
    result, flag = classified(lorentz.classify_lorentz,
                              make_lorentz_flip(value))
    assert result.counts() == counts
    assert flag.status == "pass"


def test_classify_lorentz_beta_minus_star_empty():
    d = make_lorentz_beta_minus(None)
    result, flag = classified(lorentz.classify_lorentz, d)
    assert result.counts()["cqt"] == 64
    assert result.counts()["cqt_star"] == 0
    assert flag.status == "pass"


@pytest.mark.parametrize("value,counts", [
    (1, {"cqt": 16, "cqt_star": 0, "ct": 8, "ct_star": 0}),
    (Gaussian(0, 1), {"cqt": 16, "cqt_star": 0, "ct": 0, "ct_star": 0}),
])
def test_classify_lorentz_beta_minus_specialized(value, counts):
    result, flag = classified(lorentz.classify_lorentz,
                              make_lorentz_beta_minus(value))
    assert result.counts() == counts
    assert flag.status == "pass"


def test_reference_flag_reports_divergence(lorentz_generic):
    # a deliberately wrong reference comparison must be flagged, not hidden
    result, flag = classified(lorentz.classify_lorentz, lorentz_generic)
    assert flag.status == "pass"
    assert "64" in flag.note or "cqt" in flag.note


@pytest.mark.parametrize("sample,expected", [
    (Fraction(1, 2), "pass"), (1, "pass"), (4, "pass"),
    (-1, "fail"), (-4, "fail"),
])
def test_real_form_compact(generic, sample, expected):
    assert lorentz.real_form_check(generic, lorentz.SUQ2, sample).status == expected


def test_real_form_split(generic):
    assert lorentz.real_form_check(generic, lorentz.SLQ2R, 1).status == "pass"
    assert lorentz.real_form_check(
        generic, lorentz.SLQ2R, Gaussian(0, 1)).status == "fail"
    with pytest.raises(ForbiddenParameter):
        lorentz.real_form_check(generic, lorentz.SLQ2R, 2)


def test_unimodular_mode_datum(generic):
    d = lorentz.make_lorentz(generic, flip(2, 2), ONE, ConjMode.UNIMODULAR)
    # the conjugate pairing picks up the inverted parameter
    assert d.Etilde.entries == [ZERO, -(q ** -1), ONE, ZERO]
    result, flag = classified(lorentz.classify_lorentz, d)
    assert result.counts()["cqt"] == 64
    assert result.counts()["cqt_star"] == 16
    assert flag.status == "pass"


def test_counts_monotone():
    result, _ = classified(lorentz.classify_lorentz, make_lorentz_flip(1))
    assert set(result.ct_star_passing) <= set(result.ct_passing)
    assert set(result.ct_star_passing) <= set(result.star_passing)
    assert set(result.ct_passing) <= set(result.passing)
    assert set(result.star_passing) <= set(result.passing)
