from pathlib import Path

import pytest

from cqtcheck import cli, cqt, lorentz
from cqtcheck.presentation import CandidateR, Saturation, saturate
from cqtcheck.scalars import ConjMode, Gaussian, ONE, Q, T
from cqtcheck.tensor import Tensor, flip, kron

q = Q
t = T
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def slq2():
    return lorentz.make_sl2(Q)


@pytest.fixture(scope="module")
def slq2_sat(slq2):
    return saturate(slq2.presentation, 3, 2)


@pytest.fixture(scope="module")
def slq2_classical():
    return lorentz.make_sl2(Q.subs(1))


@pytest.fixture(scope="module")
def lorentz_flip():
    return lorentz.make_lorentz(lorentz.make_sl2(Q), flip(2, 2), ONE)


@pytest.fixture(scope="module")
def lorentz_sat(lorentz_flip):
    return saturate(lorentz_flip.presentation, 3, 2)


def all_flip_candidate(d):
    return CandidateR(d.presentation, {("w", "w"): flip(2, 2)}, label="flip")


def condition2(c, witnesses):
    """check_condition2 with a table of its own."""
    return cqt.check_condition2(c, witnesses, cqt.LawTable())


def blocks(d, *signs):
    """The Lorentz candidate of the given signs."""
    return lorentz.candidate_blocks(d, *signs, lorentz.family_blocks(d))


def test_word_R_base_cases(slq2):
    c = lorentz.sl2_family(slq2)[0]
    assert cqt.word_R(c, (), "w", "left", {}) == Tensor.identity((2,))
    assert cqt.word_R(c, (), "w", "right", {}) == Tensor.identity((2,))
    assert cqt.word_R(c, ("w",), "w", "left", {}) == c.block("w", "w")


def test_word_R_flip_blocks_give_cyclic_permutation(slq2_classical):
    c = all_flip_candidate(slq2_classical)
    got = cqt.word_R(c, ("w", "w"), "w", "left", {})
    tau = flip(2, 2)
    expect = kron(tau, Tensor.identity((2,))) @ kron(Tensor.identity((2,)), tau)
    assert got == expect


def test_word_R_coherence_over_splits(slq2):
    # the word recursion agrees with the split law R[uv,g] = (R[u,g] (x) 1)(1 (x) R[v,g])
    from cqtcheck.tensor import pad_with_identity
    c = lorentz.sl2_family(slq2)[0]
    word = ("w", "w", "w")
    whole = cqt.word_R(c, word, "w", "left", {})
    for cut in (1, 2):
        u, v = word[:cut], word[cut:]
        du = slq2.presentation.word_dims(u)
        dv = slq2.presentation.word_dims(v)
        ru = cqt.word_R(c, u, "w", "left", {})
        rv = cqt.word_R(c, v, "w", "left", {})
        split = (pad_with_identity(ru, (), dv)
                 @ pad_with_identity(rv, du, ()))
        assert split == whole
    whole = cqt.word_R(c, word, "w", "right", {})
    for cut in (1, 2):
        u, v = word[:cut], word[cut:]
        du = slq2.presentation.word_dims(u)
        dv = slq2.presentation.word_dims(v)
        ru = cqt.word_R(c, u, "w", "right", {})
        rv = cqt.word_R(c, v, "w", "right", {})
        split = (pad_with_identity(rv, du, ())
                 @ pad_with_identity(ru, (), dv))
        assert split == whole


def test_condition2_commutative_all_flip(slq2_classical):
    c = all_flip_candidate(slq2_classical)
    reports = condition2(c, Saturation(c.presentation, 3))
    assert cqt.all_pass(reports)


def test_condition2_standard_block_passes(slq2, slq2_sat):
    c = lorentz.sl2_family(slq2)[0]
    assert cqt.all_pass(condition2(c, slq2_sat))


def test_condition2_scaled_block_fails_exchange(slq2, slq2_sat):
    bad = CandidateR(slq2.presentation,
                     {("w", "w"): lorentz.candidate_L(slq2, 1) * 2})
    reports = condition2(bad, slq2_sat)
    failed = {r.check_id for r in reports if r.status == "fail"}
    assert "exchange-left:E:w" in failed
    for r in reports:
        if r.status == "fail":
            assert r.witness is not None and r.witness[1].num


def test_eval_hom_unit_generator_is_counit(slq2):
    c = lorentz.sl2_family(slq2)[0]
    h = cqt.eval_hom(c, "1")
    for i in range(2):
        for j in range(2):
            expect = ONE if i == j else ONE * 0
            assert h.values[("w", i, j)][0, 0] == expect


def test_eval_hom_flip_blocks(slq2_classical):
    # with swap blocks the evaluation map reads off matrix units
    c = all_flip_candidate(slq2_classical)
    h = cqt.eval_hom(c, "w")
    tau = flip(2, 2)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert h.values[("w", i, j)][k, l] == \
                        tau.entry((k, i), (j, l))


def test_two_code_paths_agree(slq2, slq2_sat):
    for cand in lorentz.sl2_family(slq2) + [
            CandidateR(slq2.presentation,
                       {("w", "w"): lorentz.candidate_L(slq2, 1) * 2})]:
        cond2 = cqt.all_pass(
            r for r in condition2(cand, slq2_sat)
            if r.check_id.startswith("exchange"))
        preserved = all(
            cqt.all_pass(cqt.check_relations_preserved(
                cqt.eval_hom(cand, beta), slq2.presentation))
            for beta in slq2.presentation.generators)
        assert cond2 == preserved


DOCUMENTS = sorted(path for pattern in ("src/cqtcheck/data/*.qg",
                                        "tests/data/*.qg")
                   for path in ROOT.glob(pattern))


@pytest.mark.parametrize("eval_expr", [None, "t=1"], ids=["generic", "t=1"])
@pytest.mark.parametrize("path", DOCUMENTS, ids=[p.name for p in DOCUMENTS])
def test_two_code_paths_agree_on_every_document(path, eval_expr):
    # a document's cqt suite decides its exchange laws and, independently,
    # whether each evaluation map preserves every relation
    _, rows, _ = cli.dispatch(cli.RunConfig(str(path), ("cqt",), eval_expr))
    reports = [r for _, r in rows]
    exchange = [r for r in reports if r.check_id.startswith("exchange-")]
    preserved = [r for r in reports if r.check_id.startswith("preserved:")]
    assert exchange and preserved
    assert cqt.all_pass(exchange) == cqt.all_pass(preserved)


def test_a_block_no_relation_reads_may_be_left_out(tmp_path):
    # v is in no relation's words: no law and no evaluation map reads R[v, v]
    doc = tmp_path / "partial.qg"
    doc.write_text(
        "field { var = t ; conj = real }\ngen w : 2\ngen v : 1\n"
        "mat E : [] -> [w w] { 2,1 = 1 ; 3,1 = -q }\n"
        "mat Ep : [w w] -> [] { 1,2 = -1/q ; 1,3 = 1 }\nrel E\nrel Ep\n"
        "cand w w = t * kron(flip(1,2), flip(1,2)) + t^-1 * E . Ep\n"
        "cand w v = flip(2,1)\ncand v w = flip(1,2)\n")
    _, rows, _ = cli.dispatch(cli.RunConfig(str(doc), ("cqt",)))
    laws = [r for _, r in rows if not r.check_id.startswith("intertwiner")]
    assert {r.check_id for r in laws} >= {"preserved:E:v", "preserved:Ep:v"}
    assert cqt.all_pass(laws)


def test_relations_preserved_unit_generator_always(slq2):
    bad = CandidateR(slq2.presentation,
                     {("w", "w"): lorentz.candidate_L(slq2, 1) * 2})
    h = cqt.eval_hom(bad, "1")
    assert cqt.all_pass(cqt.check_relations_preserved(h, slq2.presentation))


def test_check_star_lorentz(lorentz_flip):
    good = blocks(lorentz_flip, 1, 3, 1, -1)
    assert cqt.all_pass(cqt.check_star(good, ConjMode.REAL, cqt.LawTable()))
    bad = blocks(lorentz_flip, 1, 1, 1, 1)
    assert not cqt.all_pass(cqt.check_star(bad, ConjMode.REAL, cqt.LawTable()))


def test_check_star_beta_minus_always_fails():
    from cqtcheck.catalog import make_lorentz_beta_minus
    d = make_lorentz_beta_minus(None)
    for i, j, ex, exp in [(1, 3, 1, 1), (1, 3, 1, -1), (2, 4, -1, 1)]:
        cand = blocks(d, i, j, ex, exp)
        assert not cqt.all_pass(
            cqt.check_star(cand, ConjMode.REAL, cqt.LawTable()))


def test_check_ct(slq2, slq2_classical):
    c1 = lorentz.sl2_family(slq2_classical)[0]   # swap block at q = 1
    assert cqt.all_pass(cqt.check_ct(c1, cqt.LawTable()))
    assert cqt.all_pass(cqt.check_ct(all_flip_candidate(slq2_classical),
                                     cqt.LawTable()))
    generic = lorentz.sl2_family(slq2)[0]
    assert not cqt.all_pass(cqt.check_ct(generic, cqt.LawTable()))


def test_classify_deduplicates(slq2_classical):
    fam = lorentz.sl2_family(slq2_classical)
    sat = Saturation(slq2_classical.presentation, 3)
    result = cqt.classify(fam, None, sat, cqt.LawTable())
    assert len(result.candidates) == 2
    assert result.counts()["cqt"] == 2


def test_classify_empty_family(slq2):
    result = cqt.classify([], None, Saturation(slq2.presentation, 3),
                          cqt.LawTable())
    assert result.counts() == {"cqt": 0, "cqt_star": 0, "ct": 0, "ct_star": 0}


def test_flipped_inverse_family_passes(lorentz_flip, lorentz_sat):
    # from a passing cotriangular-style candidate, the family of inverted
    # opposite blocks passes the core checks as well
    base = blocks(lorentz_flip, 1, 3, 1, 1)
    assert cqt.all_pass(condition2(base, lorentz_sat))
    names = ("w", "wb")
    flipped = CandidateR(
        lorentz_flip.presentation,
        {(a, b): base.block(b, a).inverse() for a in names for b in names})
    reports = condition2(flipped, lorentz_sat)
    assert cqt.all_pass(reports)
