import random

import pytest

from cqtcheck import cqt, lorentz, uea
from cqtcheck import inhomogeneous as inh
from cqtcheck.presentation import FunctionalHom
from cqtcheck.scalars import G_ONE, Gaussian, ONE, Q, Scalar, T, ZERO
from cqtcheck.tensor import Tensor, flip, kron


@pytest.fixture(scope="module")
def classical():
    base = lorentz.make_sl2(Q.subs(1), 1)
    ld = lorentz.make_lorentz(base, flip(2, 2), ONE)
    return inh.poincare_from_lorentz(ld)


@pytest.fixture(scope="module")
def cop():
    return uea.CoproductTable(4)


def twisted_datum(with_Z=False):
    d = Tensor.from_rows([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    r = (flip(4, 4) @ kron(d, d.inverse())).with_legs((4, 4), (4, 4))
    z = None
    if with_Z:
        zent = [ZERO] * 64
        zent[(0 * 4 + 1) * 4 + 2] = ONE
        z = Tensor((4, 4), (4,), zent)
    return inh.abstract_datum(r, Z=z)


def test_coproduct_coassociative_on_letters(cop):
    for letter in cop.letters():
        left = {}
        for u, v in cop.splits(letter):
            for uu, uv in (cop.splits(u) if u is not None else [(None, None)]):
                left[(uu, uv, v)] = left.get((uu, uv, v), 0) + 1
        right = {}
        for u, v in cop.splits(letter):
            for vu, vv in (cop.splits(v) if v is not None else [(None, None)]):
                right[(u, vu, vv)] = right.get((u, vu, vv), 0) + 1

        def norm(d):
            out = {}
            for key, cnt in d.items():
                squeezed = tuple(k for k in key if k is not None)
                out[squeezed] = out.get(squeezed, 0) + cnt
            return out

        assert norm(left) == norm(right)


def test_l_letter_values(classical):
    # at coefficient zero the vector block is an R-slice and the rest of the
    # translation data vanishes
    l0 = uea.build_l(classical, c=Scalar.from_int(0))
    for a in range(4):
        for b in range(4):
            v = l0.values[uea.lam(a, b)]
            for j in range(4):
                for u in range(4):
                    assert v[j, u] == classical.R.entry((j, a), (b, u))
            assert all(not v[j, 4].num for j in range(4))     # M block
            assert v[4, 4] == (ONE if a == b else ZERO)       # counit row
        assert all(not l0.values[uea.y(a)][j, u].num
                   for j in range(4) for u in range(4))


def test_l_translation_column_is_scaled_invariant(classical):
    c = Scalar.from_int(3)
    lc = uea.build_l(classical, c=c)
    m0 = classical.invariant
    for a in range(4):
        col = lc.values[uea.y(a)]
        for j in range(4):
            assert col[j, 4] == m0.entry((j, a), ()) * c


def test_l_multiplicative_on_words(classical):
    lc = uea.build_l(classical, c=Scalar.from_int(1))
    w1 = (uea.lam(0, 0), uea.y(1))
    assert lc.value(w1) == lc.value(w1[:1]) @ lc.value(w1[1:])
    w2 = (uea.y(2), uea.lam(1, 0), uea.y(0))
    assert lc.value(w2) == lc.value(w2[:2]) @ lc.value(w2[2:])


def test_l_block_triangular_on_words(classical, cop):
    lc = uea.build_l(classical, c=Scalar.from_int(2))
    for word in uea._words(cop, 2)[::37]:
        v = lc.value(word)
        eps = cop.counit_word(word)
        for u in range(4):
            assert not v[4, u].num
        assert v[4, 4] == eps


def _degree(t: Tensor) -> int:
    """The largest degree in t of an entry of t, whose entries are
    polynomials; -1 for the zero tensor."""
    assert all(len(v.polys()[1]) == 1 for _, v in t.items())
    return max((len(v.polys()[0]) - 1 for _, v in t.items()), default=-1)


def test_coefficient_degree_bounds_the_sample_counts(classical, cop):
    # the classical datum is constant in t, so at c = t the degree in t is
    # the degree in the coefficient: l(word) is affine in c and B(word)
    # quadratic on every word up to length 3, so the rll defects (B against
    # R_Q) are at most cubic, the pairing values at most quadratic and the
    # ideal values affine, as the four and three coefficient points assume
    lt = uea.build_l(classical, c=T)
    conv = uea.ConvTable(lt, cop)
    words = uea._words(cop, 3)
    assert max(_degree(lt.value(w)) for w in words) == 1
    assert max(_degree(conv.value(w)) for w in words) == 2


def test_l_vector_letters_carry_the_translation_twist():
    # with nonzero twist data the vector letters expose the Z slice in the
    # translation column, pinning the slicing convention
    d = twisted_datum(with_Z=True)
    l0 = uea.build_l(d, ZERO)
    for a in range(4):
        for b in range(4):
            v = l0.values[uea.lam(a, b)]
            for j in range(4):
                assert v[j, 4] == d.Z.entry((j, a), (b,))


def test_X_letter_values(classical):
    x = uea.build_X(classical)
    for a in range(4):
        for b in range(4):
            v = x.values[uea.lam(a, b)]
            for i in range(4):
                for k in range(4):
                    assert v[i, k] == classical.R.entry((a, k), (i, b))
                assert not v[i, 4].num
            assert v[4, 4] == (ONE if a == b else ZERO)
        v = x.values[uea.y(a)]
        for i in range(4):
            assert v[i, 4] == (ONE if i == a else ZERO)
        assert not v[4, 4].num


def test_convolution_oracles(classical, cop):
    lc = uea.build_l(classical, c=Scalar.from_int(1))
    # counit * counit on a vector letter is the counit
    assert uea.convolve(lc, (4, 4), lc, (4, 4),
                        {(uea.lam(0, 0),): ONE}, cop) == ONE
    assert uea.convolve(lc, (4, 4), lc, (4, 4),
                        {(uea.lam(0, 1),): ONE}, cop) == ZERO
    # counit is the convolution unit
    for a, c in [(0, 1), (2, 2)]:
        got = uea.convolve(lc, (4, 4), lc, (a, c),
                           {(uea.lam(1, 1),): ONE}, cop)
        assert got == lc.values[uea.lam(1, 1)][a, c]
    # block-block convolution expands to the double R contraction
    for b, dd, a, c in [(0, 1, 2, 3), (1, 1, 2, 2)]:
        got = uea.convolve(lc, (b, dd), lc, (a, c),
                           {(uea.lam(1, 2),): ONE}, cop)
        expect = ZERO
        for k in range(4):
            expect = expect + (classical.R.entry((b, 1), (k, dd))
                               * classical.R.entry((a, k), (2, c)))
        assert got == expect


def test_conv_table_matches_generic_convolution(classical, cop):
    lc = uea.build_l(classical, c=Scalar.from_int(1))
    table = uea.ConvTable(lc, cop)
    rng = random.Random(3)
    words = [(uea.lam(0, 1),), (uea.y(2),), (uea.lam(1, 0), uea.y(3))]
    for word in words:
        B = table.value(word)
        for _ in range(6):
            x, y_, u, v = (rng.randrange(5) for _ in range(4))
            assert B.entry((x, y_), (u, v)) == uea.convolve(
                lc, (x, u), lc, (y_, v), {word: ONE}, cop)


def test_rll_classical_all_pass(classical):
    reports = uea.check_rll(classical, max_len=2)
    assert cqt.all_pass(reports)
    ids = {r.check_id for r in reports}
    assert "rll:paths-agree:len2" in ids
    assert "rll:implied-LM:len2" in ids


def test_perturbed_translation_column_detected(classical):
    # the vector-swap datum is degenerate: its exchange identities hold for
    # every translation column (a symmetric bump is literally another valid
    # invariant), so a corrupted column must be caught by the invariance
    # gate, not by the word identities
    import dataclasses
    ent = [ZERO] * 16
    ent[0 * 4 + 1] = ONE
    m_bad = Tensor((4, 4), (), ent)
    assert (classical.R @ m_bad) != m_bad
    bad = dataclasses.replace(classical, invariants=[m_bad])
    reports = inh.check_structure(bad)
    failed = {r.check_id for r in reports if r.status == "fail"}
    assert "structure:invariant-fixed:0" in failed
    # a symmetric bump is fixed by the swap and extends the valid family
    ent = [ZERO] * 16
    ent[0] = ONE
    m_sym = Tensor((4, 4), (), ent)
    shifted = dataclasses.replace(classical,
                                  invariants=[classical.invariant + m_sym])
    assert cqt.all_pass(inh.check_structure(shifted))
    assert cqt.all_pass(uea.check_rll(shifted, max_len=1))


def test_xkx_classical(classical):
    reports = uea.check_xkx(classical, max_len=2, n=classical.invariant)
    assert cqt.all_pass(reports)
    ids = {r.check_id for r in reports}
    assert "xkx:with-invariant-row:len2" in ids


def test_xkx_zero_row_variant_equals_base(classical):
    zero = Tensor.zeros((4, 4), ())
    assert uea.build_K(classical) + uea.build_mP(classical, zero) == \
        uea.build_K(classical)


def test_xkx_transpose_convention_is_pinned():
    # on a datum with a nonsymmetric involution, replacing the transposed
    # vector block by the plain one must break the exchange relation
    d = twisted_datum()
    assert d.R != d.R.transpose().with_legs((4, 4), (4, 4))
    assert cqt.all_pass(uea.check_xkx(d, max_len=2))
    wrong = inh.build_RP(d)  # plain vector block, same elsewhere for Z=T=0
    conv = uea.ConvTable(uea.build_X(d), uea.CoproductTable(4))
    assert any(not (conv.value(w) @ wrong - wrong @ conv.value(w)).is_zero()
               for w in uea._words(uea.CoproductTable(4), 2))


def test_pairings_classical(classical):
    reports = uea.check_pairings(classical, k=classical.invariant,
                                 n=classical.invariant, max_len=2)
    assert cqt.all_pass(reports)


def test_pairings_zero_trivially_pass(classical):
    zero = Tensor.zeros((4, 4), ())
    assert cqt.all_pass(uea.check_pairings(classical, k=zero, n=zero,
                                           max_len=1))


def test_pairings_reject_non_invariant():
    # the twisted involution admits no convolution-invariant pairing at all
    # (its structure functionals rescale entries), so any nonzero column is
    # rejected, fixed by R or not
    d = twisted_datum()
    ent = [ZERO] * 16
    ent[0 * 4 + 1] = ONE
    k_bad = Tensor((4, 4), (), ent)
    assert (d.R @ k_bad) != k_bad
    reports = uea.check_pairings(d, k=k_bad, max_len=1)
    assert any(r.status == "fail" for r in reports)
    ent = [ZERO] * 16
    ent[0 * 4 + 1] = ONE
    ent[1 * 4 + 0] = Scalar.from_int(2)
    k_fixed = Tensor((4, 4), (), ent)
    assert (d.R @ k_fixed) == k_fixed
    reports = uea.check_pairings(d, k=k_fixed, max_len=1)
    assert any(r.status == "fail" for r in reports)


def test_ideal_killed_classical(classical):
    assert cqt.all_pass(uea.check_ideal_killed(classical))


def test_ideal_detects_incoherent_translation_twist():
    d = twisted_datum(with_Z=True)
    reports = uea.check_ideal_killed(d)
    failed = {r.check_id for r in reports if r.status == "fail"}
    assert "ideal:mixed:l" in failed
    assert "ideal:mixed:X" in failed


def test_rll_detects_incoherent_translation_twist():
    d = twisted_datum(with_Z=True)
    reports = uea.check_rll(d, max_len=1)
    failed = {r.check_id for r in reports if r.status == "fail"}
    assert "rll:full:len1" in failed
    agree = [r for r in reports if r.check_id == "rll:paths-agree:len1"]
    assert agree and agree[0].status == "pass"


def test_letter_span_diagnostic(classical):
    # at coefficient zero the braiding is the trivial one and the dual
    # algebra shrinks to scalars
    assert uea.letter_span_dim(uea.build_l(classical, c=Scalar.from_int(0))) == 1
    assert uea.letter_span_dim(uea.build_l(classical, c=Scalar.from_int(1))) == 5


def test_uea_suite_green(classical):
    reports = uea.uea_suite(classical, max_len=2)
    assert cqt.all_pass(reports)
    assert any(r.check_id == "uea:letter-span" for r in reports)
