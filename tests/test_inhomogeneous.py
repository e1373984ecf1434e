import dataclasses
import random
from fractions import Fraction

import pytest

from cqtcheck import catalog, cqt, lorentz
from cqtcheck import inhomogeneous as inh
from cqtcheck.errors import AxiomViolation, DuplicateName, StructureViolation
from cqtcheck.scalars import (ConjMode, G_I, G_ONE, Gaussian, ONE, Q, Scalar,
                              ZERO)
from cqtcheck.tensor import Tensor, flip, kron, pad_with_identity

i_s = Scalar((G_I,), (G_ONE,))


@pytest.fixture(scope="module")
def classical():
    base = lorentz.make_sl2(Q.subs(1), 1)
    ld = lorentz.make_lorentz(base, flip(2, 2), ONE)
    return inh.poincare_from_lorentz(ld)


def braid_defect(rq):
    """r1 r2 r1 - r2 r1 r2 for r1 = rq (x) 1 and r2 = 1 (x) rq, built from
    explicit paddings: the reference the braid law is played against."""
    single = rq.cod[0]
    r1 = pad_with_identity(rq, (), (single,))
    r2 = pad_with_identity(rq, (single,), ())
    return r1 @ r2 @ r1 - r2 @ r1 @ r2


def twisted_R():
    d = Tensor.from_rows([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    return (flip(4, 4) @ kron(d, d.inverse())).with_legs((4, 4), (4, 4))


def test_pauli_intertwiner():
    v, vinv = inh.pauli_basis()
    col0 = [v.entry((c, d), (0,)) for c in range(2) for d in range(2)]
    assert col0 == [ONE, ZERO, ZERO, ONE]
    assert vinv @ v == Tensor.identity((4,))
    half = Scalar.normalize((G_ONE,), (Gaussian(2),))
    assert vinv == v.conjugate(ConjMode.REAL).transpose() * half


def test_classical_vector_exchange_is_swap(classical):
    assert classical.R == flip(4, 4)
    assert classical.R @ classical.R == Tensor.identity((4, 4))
    assert classical.Z.is_zero()
    assert classical.T.is_zero()


def test_invariant_column(classical):
    m0 = classical.invariant
    half = Scalar.normalize((G_ONE,), (Gaussian(2),))
    expect = [ZERO] * 16
    expect[0] = -half
    expect[5] = half
    expect[10] = half
    expect[15] = half
    assert m0.entries == expect
    assert classical.R @ m0 == m0
    assert inh.check_m_star(classical, m0, "x").status == "pass"
    for name in ("w", "wb"):
        assert inh.counit_invariance_defect(classical, name, m0).is_zero()


def test_abstract_datum_rejects_a_table_entry_for_the_vector_rep():
    # the vector rep is (R, Z) by definition; an entry of its own would
    # silently change the twist the structure checks read
    entry = inh.RepEntry(twisted_R(), Tensor.zeros((4, 4), (4,)))
    with pytest.raises(DuplicateName):
        inh.abstract_datum(flip(4, 4), reps={inh.LAM: entry})


def test_abstract_mode_has_no_distinguished_invariant():
    da = inh.abstract_datum(flip(4, 4))
    assert da.invariant is None


def test_extended_exchange_blocks(classical):
    rp = inh.build_RP(classical)
    assert rp == flip(5, 5)
    assert rp @ rp == Tensor.identity((5, 5))
    # the one-way sectors read the identity blocks
    for a in range(4):
        assert rp.entry((a, 4), (4, a)) == ONE
        assert rp.entry((4, a), (a, 4)) == ONE
    assert rp.entry((4, 4), (4, 4)) == ONE


def test_extended_block_shift_sector():
    # with RT = -T the shift corner is (R-1)T = -2T
    R = twisted_R()
    ent = [ZERO] * 16
    ent[1 * 4 + 2] = i_s
    ent[2 * 4 + 1] = -i_s
    T = Tensor((4, 4), (), ent)
    assert (R @ T) == -T
    d = inh.abstract_datum(R, T=T)
    rp = inh.build_RP(d)
    for a in range(4):
        for b in range(4):
            assert rp.entry((a, b), (4, 4)) == T.entry((a, b), ()) * (-2)


def test_rp_squares_to_identity_under_conditions():
    R = twisted_R()
    ent = [ZERO] * 16
    ent[1 * 4 + 2] = i_s
    ent[2 * 4 + 1] = -i_s
    T = Tensor((4, 4), (), ent)
    d = inh.abstract_datum(R, T=T)
    rp = inh.build_RP(d)
    assert rp @ rp == Tensor.identity((5, 5))


def test_shift_hermiticity_enforced():
    ent = [ZERO] * 16
    ent[1] = ONE  # T_01 = 1 with T_10 = 0 is not hermitian
    T = Tensor((4, 4), (), ent)
    with pytest.raises(AxiomViolation):
        inh.abstract_datum(flip(4, 4), T=T)


def test_twist_vanishes_for_classical(classical):
    assert inh.tau_on_rep(classical, inh.LAM).slice_legs((0, 1, 2), (3,)).is_zero()
    for name in classical.reps:
        assert inh.tau_on_rep(classical, name).is_zero()


def test_twist_formula_against_direct_expansion():
    # independent oracle: expand the twist on the vector rep entrywise from
    # its defining convolution data, then compare with tau on the vector rep
    R = twisted_R()
    rng = random.Random(6)
    zent = [Scalar.from_int(rng.randrange(-1, 2)) for _ in range(64)]
    Z = Tensor((4, 4), (4,), zent)
    sym = [[rng.randrange(-1, 2) for _ in range(4)] for _ in range(4)]
    tent = [Scalar.from_int(sym[a][b] + sym[b][a]) for a in range(4)
            for b in range(4)]
    T = Tensor((4, 4), (), tent)
    d = inh.abstract_datum(R, Z=Z, T=T)
    got = inh.tau_on_rep(d, inh.LAM).slice_legs((0, 1, 2), (3,))
    N = 4
    for idx in [(0, 1, 2, 3), (1, 1, 0, 0), (3, 2, 1, 0), (0, 0, 0, 0)]:
        i, j, k, m2 = idx
        acc = ZERO
        for m in range(N):
            for n in range(N):
                r = (R - Tensor.identity((4, 4))).entry((i, j), (m, n))
                if not r.num:
                    continue
                term = ZERO
                for a in range(N):
                    term = term + Z.entry((n, k), (a,)) * Z.entry((m, a), (m2,))
                for s in range(N):
                    term = term - Z.entry((m, n), (s,)) * Z.entry((s, k), (m2,))
                if k == m2:
                    term = term + T.entry((m, n), ())
                for c in range(N):
                    for b in range(N):
                        for a in range(N):
                            term = term - (R.entry((n, k), (c, b))
                                           * R.entry((m, c), (m2, a))
                                           * T.entry((a, b), ()))
                acc = acc + r * term
        assert got.entry((i, j, k), (m2,)) == acc


def test_structure_reports_classical(classical):
    reports = inh.check_structure(classical)
    assert cqt.all_pass(reports)
    skipped = [r for r in reports if r.status == "skipped"]
    assert all("twist-on-rep" in r.check_id for r in skipped)


def test_structure_shift_skew_fails_for_fixed_T(classical):
    bad = dataclasses.replace(classical, T=classical.invariant)
    reports = inh.check_structure(bad)
    failed = {r.check_id for r in reports if r.status == "fail"}
    assert "structure:shift-skew" in failed


def test_antisymmetrized_shift_obstruction():
    # minimal datum with a nonzero totally antisymmetrized shift component
    zent = [ZERO] * 64
    zent[(0 * 4 + 1) * 4 + 2] = ONE
    Z = Tensor((4, 4), (4,), zent)
    tent = [ZERO] * 16
    tent[2 * 4 + 3] = i_s
    tent[3 * 4 + 2] = -i_s
    T = Tensor((4, 4), (), tent)
    d = inh.abstract_datum(flip(4, 4), Z=Z, T=T)
    a3 = inh.antisymmetrizer3(d)
    zt = (pad_with_identity(Z, (), (4,)) - pad_with_identity(Z, (4,), ())) @ T
    assert not (a3 @ zt).is_zero()
    reports = inh.check_structure(d)
    failed = {r.check_id for r in reports if r.status == "fail"}
    assert "structure:antisym-shift" in failed
    with pytest.raises(StructureViolation):
        inh.classify_poincare(d)


def test_braid_and_hexagons_classical(classical):
    for k in (1, -1):
        cand = inh.poincare_candidate(classical, k)
        reports = inh.check_braid_hexagons(classical, cand)
        assert cqt.all_pass(reports)


def test_coefficient_points(classical):
    # n interpolation points with an invariant column, 0 alone without one
    assert inh.coefficient_points(classical, 3) == inh.INTERP_POINTS[:3]
    bare = inh.abstract_datum(flip(4, 4))
    assert bare.invariant is None
    assert inh.coefficient_points(bare, 4) == (Scalar.from_int(0),)


def test_braid_interpolation_agrees_with_samples(classical):
    # degree-3 interpolation must agree with direct evaluation at many
    # rational coefficients
    rng = random.Random(13)
    for _ in range(10):
        c = Scalar.from_gaussian(Gaussian(
            Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))))
        rq = inh.build_RQ(classical, c)
        assert braid_defect(rq).is_zero()


@pytest.mark.parametrize("name", ["poincare-classical", "poincare-abstract",
                                  "poincare-twisted"])
def test_braid_law_is_the_braid_defect(name):
    # the left and the right law of R_Q against P, taken from the laws of
    # the extended table, each equal minus the reference, entry for entry,
    # also where the reference does not vanish (R_Q + R_Q^2)
    d = catalog.BUILTINS[name]()
    rq_laws = ("exchange-left:P:P:P", "exchange-right:P:P:P")
    for cval in (0, 2):
        rq = inh.build_RQ(d, Scalar.from_int(cval))
        for r in (rq, rq + rq @ rq):
            table = inh.exchange_table(d, None, r)
            laws = [law for law in cqt.exchange_laws(table.presentation)
                    if law.check_id in rq_laws]
            assert len(laws) == 2
            ref = braid_defect(r)
            for law in laws:
                rel = law.relation
                got = cqt.exchange_defect(table, rel.matrix, rel.source_word,
                                          rel.target_word, law.gamma, law.side)
                assert got == -ref
            if r is not rq:
                assert not ref.is_zero()


def test_braid_hexagons_take_few_products(monkeypatch):
    # 228 products on both signs when the braid row was a hand-built product
    # at four points, the one-sided hexagons had tables of their own at two
    # and each law its own word_R memo
    d = catalog.BUILTINS["poincare-classical"]()
    cands = [inh.poincare_candidate(d, k) for k in (-1, 1)]
    calls = []
    matmul = Tensor.__matmul__

    def counted(a, b):
        calls.append(1)
        return matmul(a, b)

    monkeypatch.setattr(Tensor, "__matmul__", counted)
    for cand in cands:
        assert cqt.all_pass(inh.check_braid_hexagons(d, cand))
    assert len(calls) <= 168


def test_braid_expansion_identity(classical):
    rp = inh.build_RP(classical)
    mp = inh.build_mP(classical, classical.invariant)
    ident = Tensor.identity((5, 5))
    assert (mp @ mp).is_zero()
    for cval in (0, 1, 3, 7):
        c = Scalar.from_int(cval)
        rq = rp + mp * c
        lhs = rq @ rq - ident
        rhs = (rp @ mp + mp @ rp) * c + (mp @ mp) * (c * c)
        assert lhs == rhs
    assert (rp @ rp - ident).is_zero()


def test_twisted_shift_breaks_braid_and_hexagon():
    # a shift with nonvanishing twist obstruction breaks both the braid and
    # the one-sided hexagon on the translation sector
    R = twisted_R()
    ent = [ZERO] * 16
    ent[1 * 4 + 2] = i_s
    ent[2 * 4 + 1] = -i_s
    T = Tensor((4, 4), (), ent)
    d = inh.abstract_datum(R, T=T)
    assert not inh.tau_on_rep(d, inh.LAM).slice_legs((0, 1, 2), (3,)).is_zero()
    reports = inh.check_braid_hexagons(d, None)
    failed = {r.check_id for r in reports if r.status == "fail"}
    assert "braid:extended" in failed
    assert "hexagon-one:Lam" in failed


def test_hexagon_failure_localizes_in_translation_sector():
    # when the homogeneous level is coherent, the pure vector sector of the
    # one-sided hexagon holds even while the twist obstruction breaks the
    # translation-translation sector
    from cqtcheck.tensor import unflatten
    R = twisted_R()
    ent = [ZERO] * 16
    ent[1 * 4 + 2] = i_s
    ent[2 * 4 + 1] = -i_s
    T = Tensor((4, 4), (), ent)
    d = inh.abstract_datum(R, T=T)
    P, N = 5, 4
    nv = d.rep("Lam").N
    rq = inh.build_RP(d).with_legs((P, P), (P, P))
    lhs = (pad_with_identity(nv, (P,), ()) @ pad_with_identity(nv, (), (P,))
           @ pad_with_identity(rq, (N,), ()))
    rhs = (pad_with_identity(rq, (), (N,)) @ pad_with_identity(nv, (P,), ())
           @ pad_with_identity(nv, (), (P,)))
    defect = lhs - rhs
    assert not defect.is_zero()
    sectors = set()
    for k, v in enumerate(defect.entries):
        if v.num:
            _, c = divmod(k, defect.ncols)
            cm = unflatten(defect.dom, c)
            sectors.add((cm[1] == N, cm[2] == N))
    assert sectors == {(True, True)}


def test_vector_normalization(classical):
    for k in (1, -1):
        cand = inh.poincare_candidate(classical, k)
        assert cqt.all_pass(inh.check_R_v_Lambda(classical, cand))
    mixed = lorentz.candidate_blocks(classical.lorentz, 1, 1, -1, 1)
    reports = inh.check_R_v_Lambda(classical, mixed)
    assert any(r.status == "fail" for r in reports)


def test_classify_poincare_classical(classical):
    reports, signs = inh.classify_poincare(classical)
    assert signs == [-1, 1]
    assert cqt.all_pass(reports)
    # of the whole Lorentz sign family, the two candidates of
    # poincare_candidate are the only ones with the vector normalization
    family = cqt.distinct(lorentz.lorentz_family(classical.lorentz))
    survivors = [c.label for c in family
                 if cqt.all_pass(inh.check_R_v_Lambda(classical, c))]
    assert survivors == ["L1:Lt1:x+1:xi+1", "L2:Lt2:x-1:xi-1"]


def test_poincare_normalizes_only_the_two_sign_candidates(monkeypatch,
                                                          capsys):
    # 18 calls when the classification also scanned the 16 distinct members
    # of the Lorentz sign family, a result no report printed
    from cqtcheck import cli
    calls = []
    check = inh.check_R_v_Lambda

    def counted(d, cand):
        calls.append(cand.label)
        return check(d, cand)

    monkeypatch.setattr(inh, "check_R_v_Lambda", counted)
    assert cli.main(["check", "builtin:poincare-classical"]) == 0
    capsys.readouterr()
    assert calls == ["k=-1", "k=+1"]


def test_real_coefficient_rule_at_star_samples(classical):
    # c * m0 is hermitian exactly for real c: 2 and 5 pass, 1+i and 3i fail
    for (re, im), real in (((2, 0), True), ((5, 0), True), ((1, 1), False),
                           ((0, 3), False)):
        c = Scalar.from_gaussian(Gaussian(re, im))
        report = inh.check_m_star(classical, classical.invariant * c,
                                  f"star:{c}")
        assert (report.status == "pass") == real, c


def test_classify_abstract_flip_free_invariant():
    rng = random.Random(1)
    sym = [[rng.randrange(-2, 3) for _ in range(4)] for _ in range(4)]
    m = Tensor((4, 4), (),
               [Scalar.from_int(sym[a][b] + sym[b][a]) for a in range(4)
                for b in range(4)])
    d = inh.abstract_datum(flip(4, 4), invariants=[m])
    reports, signs = inh.classify_poincare(d)
    assert cqt.all_pass(reports)
    assert signs == [0]


def test_hexagon_identity_blocks(classical):
    # the composite exchange matrix of the spinor reps reproduces N of the
    # vector rep after conjugation
    V, Vinv = inh.pauli_basis()
    P = 5
    n_w = classical.rep("w").N
    n_wb = classical.rep("wb").N
    composite = (pad_with_identity(n_w, (), (2,))
                 @ pad_with_identity(n_wb, (2,), ()))
    conj = (pad_with_identity(Vinv, (P,), ())
            @ composite @ pad_with_identity(V, (), (P,)))
    assert conj == classical.rep("Lam").N


def test_poincare_inverts_each_datum_matrix_once(monkeypatch, capsys):
    # V^(-1) is made once and each G^(-1) kept on the datum; 81 inverses when
    # check_R_v_Lambda and exchange_block took them on every call
    from cqtcheck import cli
    calls = []
    inverse = Tensor.inverse

    def counted(self):
        calls.append(1)
        return inverse(self)

    monkeypatch.setattr(Tensor, "inverse", counted)
    assert cli.main(["check", "builtin:poincare-classical"]) == 0
    capsys.readouterr()
    assert 0 < len(calls) <= 25


def test_poincare_inverts_the_lorentz_intertwiner_once(monkeypatch, capsys):
    # X^(-1) is kept on the Lorentz datum; 22 inverses, 5 of them of X, when
    # make_lorentz, family_blocks, poincare_from_lorentz and each sign's
    # candidate took their own
    from cqtcheck import cli
    built, calls = [], []
    make, inverse = lorentz.make_lorentz, Tensor.inverse

    def kept(*args):
        built.append(make(*args))
        return built[-1]

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(lorentz, "make_lorentz", kept)
    monkeypatch.setattr(Tensor, "inverse", counted)
    assert cli.main(["check", "builtin:poincare-classical"]) == 0
    capsys.readouterr()
    assert len(built) == 1
    assert sum(t is built[0].X for t in calls) == 1
    assert len(calls) <= 14


def test_poincare_inverts_the_pauli_matrix_once(monkeypatch, capsys):
    # V and V^(-1) are made once, on first use, for every spinor datum; 14
    # inverses when InhomDatum.V_inv inverted V a second time
    from cqtcheck import cli
    calls = []
    inverse = Tensor.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    inh.pauli_basis.cache_clear()
    monkeypatch.setattr(Tensor, "inverse", counted)
    assert cli.main(["check", "builtin:poincare-classical"]) == 0
    capsys.readouterr()
    V = inh.pauli_basis()[0]
    assert sum(t == V for t in calls) == 1
    assert len(calls) <= 13


def test_a_replaced_matrix_brings_its_own_inverse(classical):
    w = classical.reps["w"]
    assert w.G_inv @ w.G == Tensor.identity(w.G.dom)
    e = inh.RepEntry(w.G * Scalar.from_int(3), w.H)
    assert e.G_inv == w.G_inv * Scalar.from_gaussian(Gaussian(Fraction(1, 3)))
