"""Acceptance suite: one test per published claim, exact arithmetic only.

Each test prints a single PASS line with its runtime (visible with -s) and
enforces the runtime budget; every comparison is a symbolic-zero or exact
integer check, with no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

import pytest

from cqtcheck import cqt, lorentz, uea
from cqtcheck import inhomogeneous as inh
from cqtcheck.catalog import (make_lorentz_flip, make_poincare_classical,
                              make_slq2)
from cqtcheck.errors import AxiomViolation, StructureViolation
from cqtcheck.presentation import CandidateR, Saturation, saturate
from cqtcheck.scalars import ConjMode, Gaussian, ONE, Q, Scalar, ZERO
from cqtcheck.tensor import Tensor, flip, kron, pad_with_identity


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.time() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f} s,"
              f" budget {self.seconds} s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds} s budget")
        return False


def sl2_counts(d):
    """The tallies of the SL_q(2) family, in a run of their own."""
    return lorentz.classify_sl2(d, Saturation(d.presentation, 3),
                                cqt.LawTable()).counts()


def condition2(c, witnesses=None):
    """check_condition2 with a table of its own, and a saturation when
    none is given."""
    return cqt.check_condition2(
        c, witnesses or Saturation(c.presentation, 3), cqt.LawTable())


def test_criterion_1_sl2_classification_counts():
    with _Budget("1 two-dimensional classification counts", 5):
        assert sl2_counts(make_slq2(None))["cqt"] == 4
        assert sl2_counts(make_slq2(1))["cqt"] == 2
        assert sl2_counts(make_slq2(Gaussian(0, 1)))["cqt"] == 2


def test_criterion_2_sl2_cotriangularity():
    with _Budget("2 cotriangular subcounts", 5):
        assert sl2_counts(make_slq2(1))["ct"] == 2
        assert sl2_counts(make_slq2(None))["ct"] == 0
        assert sl2_counts(make_slq2(Gaussian(0, 1)))["ct"] == 0


def test_criterion_3_real_forms():
    with _Budget("3 real-form sample checks", 5):
        d = make_slq2(None)
        for sample in (Fraction(1, 2), 1, 4):
            assert lorentz.real_form_check(d, lorentz.SUQ2, sample).status == "pass"
        for sample in (-1, -4):
            assert lorentz.real_form_check(d, lorentz.SUQ2, sample).status == "fail"
        assert lorentz.real_form_check(d, lorentz.SLQ2R, 1).status == "pass"
        assert lorentz.real_form_check(
            d, lorentz.SLQ2R, Gaussian(0, 1)).status == "fail"
        assert lorentz.real_form_check(
            d, lorentz.SLQ2R, Gaussian(0, -1)).status == "fail"


def test_criterion_4_lorentz_enumeration():
    with _Budget("4 sixty-four candidate enumeration", 60):
        d = make_lorentz_flip(None)
        generic, flag = lorentz.classify_lorentz(
            d, Saturation(d.presentation, 3), cqt.LawTable())
        assert generic.counts()["cqt"] == 64
        assert flag.status == "pass"
        d = make_lorentz_flip(1)
        at_one, flag1 = lorentz.classify_lorentz(
            d, Saturation(d.presentation, 3), cqt.LawTable())
        assert at_one.counts() == {"cqt": 16, "cqt_star": 8, "ct": 8,
                                   "ct_star": 4}
        assert flag1.status == "pass"
        # any divergence from the reference tallies is flagged, not hidden
        assert "reference" in flag1.check_id


def test_criterion_5_poincare_existence():
    with _Budget("5 translation-extended existence", 120):
        d = make_poincare_classical(None)
        structure = inh.check_structure(d)
        assert cqt.all_pass(structure)
        rp = inh.build_RP(d)
        assert rp @ rp == Tensor.identity((5, 5))
        reports, signs = inh.classify_poincare(d, structure, cqt.LawTable())
        assert cqt.all_pass(reports)
        assert signs == [-1, 1]
        # the two sign candidates are the only members of the Lorentz
        # family that reproduce the vector representation
        family = cqt.distinct(lorentz.lorentz_family(d.lorentz),
                              cqt.LawTable())
        survivors = [c.label for c in family
                     if cqt.all_pass(inh.check_R_v_Lambda(d, c))]
        assert survivors == ["L1:Lt1:x+1:xi+1", "L2:Lt2:x-1:xi-1"]


def test_criterion_6_star_and_ct_classification():
    with _Budget("6 star and cotriangular coefficient rules", 10):
        d = make_poincare_classical(None)
        m0 = d.invariant
        assert inh.check_m_star(d, m0 * Scalar.from_int(2), "c2").status == "pass"
        nonreal = m0 * Scalar.from_gaussian(Gaussian(1, 1))
        assert inh.check_m_star(d, nonreal, "c1i").status == "fail"
        # cotriangularity of the extended structure forces the coefficient
        # to vanish: the linear obstruction is nonzero and the base passes
        rp = inh.build_RP(d)
        mp = inh.build_mP(d, m0)
        assert not (rp @ mp + mp @ rp).is_zero()
        assert (mp @ mp).is_zero()
        rq0 = inh.build_RP(d)
        assert rq0 @ rq0 == Tensor.identity((5, 5))
        for k in (1, -1):
            cand = inh.poincare_candidate(d, k)
            assert cqt.all_pass(cqt.check_ct(cand, cqt.LawTable()))


def test_criterion_7_negative_controls():
    with _Budget("7 negative controls", 30):
        d = make_slq2(None)
        scaled = CandidateR(d.presentation,
                            {("w", "w"): lorentz.candidate_L(d, 1) * 2})
        reports = condition2(scaled)
        assert any(r.status == "fail" and r.check_id.startswith("exchange")
                   for r in reports)
        from cqtcheck.scalars import I
        with pytest.raises(AxiomViolation) as err:
            lorentz.make_lorentz(d, flip(2, 2), I)
        assert err.value.axiom == "conjugation"
        # a datum with a nonzero antisymmetrized shift obstruction admits no
        # extended structure
        from cqtcheck.scalars import G_I, G_ONE
        i_s = Scalar((G_I,), (G_ONE,))
        zent = [ZERO] * 64
        zent[(0 * 4 + 1) * 4 + 2] = ONE
        Z = Tensor((4, 4), (4,), zent)
        tent = [ZERO] * 16
        tent[2 * 4 + 3] = i_s
        tent[3 * 4 + 2] = -i_s
        T = Tensor((4, 4), (), tent)
        bad = inh.abstract_datum(flip(4, 4), Z=Z, T=T)
        a3 = inh.antisymmetrizer3(bad)
        zt = (pad_with_identity(Z, (), (4,))
              - pad_with_identity(Z, (4,), ())) @ T
        assert not (a3 @ zt).is_zero()
        with pytest.raises(StructureViolation):
            inh.classify_poincare(bad, inh.check_structure(bad),
                                  cqt.LawTable())


def test_criterion_8_enveloping_functionals():
    with _Budget("8 enveloping functional relations", 60):
        d = make_poincare_classical(None)
        fns = uea.Functionals(d)
        rll = uea.check_rll(d, 2, fns)
        assert cqt.all_pass(rll)
        by_id = {r.check_id: r for r in rll}
        for n in (1, 2):
            assert by_id[f"rll:paths-agree:len{n}"].status == "pass"
            assert by_id[f"rll:implied-LM:len{n}"].status == "pass"
        assert cqt.all_pass(uea.check_xkx(d, 2, d.invariant, fns))
        assert cqt.all_pass(uea.check_pairings(d, d.invariant, d.invariant,
                                               2, fns))
        assert cqt.all_pass(uea.check_ideal_killed(d, fns))


def test_criterion_9_property_suites():
    with _Budget("9 property suites", 60):
        rng = random.Random(17)
        # field axioms on random elements
        vals = []
        for _ in range(12):
            coeffs = [Gaussian(rng.randrange(-3, 4), rng.randrange(-2, 3))
                      for _ in range(3)]
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            vals.append(Scalar.normalize(tuple(coeffs) or (Gaussian(1),),
                                         (Gaussian(1), Gaussian(1))))
        for a, b, c in zip(vals[::3], vals[1::3], vals[2::3]):
            assert (a + b) * c == a * c + b * c
            if not a.is_zero():
                assert a * a.inverse() == ONE
        # kron mixed product and flip naturality
        mats = [Tensor.from_rows([[rng.randrange(-2, 3) for _ in range(2)]
                                  for _ in range(2)]) for _ in range(4)]
        assert kron(mats[0], mats[1]) @ kron(mats[2], mats[3]) == \
            kron(mats[0] @ mats[2], mats[1] @ mats[3])
        assert flip(2, 2) @ kron(mats[0], mats[1]) == \
            kron(mats[1], mats[0]) @ flip(2, 2)
        # inverse and nullspace exactness
        m = Tensor.from_rows([[1, 2], [1, 3]])
        assert m.inverse() @ m == Tensor.identity((2,))
        row = Tensor.from_rows([[1, 2, 3]])
        assert len(row.rref()[1]) + len(row.nullspace()) == 3
        for b in row.nullspace():
            assert (row @ b).is_zero()
        # trivial candidate family on the commutative datum passes everything
        d1 = make_slq2(1)
        trivial = CandidateR(d1.presentation, {("w", "w"): flip(2, 2)})
        assert cqt.all_pass(condition2(trivial))
        assert cqt.all_pass(cqt.check_ct(trivial, cqt.LawTable()))
        # the two code paths agree on every built-in family
        for datum in (make_slq2(None), d1):
            sat = saturate(datum.presentation, 3, 2)
            for cand in lorentz.sl2_family(datum):
                cond2 = cqt.all_pass(
                    r for r in condition2(cand, sat)
                    if r.check_id.startswith("exchange"))
                preserved = all(
                    cqt.all_pass(cqt.check_relations_preserved(
                        cqt.eval_hom(cand, beta), datum.presentation))
                    for beta in datum.presentation.generators)
                assert cond2 == preserved
        lf = make_lorentz_flip(1)
        satl = saturate(lf.presentation, 3, 2)
        blocks = lorentz.family_blocks(lf)
        for cand in (lorentz.candidate_blocks(lf, 1, 1, 1, 1, blocks),
                     lorentz.candidate_blocks(lf, 1, 2, -1, 1, blocks)):
            cond2 = cqt.all_pass(
                r for r in condition2(cand, satl)
                if r.check_id.startswith("exchange"))
            preserved = all(
                cqt.all_pass(cqt.check_relations_preserved(
                    cqt.eval_hom(cand, beta), lf.presentation))
                for beta in lf.presentation.generators)
            assert cond2 == preserved
