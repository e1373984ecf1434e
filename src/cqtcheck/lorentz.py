"""Built-in two-generator data: SL_q(2) and quantum Lorentz groups.

The SL_q(2) datum carries an invariant column E in Mor(1, w (x) w) and the
row E' in Mor(w (x) w, 1) fixed by requiring E and E' to be mutually inverse
2x2 matrices.  The Lorentz datum adds the conjugate generator, the exchange
matrix X in Mor(w (x) wb, wb (x) w), and the constant beta relating X to its
swapped conjugate.

Candidate exchange blocks come in the one-parameter family

    L_i = r_i (1 + r_i^(-2) E E'),   r_{1,2} = +-t,  r_{3,4} = +-1/t,

which is closed under inverses (L_3 = L_1^(-1), L_4 = L_2^(-1)); the blocks
on mixed pairs are sign multiples of X and X^(-1).  The 64 members pick
one of 4 x 4 x 2 x 2 blocks per pair, built once each (family_blocks).
Classification runs the family through the core engine, which decides its
1,280 laws as 80 distinct ones (see the cqt module), and tallies which
members are also star-compatible or cotriangular, deduplicating coincident
members first (at q = +-1 the four L_i collapse pairwise).

Sign conditions on the deformation parameter (positivity of q for the
compact real forms) are not field-theoretic; the real-form checks evaluate
at caller-chosen rational sample points, exactly, through the square-root
reduction in the scalars module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import cqt
from .errors import AxiomViolation, ForbiddenParameter, NotInvertible
from .presentation import (CandidateR, GeneratorSpec, Presentation, Relation,
                           Saturation)
from .scalars import ConjMode, Gaussian, Scalar
from .tensor import Tensor, flip, pad_with_identity, tauconj

W, WB = "w", "wb"


@dataclass
class SL2Datum:
    q: Scalar
    qhalf: Scalar      # the square root of q used by the candidate scales
    E: Tensor          # column, legs (2,2) x ()
    Eprime: Tensor     # row, legs () x (2,2)
    presentation: Presentation

    def ee(self) -> Tensor:
        return self.E @ self.Eprime


def make_sl2(q: Scalar, case: int = 1) -> SL2Datum:
    if case == 1:
        if q.is_constant() and q.constant_value() in (
                Gaussian(0), Gaussian(0, 1), Gaussian(0, -1)):
            raise ForbiddenParameter(f"case 1 needs q outside {{0, i, -i}}, got {q}")
        emat = Tensor.from_rows([[0, 1], [-q, 0]])
    elif case == 2:
        if not q.is_one():
            raise ForbiddenParameter(f"case 2 needs q = 1, got {q}")
        emat = Tensor.from_rows([[1, 1], [-1, 0]])
    else:
        raise ForbiddenParameter(f"case must be 1 or 2, not {case}")
    qhalf = q.sqrt()
    if qhalf is None:
        raise ForbiddenParameter(f"q = {q} has no square root in Q(i)(t)")
    E = emat.slice_legs((0, 1), ())
    Eprime = emat.inverse().slice_legs((), (0, 1))
    p = Presentation(
        [GeneratorSpec(W, 2, W)],
        [Relation("E", E, (), (W, W)), Relation("Ep", Eprime, (W, W), ())],
    )
    return SL2Datum(q, qhalf, E, Eprime, p)


def candidate_L(d: SL2Datum, i: int) -> Tensor:
    """The i-th exchange block on the (w, w) pair, i in 1..4."""
    r = {1: d.qhalf, 2: -d.qhalf,
         3: d.qhalf.inverse(), 4: -d.qhalf.inverse()}[i]
    return (Tensor.identity((2, 2)) + d.ee() * (r ** -2)) * r


def sl2_family(d: SL2Datum):
    return [CandidateR(d.presentation, {(W, W): candidate_L(d, i)},
                       label=f"L{i}") for i in (1, 2, 3, 4)]


def classify_sl2(d: SL2Datum, witnesses: Saturation = None,
                 table: cqt.LawTable = None) -> cqt.ClassifyResult:
    return cqt.classify(sl2_family(d), witnesses=witnesses, table=table)


def validate_sl2(d: SL2Datum):
    """Reports for the pairing and duality axioms of E and E'."""
    ee = (d.Eprime @ d.E).entries[0]
    reports = [cqt.CheckReport("axiom:pairing", "pass" if ee.num else "fail",
                               None, f"E'E = {ee}")]
    lhs = (pad_with_identity(d.Eprime, (), (2,))
           @ pad_with_identity(d.E, (2,), ()))
    reports.append(cqt.defect_report("axiom:duality-left",
                                     lhs - Tensor.identity((2,))))
    rhs = (pad_with_identity(d.Eprime, (2,), ())
           @ pad_with_identity(d.E, (), (2,)))
    reports.append(cqt.defect_report("axiom:duality-right",
                                     rhs - Tensor.identity((2,))))
    return reports


@dataclass(frozen=True)
class LorentzDatum:
    base: SL2Datum
    X: Tensor
    beta: Scalar
    mode: ConjMode
    Etilde: Tensor
    Eptilde: Tensor
    presentation: Presentation

    @cached_property
    def X_inv(self) -> Tensor:
        return self.X.inverse()

    @property
    def q(self) -> Scalar:
        return self.base.q


def make_lorentz(base: SL2Datum, X: Tensor, beta: Scalar,
                 mode: ConjMode = ConjMode.REAL) -> LorentzDatum:
    """Validate the Lorentz axioms and assemble the two-generator datum."""
    E, Ep = base.E, base.Eprime
    ee_scalar = (Ep @ E).entries[0]
    if not ee_scalar.num:
        raise AxiomViolation("pairing", witness=ee_scalar)
    X = X.with_legs((2, 2), (2, 2))
    Et = (flip(2, 2) @ E.conjugate(mode)).with_legs((2, 2), ())
    Ept = (Ep.conjugate(mode) @ flip(2, 2)).with_legs((), (2, 2))
    p = Presentation(
        [GeneratorSpec(W, 2, WB), GeneratorSpec(WB, 2, W)],
        [Relation("E", E, (), (W, W)),
         Relation("Et", Et, (), (WB, WB)),
         Relation("Ep", Ep, (W, W), ()),
         Relation("Ept", Ept, (WB, WB), ()),
         Relation("X", X, (W, WB), (WB, W))],
    )
    d = LorentzDatum(base, X, beta, mode, Et, Ept, p)
    try:
        d.X_inv  # the invertibility axiom; the inverse stays on the datum
    except NotInvertible as exc:
        raise AxiomViolation("invertibility", witness=exc.witness) from None
    lhs = (pad_with_identity(X, (), (2,)) @ pad_with_identity(X, (2,), ())
           @ pad_with_identity(E, (), (2,)))
    rhs = pad_with_identity(E, (2,), ())
    defect = lhs - rhs
    if not defect.is_zero():
        raise AxiomViolation("exchange-duality", witness=defect.first_nonzero())
    if not (beta ** 4).is_one():
        raise AxiomViolation("beta-quartic", witness=beta)
    defect = tauconj(X, mode) - X * beta.inverse()
    if not defect.is_zero():
        raise AxiomViolation("conjugation", witness=defect.first_nonzero())
    return d


def family_blocks(d: LorentzDatum):
    """The distinct blocks of the family, each built once: L_1..L_4, the
    swapped conjugates of their inverses, and +-X, +-X^(-1)."""
    L = {i: candidate_L(d.base, i) for i in (1, 2, 3, 4)}
    Lt = {j: tauconj(L[j].inverse().with_legs((2, 2), (2, 2)), d.mode)
          for j in L}
    return (L, Lt, {e: d.X * e for e in (1, -1)},
            {e: d.X_inv * e for e in (1, -1)})


def candidate_blocks(d: LorentzDatum, i: int, j: int, eps_x: int, eps_xp: int,
                     blocks=None) -> CandidateR:
    """Blocks (L_i, swapped-conjugate of L_j^(-1), eps_x X, eps_xp X^(-1)),
    taken from `blocks` (family_blocks(d), built when omitted)."""
    L, Lt, X, Xi = blocks or family_blocks(d)
    return CandidateR(d.presentation, {
        (W, W): L[i], (WB, WB): Lt[j], (W, WB): X[eps_x], (WB, W): Xi[eps_xp]},
        label=f"L{i}:Lt{j}:x{eps_x:+d}:xi{eps_xp:+d}")


def lorentz_family(d: LorentzDatum):
    blocks = family_blocks(d)
    return [candidate_blocks(d, i, j, ex, exp, blocks)
            for i in (1, 2, 3, 4) for j in (1, 2, 3, 4)
            for ex in (1, -1) for exp in (1, -1)]


def reference_counts(d: LorentzDatum) -> dict:
    """Published tallies for admissible data, used to flag divergence."""
    beta_one = d.beta.is_one()
    if d.q.is_one():
        return {"cqt": 16, "cqt_star": 8 if beta_one else 0,
                "ct": 8, "ct_star": 4 if beta_one else 0}
    if d.q == Scalar.from_int(-1):
        return {"cqt": 16, "cqt_star": 8 if beta_one else 0,
                "ct": 0, "ct_star": 0}
    return {"cqt": 64, "cqt_star": 16 if beta_one else 0,
            "ct": 0, "ct_star": 0}


def classify_lorentz(d: LorentzDatum, witnesses: Saturation = None,
                     table: cqt.LawTable = None):
    """Tallies over the 64 sign/scale candidates (`table` as in cqt).

    Returns the classification result together with a report comparing the
    computed counts against the reference tallies for admissible data; a
    divergence is flagged in that report, never suppressed.
    """
    result = cqt.classify(lorentz_family(d), mode=d.mode,
                          witnesses=witnesses, table=table)
    ref = reference_counts(d)
    got = result.counts()
    if got == ref:
        flag = cqt.CheckReport("reference-counts", "pass", None,
                               f"computed {got}")
    else:
        flag = cqt.CheckReport(
            "reference-counts", "fail", None,
            f"computed {got}, reference for admissible data {ref}; "
            "divergence may reflect an inadmissible datum")
    return result, flag


# ---------------------------------------------------------------------------
# Real forms.  The compact-type forms need hermiticity of L_1 at a real q
# sample; the split form compares L_1 with its swapped conjugate in the
# unimodular mode, symbolically or at a phase sample.
# ---------------------------------------------------------------------------

def validate_lorentz(d: LorentzDatum):
    """The axioms of the SL2 base, exchange duality and conjugation of X."""
    reports = validate_sl2(d.base)
    lhs = (pad_with_identity(d.X, (), (2,)) @ pad_with_identity(d.X, (2,), ())
           @ pad_with_identity(d.base.E, (), (2,)))
    reports.append(cqt.defect_report(
        "axiom:exchange-duality", lhs - pad_with_identity(d.base.E, (2,), ())))
    reports.append(cqt.defect_report(
        "axiom:conjugation", tauconj(d.X, d.mode) - d.X * d.beta.inverse()))
    return reports


SUQ2, SUQ11, SLQ2R = "suq2", "suq11", "slq2r"


def _conj_value_real_q(s: Scalar, positive: bool) -> Scalar:
    """The function whose value at t0 = sqrt(q0) is conj(s(t0)).

    For q0 > 0 the point t0 is real, so only coefficients conjugate; for
    q0 < 0 it is purely imaginary and t flips sign as well.
    """
    out = s.conjugate(ConjMode.REAL)
    if positive:
        return out
    num, den = out.polys()
    num = tuple(c if k % 2 == 0 else -c for k, c in enumerate(num))
    den = tuple(c if k % 2 == 0 else -c for k, c in enumerate(den))
    return Scalar.normalize(num, den)


def real_form_check(d: SL2Datum, form: str, sample=None) -> cqt.CheckReport:
    """Star-compatibility of the L_1 candidate for one real form.

    For the compact-type forms `sample` is a nonzero rational value of q
    and the check is hermiticity of L_1 at t = sqrt(sample).  For the split
    form the check is invariance of L_1 under the swapped unimodular
    conjugate, symbolic when sample is None, else at q = sample on the unit
    circle.
    """
    L1 = candidate_L(d, 1)
    if form in (SUQ2, SUQ11):
        if sample is None:
            raise ForbiddenParameter("compact forms need a rational q sample")
        q0 = Fraction(sample)
        if q0 == 0:
            raise ForbiddenParameter("q = 0 is excluded")
        cid = f"realform:{form}:q={q0}"
        for a in range(4):
            for b in range(4):
                herm = _conj_value_real_q(L1[b, a], q0 > 0)
                defect = herm - L1[a, b]
                if not defect.vanishes_at_sqrt(Gaussian(q0)):
                    return cqt.CheckReport(cid, "fail",
                                           (((a,), (b,)), defect), "not hermitian")
        return cqt.CheckReport(cid, "pass", None, "hermitian")
    if form == SLQ2R:
        defect = tauconj(L1.with_legs((2, 2), (2, 2)), ConjMode.UNIMODULAR) - L1
        if sample is None:
            cid = f"realform:{form}:symbolic"
            return cqt.defect_report(cid, defect)
        q0 = Gaussian(sample) if not isinstance(sample, Gaussian) else sample
        if q0 * q0.conj() != Gaussian(1):
            raise ForbiddenParameter(f"|q| = 1 required, got {q0}")
        cid = f"realform:{form}:q={q0}"
        for (i, j), s in sorted(defect.with_legs((4,), (4,)).items()):
            if not s.vanishes_at_sqrt(q0):
                return cqt.CheckReport(cid, "fail", (((i,), (j,)), s),
                                       "swapped conjugate differs")
        return cqt.CheckReport(cid, "pass")
    raise ForbiddenParameter(f"unknown real form {form!r}")
