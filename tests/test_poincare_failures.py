"""Failing braid, hexagon and intertwiner rows, pinned report by report.

No built-in datum fails these checks, and on the classical datum the mixed
hexagon over the spinor pairs vanishes even for a generic block, so the
built-in reports cannot catch a sign or a leg slip in them.  The rows below
were computed by the implementation that built each identity from explicit
identity paddings, before the checks became exchange laws of one block
table; every (check id, status, witness, note) must stay as it was.  The
spinor-k-1 rows were written later, by the implementation that still had
a fixed-coefficient path, before that path was removed.  The
classification rows on two failing classical datums were written by the
implementation that still returned a classification object and scanned the
whole Lorentz sign family, before that object and the scan were removed.
"""

import random

import pytest

from cqtcheck import cqt, lorentz
from cqtcheck import inhomogeneous as inh
from cqtcheck.scalars import G_I, G_ONE, ONE, Q, Scalar, ZERO
from cqtcheck.tensor import Tensor, flip, kron

i_s = Scalar((G_I,), (G_ONE,))


def twisted_R():
    d = Tensor.from_rows([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    return (flip(4, 4) @ kron(d, d.inverse())).with_legs((4, 4), (4, 4))


def _ints(rng, lo, hi, count):
    return [Scalar.from_int(rng.randrange(lo, hi)) for _ in range(count)]


def shift_datum():
    """Twisted R with a shift whose twist obstruction does not vanish."""
    ent = [ZERO] * 16
    ent[1 * 4 + 2] = i_s
    ent[2 * 4 + 1] = -i_s
    return inh.abstract_datum(twisted_R(), T=Tensor((4, 4), (), ent))


def extra_rep_datum():
    """Twisted R with an extra rep s whose G and H are random integers."""
    rng = random.Random(5)
    G = Tensor((4, 2), (2, 4), _ints(rng, -2, 3, 64))
    H = Tensor((4, 2), (2,), _ints(rng, -2, 3, 16))
    return inh.abstract_datum(twisted_R(), reps={"s": inh.RepEntry(G, H)})


def classical_datum():
    ld = lorentz.make_lorentz(lorentz.make_sl2(Q.subs(1)), flip(2, 2), ONE)
    return inh.poincare_from_lorentz(ld)


def spinor_datum():
    """The classical datum with a random H on w and a random X."""
    d = classical_datum()
    ld = d.lorentz
    rng = random.Random(9)
    H = Tensor((4, 2), (2,), _ints(rng, -1, 2, 16))
    X = Tensor((2, 2), (2, 2), _ints(rng, -2, 3, 16))
    w = d.reps["w"]
    return d._replace(reps={**d.reps, "w": inh.RepEntry(w.G, H)},
                      lorentz=ld._replace(X=X))


def scaled_x_datum():
    """The classical datum with its Lorentz intertwiner doubled."""
    d = classical_datum()
    ld = d.lorentz
    return d._replace(lorentz=ld._replace(X=ld.X * Scalar.from_int(2)))


def imaginary_m_datum():
    """The classical datum with i * m0 as its invariant column."""
    d = classical_datum()
    m = d.invariant * i_s
    return d._replace(invariant=m)


def _reports(case):
    if case == "shift":
        return inh.check_braid_hexagons(shift_datum())
    if case == "extra-rep":
        return inh.check_braid_hexagons(extra_rep_datum())
    d = spinor_datum()
    k = 1 if case == "spinor" else -1
    return inh.check_braid_hexagons(d, inh.poincare_candidate(d, k))


EXPECTED = {
    'shift': [
        ('braid:extended', 'fail',
         '(((0, 1, 2), (4, 4, 0)), Scalar(3/2*i))', 'at coefficient 0'),
        ('hexagon-one:Lam', 'fail',
         '(((1, 2, 0), (0, 4, 4)), Scalar(-6*i))', 'at coefficient 0'),
        ('hexagon-two:Lam:Lam', 'pass', 'None', ''),
        ('intertwiner-compat', 'skipped', 'None', 'abstract mode'),
    ],
    'extra-rep': [
        ('braid:extended', 'pass', 'None', ''),
        ('hexagon-one:Lam', 'pass', 'None', ''),
        ('hexagon-one:s', 'fail',
         '(((0, 0, 0), (0, 0, 1)), Scalar(9))', 'at coefficient 0'),
        ('hexagon-two:Lam:Lam', 'pass', 'None', ''),
        ('hexagon-two:Lam:s', 'fail',
         '(((0, 0, 0), (0, 0, 0)), Scalar(-942/2809))', ''),
        ('hexagon-two:s:Lam', 'fail',
         '(((0, 0, 0), (0, 0, 1)), Scalar(9))', ''),
        ('hexagon-two:s:s', 'skipped', 'None', 'no candidate blocks'),
        ('intertwiner-compat', 'skipped', 'None', 'abstract mode'),
    ],
    'spinor': [
        ('braid:extended', 'pass',
         'None', 'cubic interpolation over the invariant coefficient'),
        ('hexagon-one:Lam', 'pass', 'None', ''),
        ('hexagon-one:w', 'fail',
         '(((0, 1, 0), (0, 4, 4)), Scalar(-1))', 'at coefficient 0'),
        ('hexagon-one:wb', 'pass', 'None', ''),
        ('hexagon-two:Lam:Lam', 'pass', 'None', ''),
        ('hexagon-two:Lam:w', 'pass', 'None', ''),
        ('hexagon-two:Lam:wb', 'pass', 'None', ''),
        ('hexagon-two:w:Lam', 'pass', 'None', ''),
        ('hexagon-two:w:w', 'pass', 'None', ''),
        ('hexagon-two:w:wb', 'fail',
         '(((0, 0, 0), (0, 0, 4)), Scalar(-1))', ''),
        ('hexagon-two:wb:Lam', 'pass', 'None', ''),
        ('hexagon-two:wb:w', 'fail',
         '(((0, 0, 0), (0, 1, 4)), Scalar(-1/3))', ''),
        ('hexagon-two:wb:wb', 'pass', 'None', ''),
        ('intertwiner-compat:E', 'fail',
         '(((1, 0, 1), (4,)), Scalar(-2))', ''),
        ('intertwiner-compat:Et', 'pass', 'None', ''),
        ('intertwiner-compat:X', 'fail',
         '(((0, 0, 0), (0, 0, 4)), Scalar(1))', ''),
    ],
    'spinor-k-1': [
        ('braid:extended', 'pass',
         'None', 'cubic interpolation over the invariant coefficient'),
        ('hexagon-one:Lam', 'pass', 'None', ''),
        ('hexagon-one:w', 'fail',
         '(((0, 1, 0), (0, 4, 4)), Scalar(-1))', 'at coefficient 0'),
        ('hexagon-one:wb', 'pass', 'None', ''),
        ('hexagon-two:Lam:Lam', 'pass', 'None', ''),
        ('hexagon-two:Lam:w', 'pass', 'None', ''),
        ('hexagon-two:Lam:wb', 'pass', 'None', ''),
        ('hexagon-two:w:Lam', 'pass', 'None', ''),
        ('hexagon-two:w:w', 'pass', 'None', ''),
        ('hexagon-two:w:wb', 'fail',
         '(((0, 0, 0), (0, 0, 4)), Scalar(1))', ''),
        ('hexagon-two:wb:Lam', 'pass', 'None', ''),
        ('hexagon-two:wb:w', 'fail',
         '(((0, 0, 0), (0, 1, 4)), Scalar(1/3))', ''),
        ('hexagon-two:wb:wb', 'pass', 'None', ''),
        ('intertwiner-compat:E', 'fail',
         '(((1, 0, 1), (4,)), Scalar(-2))', ''),
        ('intertwiner-compat:Et', 'pass', 'None', ''),
        ('intertwiner-compat:X', 'fail',
         '(((0, 0, 0), (0, 0, 4)), Scalar(1))', ''),
    ],
}


@pytest.mark.parametrize("case", list(EXPECTED))
def test_failing_rows_are_pinned(case):
    got = [(r.check_id, r.status, repr(r.witness), r.note)
           for r in _reports(case)]
    assert got == EXPECTED[case]


EXPECTED_CLASSIFICATION = {
    'scaled-x': ([
        ('structure:antisym-shift', 'pass', 'None', ''),
        ('structure:antisym-twist', 'pass', 'None', ''),
        ('structure:invariant-fixed:0', 'pass', 'None', ''),
        ('structure:involution', 'pass', 'None', ''),
        ('structure:shift-skew', 'pass', 'None', ''),
        ('structure:twist-on-rep:Lam', 'skipped', 'None', 'no eta data'),
        ('structure:twist-on-rep:w', 'skipped', 'None', 'no eta data'),
        ('structure:twist-on-rep:wb', 'skipped', 'None', 'no eta data'),
        ('k=-1:vector-normalization:w:P', 'fail',
         '(((0, 0), (0, 0)), Scalar(1))', ''),
        ('k=-1:vector-normalization:P:w', 'fail',
         '(((0, 0), (0, 0)), Scalar(-1/2))', ''),
        ('k=-1:vector-normalization:wb:P', 'fail',
         '(((0, 0), (0, 0)), Scalar(-1/2))', ''),
        ('k=-1:vector-normalization:P:wb', 'fail',
         '(((0, 0), (0, 0)), Scalar(1))', ''),
        ('k=-1:braid:extended', 'pass',
         'None', 'cubic interpolation over the invariant coefficient'),
        ('k=-1:hexagon-one:Lam', 'pass', 'None', ''),
        ('k=-1:hexagon-one:w', 'pass', 'None', ''),
        ('k=-1:hexagon-one:wb', 'pass', 'None', ''),
        ('k=-1:hexagon-two:Lam:Lam', 'pass', 'None', ''),
        ('k=-1:hexagon-two:Lam:w', 'pass', 'None', ''),
        ('k=-1:hexagon-two:Lam:wb', 'pass', 'None', ''),
        ('k=-1:hexagon-two:w:Lam', 'pass', 'None', ''),
        ('k=-1:hexagon-two:w:w', 'pass', 'None', ''),
        ('k=-1:hexagon-two:w:wb', 'pass', 'None', ''),
        ('k=-1:hexagon-two:wb:Lam', 'pass', 'None', ''),
        ('k=-1:hexagon-two:wb:w', 'pass', 'None', ''),
        ('k=-1:hexagon-two:wb:wb', 'pass', 'None', ''),
        ('k=-1:intertwiner-compat:E', 'pass', 'None', ''),
        ('k=-1:intertwiner-compat:Et', 'pass', 'None', ''),
        ('k=-1:intertwiner-compat:X', 'pass', 'None', ''),
        ('k=-1:invariance:fixed-by-R', 'pass', 'None', ''),
        ('k=-1:invariance:counit:w', 'pass', 'None', ''),
        ('k=-1:invariance:counit:wb', 'pass', 'None', ''),
        ('k=+1:vector-normalization:w:P', 'fail',
         '(((0, 0), (0, 0)), Scalar(1))', ''),
        ('k=+1:vector-normalization:P:w', 'fail',
         '(((0, 0), (0, 0)), Scalar(-1/2))', ''),
        ('k=+1:vector-normalization:wb:P', 'fail',
         '(((0, 0), (0, 0)), Scalar(-1/2))', ''),
        ('k=+1:vector-normalization:P:wb', 'fail',
         '(((0, 0), (0, 0)), Scalar(1))', ''),
        ('k=+1:braid:extended', 'pass',
         'None', 'cubic interpolation over the invariant coefficient'),
        ('k=+1:hexagon-one:Lam', 'pass', 'None', ''),
        ('k=+1:hexagon-one:w', 'pass', 'None', ''),
        ('k=+1:hexagon-one:wb', 'pass', 'None', ''),
        ('k=+1:hexagon-two:Lam:Lam', 'pass', 'None', ''),
        ('k=+1:hexagon-two:Lam:w', 'pass', 'None', ''),
        ('k=+1:hexagon-two:Lam:wb', 'pass', 'None', ''),
        ('k=+1:hexagon-two:w:Lam', 'pass', 'None', ''),
        ('k=+1:hexagon-two:w:w', 'pass', 'None', ''),
        ('k=+1:hexagon-two:w:wb', 'pass', 'None', ''),
        ('k=+1:hexagon-two:wb:Lam', 'pass', 'None', ''),
        ('k=+1:hexagon-two:wb:w', 'pass', 'None', ''),
        ('k=+1:hexagon-two:wb:wb', 'pass', 'None', ''),
        ('k=+1:intertwiner-compat:E', 'pass', 'None', ''),
        ('k=+1:intertwiner-compat:Et', 'pass', 'None', ''),
        ('k=+1:intertwiner-compat:X', 'pass', 'None', ''),
        ('k=+1:invariance:fixed-by-R', 'pass', 'None', ''),
        ('k=+1:invariance:counit:w', 'pass', 'None', ''),
        ('k=+1:invariance:counit:wb', 'pass', 'None', ''),
        ('star:base', 'pass', 'None', ''),
        ('star:m-hermitian', 'pass', 'None', ''),
        ('star:sample-real:2', 'pass', 'None', 'hermitian as required'),
        ('star:sample-nonreal:(1+i)', 'pass',
         'None', 'correctly rejected: coefficient not real'),
        ('ct:base:k=-1', 'pass', 'None', ''),
        ('ct:extended-at-zero:k=-1', 'pass', 'None', ''),
        ('ct:coefficient-obstruction:k=-1', 'pass',
         'None', 'nonzero linear term forces the coefficient to vanish'),
        ('ct:base:k=+1', 'pass', 'None', ''),
        ('ct:extended-at-zero:k=+1', 'pass', 'None', ''),
        ('ct:coefficient-obstruction:k=+1', 'pass',
         'None', 'nonzero linear term forces the coefficient to vanish'),
    ], []),
    'imaginary-m': ([
        ('structure:antisym-shift', 'pass', 'None', ''),
        ('structure:antisym-twist', 'pass', 'None', ''),
        ('structure:invariant-fixed:0', 'pass', 'None', ''),
        ('structure:involution', 'pass', 'None', ''),
        ('structure:shift-skew', 'pass', 'None', ''),
        ('structure:twist-on-rep:Lam', 'skipped', 'None', 'no eta data'),
        ('structure:twist-on-rep:w', 'skipped', 'None', 'no eta data'),
        ('structure:twist-on-rep:wb', 'skipped', 'None', 'no eta data'),
        ('k=-1:vector-normalization:w:P', 'pass', 'None', ''),
        ('k=-1:vector-normalization:P:w', 'pass', 'None', ''),
        ('k=-1:vector-normalization:wb:P', 'pass', 'None', ''),
        ('k=-1:vector-normalization:P:wb', 'pass', 'None', ''),
        ('k=-1:braid:extended', 'pass',
         'None', 'cubic interpolation over the invariant coefficient'),
        ('k=-1:hexagon-one:Lam', 'pass', 'None', ''),
        ('k=-1:hexagon-one:w', 'pass', 'None', ''),
        ('k=-1:hexagon-one:wb', 'pass', 'None', ''),
        ('k=-1:hexagon-two:Lam:Lam', 'pass', 'None', ''),
        ('k=-1:hexagon-two:Lam:w', 'pass', 'None', ''),
        ('k=-1:hexagon-two:Lam:wb', 'pass', 'None', ''),
        ('k=-1:hexagon-two:w:Lam', 'pass', 'None', ''),
        ('k=-1:hexagon-two:w:w', 'pass', 'None', ''),
        ('k=-1:hexagon-two:w:wb', 'pass', 'None', ''),
        ('k=-1:hexagon-two:wb:Lam', 'pass', 'None', ''),
        ('k=-1:hexagon-two:wb:w', 'pass', 'None', ''),
        ('k=-1:hexagon-two:wb:wb', 'pass', 'None', ''),
        ('k=-1:intertwiner-compat:E', 'pass', 'None', ''),
        ('k=-1:intertwiner-compat:Et', 'pass', 'None', ''),
        ('k=-1:intertwiner-compat:X', 'pass', 'None', ''),
        ('k=-1:invariance:fixed-by-R', 'pass', 'None', ''),
        ('k=-1:invariance:counit:w', 'pass', 'None', ''),
        ('k=-1:invariance:counit:wb', 'pass', 'None', ''),
        ('k=+1:vector-normalization:w:P', 'pass', 'None', ''),
        ('k=+1:vector-normalization:P:w', 'pass', 'None', ''),
        ('k=+1:vector-normalization:wb:P', 'pass', 'None', ''),
        ('k=+1:vector-normalization:P:wb', 'pass', 'None', ''),
        ('k=+1:braid:extended', 'pass',
         'None', 'cubic interpolation over the invariant coefficient'),
        ('k=+1:hexagon-one:Lam', 'pass', 'None', ''),
        ('k=+1:hexagon-one:w', 'pass', 'None', ''),
        ('k=+1:hexagon-one:wb', 'pass', 'None', ''),
        ('k=+1:hexagon-two:Lam:Lam', 'pass', 'None', ''),
        ('k=+1:hexagon-two:Lam:w', 'pass', 'None', ''),
        ('k=+1:hexagon-two:Lam:wb', 'pass', 'None', ''),
        ('k=+1:hexagon-two:w:Lam', 'pass', 'None', ''),
        ('k=+1:hexagon-two:w:w', 'pass', 'None', ''),
        ('k=+1:hexagon-two:w:wb', 'pass', 'None', ''),
        ('k=+1:hexagon-two:wb:Lam', 'pass', 'None', ''),
        ('k=+1:hexagon-two:wb:w', 'pass', 'None', ''),
        ('k=+1:hexagon-two:wb:wb', 'pass', 'None', ''),
        ('k=+1:intertwiner-compat:E', 'pass', 'None', ''),
        ('k=+1:intertwiner-compat:Et', 'pass', 'None', ''),
        ('k=+1:intertwiner-compat:X', 'pass', 'None', ''),
        ('k=+1:invariance:fixed-by-R', 'pass', 'None', ''),
        ('k=+1:invariance:counit:w', 'pass', 'None', ''),
        ('k=+1:invariance:counit:wb', 'pass', 'None', ''),
        ('star:base', 'pass', 'None', ''),
        ('star:m-hermitian', 'fail', '(((0, 0), ()), Scalar(-i))', ''),
        ('star:sample-real:2', 'fail',
         'None', 'sample disagrees with the real-coefficient rule'),
        ('star:sample-nonreal:(1+i)', 'pass',
         'None', 'correctly rejected: coefficient not real'),
        ('ct:base:k=-1', 'pass', 'None', ''),
        ('ct:extended-at-zero:k=-1', 'pass', 'None', ''),
        ('ct:coefficient-obstruction:k=-1', 'pass',
         'None', 'nonzero linear term forces the coefficient to vanish'),
        ('ct:base:k=+1', 'pass', 'None', ''),
        ('ct:extended-at-zero:k=+1', 'pass', 'None', ''),
        ('ct:coefficient-obstruction:k=+1', 'pass',
         'None', 'nonzero linear term forces the coefficient to vanish'),
    ], [-1, 1]),
}


CLASSIFIED = {"scaled-x": scaled_x_datum, "imaginary-m": imaginary_m_datum}


@pytest.mark.parametrize("case", list(EXPECTED_CLASSIFICATION))
def test_classification_rows_are_pinned(case):
    d = CLASSIFIED[case]()
    reports, signs = inh.classify_poincare(d, inh.check_structure(d),
                                           cqt.LawTable())
    got = [(r.check_id, r.status, repr(r.witness), r.note) for r in reports]
    assert (got, signs) == EXPECTED_CLASSIFICATION[case]
