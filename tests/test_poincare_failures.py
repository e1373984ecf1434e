"""Failing braid, hexagon and intertwiner rows, pinned report by report.

No built-in datum fails these checks, and on the classical datum the mixed
hexagon over the spinor pairs vanishes even for a generic block, so the
built-in reports cannot catch a sign or a leg slip in them.  The rows below
were computed by the implementation that built each identity from explicit
identity paddings, before the checks became exchange laws of one block
table; every (check id, status, witness, note) must stay as it was.  The
spinor-k-1 rows were written later, by the implementation that still had
a fixed-coefficient path, before that path was removed.
"""

import dataclasses
import random

import pytest

from cqtcheck import inhomogeneous as inh
from cqtcheck import lorentz
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


def spinor_datum():
    """The classical datum with a random H on w and a random X."""
    base = lorentz.make_sl2(Q.subs(1), 1)
    ld = lorentz.make_lorentz(base, flip(2, 2), ONE)
    d = inh.poincare_from_lorentz(ld)
    rng = random.Random(9)
    H = Tensor((4, 2), (2,), _ints(rng, -1, 2, 16))
    X = Tensor((2, 2), (2, 2), _ints(rng, -2, 3, 16))
    w = d.reps["w"]
    return dataclasses.replace(d, reps={**d.reps, "w": inh.RepEntry(w.G, H)},
                               lorentz=dataclasses.replace(ld, X=X))


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
