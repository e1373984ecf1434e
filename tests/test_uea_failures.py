"""Failing functional rows, pinned report by report.

Every built-in datum passes the enveloping-algebra checks, so the built-in
reports cannot catch a slip in how a failure is found, labelled or
witnessed.  The rows below come from the perturbed datums of test_uea.py
(the incoherent translation twist and a non-invariant pairing), run
through check_rll, check_xkx, check_pairings and check_ideal_killed.  They
were computed by the implementation whose convolution table cached word
prefixes on its own, before it became a FunctionalHom; every (check id,
status, witness, note) must stay as it was.
"""

import pytest

from cqtcheck import uea
from cqtcheck import inhomogeneous as inh
from cqtcheck.scalars import ONE, Scalar, ZERO
from cqtcheck.tensor import Tensor, flip, kron


def twisted_R():
    d = Tensor.from_rows([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    return (flip(4, 4) @ kron(d, d.inverse())).with_legs((4, 4), (4, 4))


def column(entries):
    ent = [ZERO] * 16
    for idx, v in entries.items():
        ent[idx] = Scalar.from_int(v)
    return Tensor((4, 4), (), ent)


K_BAD = column({0 * 4 + 1: 1})                   # not fixed by R
K_FIXED = column({0 * 4 + 1: 1, 1 * 4 + 0: 2})   # fixed by R, not invariant


def incoherent_twist(invariants=()):
    """The twisted involution with a Z entry its letters cannot carry."""
    zent = [ZERO] * 64
    zent[(0 * 4 + 1) * 4 + 2] = ONE
    return inh.abstract_datum(twisted_R(), Z=Tensor((4, 4), (4,), zent),
                              invariants=invariants)


DATUMS = {
    "twist": lambda: incoherent_twist(),
    # an R-fixed column as the invariant: the l checks run at several
    # coefficients and label their failures with one
    "twist-with-invariant": lambda: incoherent_twist([K_FIXED]),
    "pairing": lambda: inh.abstract_datum(twisted_R()),
}

CHECKS = {
    "rll": lambda d: uea.check_rll(d, max_len=2),
    "xkx": lambda d: uea.check_xkx(d, max_len=2, n=K_FIXED),
    "pairings": lambda d: uea.check_pairings(d, k=K_BAD, n=K_FIXED,
                                             max_len=2),
    "ideal": lambda d: uea.check_ideal_killed(d),
}

CASES = [f"{datum}:{check}" for datum in DATUMS for check in CHECKS]


def _reports(case):
    datum, check = case.split(":")
    return CHECKS[check](DATUMS[datum]())


EXPECTED = {
    'twist:rll': [
        ('rll:block-LL:len1', 'fail',
         '(((1, 1), (1, 2)), Scalar(-2))', 'first failure on y0'),
        ('rll:block-LL:len2', 'fail',
         '(((1, 1), (1, 2)), Scalar(-8))', 'first failure on Lam00.y0'),
        ('rll:block-LM:len1', 'fail',
         '(((1, 0), (2,)), Scalar(-1))', 'first failure on Lam11'),
        ('rll:block-LM:len2', 'fail',
         '(((1, 0), (2,)), Scalar(-2))', 'first failure on Lam00.Lam11'),
        ('rll:block-ML:len1', 'fail',
         '(((0, 1), (2,)), Scalar(1/2))', 'first failure on Lam11'),
        ('rll:block-ML:len2', 'fail',
         '(((0, 1), (2,)), Scalar(1))', 'first failure on Lam00.Lam11'),
        ('rll:block-MM:len1', 'pass',
         'None', '20 evaluations'),
        ('rll:block-MM:len2', 'pass',
         'None', '400 evaluations'),
        ('rll:full:len1', 'fail',
         '(((0, 1), (4, 2)), Scalar(1/2))', 'first failure on Lam11'),
        ('rll:full:len2', 'fail',
         '(((0, 1), (4, 2)), Scalar(1))', 'first failure on Lam00.Lam11'),
        ('rll:implied-LM:len1', 'pass',
         'None', 'holds whenever its antecedents do'),
        ('rll:implied-LM:len2', 'pass',
         'None', 'holds whenever its antecedents do'),
        ('rll:paths-agree:len1', 'pass',
         'None', 'full identity iff all block identities'),
        ('rll:paths-agree:len2', 'pass',
         'None', 'full identity iff all block identities'),
    ],
    'twist:xkx': [
        ('xkx:base:len1', 'fail',
         '(((1, 2), (1, 1)), Scalar(-1/2))', 'first failure on y0'),
        ('xkx:base:len2', 'fail',
         '(((1, 2), (1, 1)), Scalar(-1/8))', 'first failure on Lam00.y0'),
        ('xkx:with-invariant-row:len1', 'fail',
         '(((0, 1), (4, 4)), Scalar(-1/2))', 'first failure on Lam00'),
        ('xkx:with-invariant-row:len2', 'fail',
         '(((0, 1), (4, 4)), Scalar(-3/4))', 'first failure on Lam00.Lam00'),
    ],
    'twist:pairings': [
        ('pairing:column-twisted:len1', 'fail',
         '(((0, 1), ()), Scalar(-1/2))', 'first failure on Lam00'),
        ('pairing:column-twisted:len2', 'fail',
         '(((0, 1), ()), Scalar(-3/4))', 'first failure on Lam00.Lam00'),
        ('pairing:column:len1', 'fail',
         '(((0, 1), ()), Scalar(1))', 'first failure on Lam00'),
        ('pairing:column:len2', 'fail',
         '(((0, 1), ()), Scalar(3))', 'first failure on Lam00.Lam00'),
        ('pairing:row-twisted:len1', 'fail',
         '(((0, 1), ()), Scalar(-1/2))', 'first failure on Lam00'),
        ('pairing:row-twisted:len2', 'fail',
         '(((0, 1), ()), Scalar(-3/4))', 'first failure on Lam00.Lam00'),
        ('pairing:row:len1', 'fail',
         '(((0, 1), ()), Scalar(1))', 'first failure on Lam00'),
        ('pairing:row:len2', 'fail',
         '(((0, 1), ()), Scalar(3))', 'first failure on Lam00.Lam00'),
    ],
    'twist:ideal': [
        ('ideal:mixed:X', 'fail',
         '(((2,), (1,)), Scalar(1/2))', 'first failure on (0, 1, 1)'),
        ('ideal:mixed:l', 'fail',
         '(((1,), (2,)), Scalar(-1))', 'first failure on (0, 1, 1)'),
        ('ideal:quadratic:X', 'pass',
         'None', '16 evaluations'),
        ('ideal:quadratic:l', 'pass',
         'None', '16 evaluations'),
    ],
    'twist-with-invariant:rll': [
        ('rll:block-LL:len1', 'fail',
         '(((1, 1), (1, 2)), Scalar(-2))', 'first failure on y0 at coefficient 0'),
        ('rll:block-LL:len2', 'fail',
         '(((1, 1), (1, 2)), Scalar(-8))', 'first failure on Lam00.y0 at coefficient 0'),
        ('rll:block-LM:len1', 'fail',
         '(((1, 0), (2,)), Scalar(-1))', 'first failure on Lam11 at coefficient 0'),
        ('rll:block-LM:len2', 'fail',
         '(((1, 0), (2,)), Scalar(-2))', 'first failure on Lam00.Lam11 at coefficient 0'),
        ('rll:block-ML:len1', 'fail',
         '(((0, 1), (2,)), Scalar(1/2))', 'first failure on Lam11 at coefficient 0'),
        ('rll:block-ML:len2', 'fail',
         '(((0, 1), (2,)), Scalar(1))', 'first failure on Lam00.Lam11 at coefficient 0'),
        ('rll:block-MM:len1', 'fail',
         '(((0, 1), ()), Scalar(-1))', 'first failure on Lam00 at coefficient 1'),
        ('rll:block-MM:len2', 'fail',
         '(((0, 1), ()), Scalar(-3))', 'first failure on Lam00.Lam00 at coefficient 1'),
        ('rll:full:len1', 'fail',
         '(((0, 1), (4, 2)), Scalar(1/2))', 'first failure on Lam11 at coefficient 0'),
        ('rll:full:len2', 'fail',
         '(((0, 1), (4, 2)), Scalar(1))', 'first failure on Lam00.Lam11 at coefficient 0'),
        ('rll:implied-LM:len1', 'pass',
         'None', 'holds whenever its antecedents do'),
        ('rll:implied-LM:len2', 'pass',
         'None', 'holds whenever its antecedents do'),
        ('rll:paths-agree:len1', 'pass',
         'None', 'full identity iff all block identities'),
        ('rll:paths-agree:len2', 'pass',
         'None', 'full identity iff all block identities'),
    ],
    'twist-with-invariant:xkx': [
        ('xkx:base:len1', 'fail',
         '(((1, 2), (1, 1)), Scalar(-1/2))', 'first failure on y0'),
        ('xkx:base:len2', 'fail',
         '(((1, 2), (1, 1)), Scalar(-1/8))', 'first failure on Lam00.y0'),
        ('xkx:with-invariant-row:len1', 'fail',
         '(((0, 1), (4, 4)), Scalar(-1/2))', 'first failure on Lam00'),
        ('xkx:with-invariant-row:len2', 'fail',
         '(((0, 1), (4, 4)), Scalar(-3/4))', 'first failure on Lam00.Lam00'),
    ],
    'twist-with-invariant:pairings': [
        ('pairing:column-twisted:len1', 'fail',
         '(((0, 1), ()), Scalar(-1/2))', 'first failure on Lam00'),
        ('pairing:column-twisted:len2', 'fail',
         '(((0, 1), ()), Scalar(-3/4))', 'first failure on Lam00.Lam00'),
        ('pairing:column:len1', 'fail',
         '(((0, 1), ()), Scalar(1))', 'first failure on Lam00 at coefficient 0'),
        ('pairing:column:len2', 'fail',
         '(((0, 1), ()), Scalar(3))', 'first failure on Lam00.Lam00 at coefficient 0'),
        ('pairing:row-twisted:len1', 'fail',
         '(((0, 1), ()), Scalar(-1/2))', 'first failure on Lam00'),
        ('pairing:row-twisted:len2', 'fail',
         '(((0, 1), ()), Scalar(-3/4))', 'first failure on Lam00.Lam00'),
        ('pairing:row:len1', 'fail',
         '(((0, 1), ()), Scalar(1))', 'first failure on Lam00 at coefficient 0'),
        ('pairing:row:len2', 'fail',
         '(((0, 1), ()), Scalar(3))', 'first failure on Lam00.Lam00 at coefficient 0'),
    ],
    'twist-with-invariant:ideal': [
        ('ideal:mixed:X', 'fail',
         '(((2,), (1,)), Scalar(1/2))', 'first failure on (0, 1, 1)'),
        ('ideal:mixed:l', 'fail',
         '(((1,), (2,)), Scalar(-1))', 'first failure on (0, 1, 1) at coefficient 0'),
        ('ideal:quadratic:X', 'pass',
         'None', '16 evaluations'),
        ('ideal:quadratic:l', 'pass',
         'None', '48 evaluations'),
    ],
    'pairing:rll': [
        ('rll:block-LL:len1', 'pass',
         'None', '20 evaluations'),
        ('rll:block-LL:len2', 'pass',
         'None', '400 evaluations'),
        ('rll:block-LM:len1', 'pass',
         'None', '20 evaluations'),
        ('rll:block-LM:len2', 'pass',
         'None', '400 evaluations'),
        ('rll:block-ML:len1', 'pass',
         'None', '20 evaluations'),
        ('rll:block-ML:len2', 'pass',
         'None', '400 evaluations'),
        ('rll:block-MM:len1', 'pass',
         'None', '20 evaluations'),
        ('rll:block-MM:len2', 'pass',
         'None', '400 evaluations'),
        ('rll:full:len1', 'pass',
         'None', '20 evaluations'),
        ('rll:full:len2', 'pass',
         'None', '400 evaluations'),
        ('rll:implied-LM:len1', 'pass',
         'None', 'holds whenever its antecedents do'),
        ('rll:implied-LM:len2', 'pass',
         'None', 'holds whenever its antecedents do'),
        ('rll:paths-agree:len1', 'pass',
         'None', 'full identity iff all block identities'),
        ('rll:paths-agree:len2', 'pass',
         'None', 'full identity iff all block identities'),
    ],
    'pairing:xkx': [
        ('xkx:base:len1', 'pass',
         'None', '20 evaluations'),
        ('xkx:base:len2', 'pass',
         'None', '400 evaluations'),
        ('xkx:with-invariant-row:len1', 'fail',
         '(((0, 1), (4, 4)), Scalar(-1/2))', 'first failure on Lam00'),
        ('xkx:with-invariant-row:len2', 'fail',
         '(((0, 1), (4, 4)), Scalar(-3/4))', 'first failure on Lam00.Lam00'),
    ],
    'pairing:pairings': [
        ('pairing:column-twisted:len1', 'fail',
         '(((0, 1), ()), Scalar(-1/2))', 'first failure on Lam00'),
        ('pairing:column-twisted:len2', 'fail',
         '(((0, 1), ()), Scalar(-3/4))', 'first failure on Lam00.Lam00'),
        ('pairing:column:len1', 'fail',
         '(((0, 1), ()), Scalar(1))', 'first failure on Lam00'),
        ('pairing:column:len2', 'fail',
         '(((0, 1), ()), Scalar(3))', 'first failure on Lam00.Lam00'),
        ('pairing:row-twisted:len1', 'fail',
         '(((0, 1), ()), Scalar(-1/2))', 'first failure on Lam00'),
        ('pairing:row-twisted:len2', 'fail',
         '(((0, 1), ()), Scalar(-3/4))', 'first failure on Lam00.Lam00'),
        ('pairing:row:len1', 'fail',
         '(((0, 1), ()), Scalar(1))', 'first failure on Lam00'),
        ('pairing:row:len2', 'fail',
         '(((0, 1), ()), Scalar(3))', 'first failure on Lam00.Lam00'),
    ],
    'pairing:ideal': [
        ('ideal:mixed:X', 'pass',
         'None', '64 evaluations'),
        ('ideal:mixed:l', 'pass',
         'None', '64 evaluations'),
        ('ideal:quadratic:X', 'pass',
         'None', '16 evaluations'),
        ('ideal:quadratic:l', 'pass',
         'None', '16 evaluations'),
    ],
}


@pytest.mark.parametrize("case", CASES)
def test_failing_rows_are_pinned(case):
    got = [(r.check_id, r.status, repr(r.witness), r.note)
           for r in _reports(case)]
    assert got == EXPECTED[case]
