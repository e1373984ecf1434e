"""Property test: a specialization of t witnesses no more than generic t.

Under `--eval t=t0`, `mor` stops at the bound of the generic datum (see the
cqt module).  That is exact because the full closure of the rounds at t0 is
the generic closure with t0 put in, and a rank can only drop when t is
specialized.  Here, for drawn rational t0 at which the presentation is the
generic one with t0 put in, and for each depth from 1 to 3, the witnessed
dimension of small spaces of slq2 and lorentz-flip at t0 is at most the
generic one at the same depth.
"""

import functools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from cqtcheck import catalog  # noqa: E402
from cqtcheck.presentation import mor_saturate  # noqa: E402
from cqtcheck.scalars import Gaussian  # noqa: E402

SMALL = {"slq2": [(("w",), ("w",)), ((), ("w", "w")),
                  (("w", "w"), ("w", "w"))],
         "lorentz-flip": [(("w",), ("w",)), ((), ("w", "wb")),
                          (("w", "wb"), ("wb", "w")),
                          (("w", "w"), ("w", "w"))]}


@functools.cache
def _generic(name):
    return catalog.resolve(name).presentation


@functools.cache
def _generic_dim(name, src, dst, depth):
    return len(mor_saturate(_generic(name), src, dst, depth))


@settings(max_examples=12, deadline=None, database=None)
@given(st.sampled_from(sorted(SMALL)),
       st.fractions(-3, 3, max_denominator=4).filter(bool),
       st.integers(1, 3))
def test_a_specialization_witnesses_no_more_than_generic_t(name, t0, depth):
    value = Gaussian(t0)
    p = catalog.resolve(name, value).presentation
    assume(_generic(name).specializes_to(p, value))
    for src, dst in SMALL[name]:
        assert (len(mor_saturate(p, src, dst, depth))
                <= _generic_dim(name, src, dst, depth)), (src, dst)
