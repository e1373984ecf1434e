"""Every Scalar equal to 1 is the ONE object, end to end.

The tensor kernels skip a product when an operand `is ONE` (matmul, kron,
the elimination's axpy and row normalization).  That shortcut only fires
if the scalar layer never hands out a second object equal to 1; these
tests follow the invariant through the data a run builds.
"""

import contextlib
import io

import pytest

from cqtcheck import catalog, cli, uea
from cqtcheck.scalars import G_I, Gaussian, ONE, Scalar


def _stray_units(values):
    return sum(1 for v in values if v == ONE and v is not ONE)


@pytest.mark.parametrize("name", ["slq2", "lorentz-flip"])
@pytest.mark.parametrize("value", [Gaussian(1), G_I], ids=["t=1", "t=i"])
def test_specialized_relation_matrices_hold_only_the_one_object(name, value):
    p = catalog.resolve(name, value).presentation
    entries = [v for r in p.relations for v in r.matrix.nz.values()]
    assert any(v is ONE for v in entries)
    assert _stray_units(entries) == 0


def test_uea_convolution_tables_hold_only_the_one_object(monkeypatch):
    # before the invariant: 2,998 of the 3,291 entries equal to 1 were
    # separate objects, and the 4,177 nonzero entries were 3,397 objects
    tables = []
    init = uea.ConvTable.__init__

    def kept(self, *args):
        init(self, *args)
        tables.append(self)

    monkeypatch.setattr(uea.ConvTable, "__init__", kept)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["check", "builtin:poincare-classical"]) == 0
    entries = [v for t in tables for w in t._tensors for v in w.nz.values()]
    assert tables and any(v is ONE for v in entries)
    assert _stray_units(entries) == 0
    assert len({id(v) for v in entries}) < 100


def test_no_product_at_a_specialized_point_sees_a_stray_unit(monkeypatch):
    # before the invariant, 8,189 of this check's 12,059 scalar products
    # had an operand equal to 1 that was not ONE
    stray = []
    mul = Scalar.__mul__

    def counted(a, b):
        if a is not ONE and b is not ONE and (a == ONE or b == ONE):
            stray.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    monkeypatch.setattr(Scalar, "__rmul__", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["check", "builtin:lorentz-flip", "--eval", "t=1"]) == 0
    assert stray == []
