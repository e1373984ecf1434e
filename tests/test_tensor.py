import random

import pytest

from cqtcheck.errors import NotInvertible, ShapeError
from cqtcheck.scalars import ConjMode, Gaussian, I, ONE, Q, Scalar, T, ZERO
from cqtcheck.tensor import (SpanBasis, Tensor, flip, kron, pad_with_identity,
                             tauconj, unflatten)

q = Q
t = T


def rand_matrix(rng, n, m):
    return Tensor.from_rows(
        [[rng.randrange(-3, 4) for _ in range(m)] for _ in range(n)])


def test_kron_identities():
    assert kron(Tensor.identity((2,)), Tensor.identity((2,))) == \
        Tensor.identity((2, 2))


def test_kron_passes_one_through():
    # as in a product: a factor that is the shared ONE costs no
    # multiplication, and the other factor's entries are stored as they are
    rng = random.Random(5)
    m = rand_matrix(rng, 3, 2) * (t + 1)
    own = {id(v) for v in m.nz.values()}
    for n in (1, 2):
        one = Tensor.identity((n,))
        for k in (kron(one, m), kron(m, one)):
            assert {id(v) for v in k.nz.values()} == own


def test_kron_shape_law():
    E = Tensor.from_rows([[0], [1], [-1], [0]]).with_legs((2, 2), ())
    K = kron(E, E)
    assert K.cod == (2, 2, 2, 2) and K.dom == ()


def test_kron_mixed_product():
    rng = random.Random(5)
    for _ in range(10):
        a, b, c, d = (rand_matrix(rng, 2, 2) for _ in range(4))
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def test_flip_matrix():
    f = flip(2, 2)
    expect = Tensor.from_rows(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    ).with_legs((2, 2), (2, 2))
    assert f == expect
    assert f @ f == Tensor.identity((2, 2))


def test_flip_permutes_invariant_column():
    E = Tensor((2, 2), (), [ZERO, ONE, -q, ZERO])
    assert (flip(2, 2) @ E).entries == [ZERO, -q, ONE, ZERO]


def test_flip_degenerate():
    assert flip(1, 3) == Tensor.identity((3,))
    assert flip(3, 1) == Tensor.identity((3,))


def test_flip_naturality():
    rng = random.Random(9)
    for _ in range(5):
        a = rand_matrix(rng, 2, 3)
        b = rand_matrix(rng, 4, 2)
        # flip . (a (x) b) = (b (x) a) . flip on the domain legs
        lhs = flip(2, 4) @ kron(a, b)
        rhs = kron(b, a) @ flip(3, 2)
        assert lhs == rhs


def test_embed():
    x = flip(2, 2)
    assert pad_with_identity(x, (2,), ()) == kron(Tensor.identity((2,)), x)
    assert pad_with_identity(x, (), ()) is x


def test_inverse_of_flip():
    assert flip(2, 2).inverse() == flip(2, 2)


def test_inverse_of_pairing_matrix():
    # the 2x2 matrix [[0,1],[-q,0]] inverts to [[0,-1/q],[1,0]]
    m = Tensor.from_rows([[ZERO, ONE], [-q, ZERO]])
    assert m.inverse() == Tensor.from_rows([[ZERO, -(q ** -1)], [ONE, ZERO]])
    assert m.inverse() @ m == Tensor.identity((2,))
    assert m @ m.inverse() == Tensor.identity((2,))


def test_inverse_rank_one_fails_with_witness():
    E = Tensor((2, 2), (), [ZERO, ONE, -q, ZERO])
    Ep = Tensor((), (2, 2), [ZERO, -(q ** -1), ONE, ZERO])
    ee = E @ Ep
    with pytest.raises(NotInvertible) as err:
        ee.inverse()
    witness = err.value.witness
    assert witness is not None
    assert (ee @ witness).is_zero()


def rank(m: Tensor) -> int:
    return len(m.rref()[1])


def test_nullspace_of_pairing_row():
    row = Tensor((), (2, 2), [ZERO, -(q ** -1), ONE, ZERO])
    basis = row.nullspace()
    assert len(basis) == 3
    for b in basis:
        assert (row @ b).is_zero()
    assert rank(row) + len(basis) == 4


def test_nullspace_of_identity_empty():
    assert Tensor.identity((2, 2)).nullspace() == []


def test_exchange_block_eigenvector():
    # L1 E = -t^-3 E, so E spans the nullspace of L1 + t^-3 and the
    # complementary eigenvalue t has a three-dimensional nullspace
    E = Tensor((2, 2), (), [ZERO, ONE, -q, ZERO])
    Ep = Tensor((), (2, 2), [ZERO, -(q ** -1), ONE, ZERO])
    L1 = (Tensor.identity((2, 2)) + (E @ Ep) * (t ** -2)) * t
    assert (L1 @ E) == E * (-(t ** -3))
    shifted = L1 + Tensor.identity((2, 2)) * (t ** -3)
    basis = shifted.nullspace()
    assert len(basis) == 1
    assert (E.entries[1] * basis[0].entries[2]
            == basis[0].entries[1] * E.entries[2])
    assert len((L1 - Tensor.identity((2, 2)) * t).nullspace()) == 3


def test_rank_nullity_random():
    rng = random.Random(21)
    for _ in range(10):
        m = rand_matrix(rng, 3, 5)
        assert rank(m) + len(m.nullspace()) == 5


def test_tauconj():
    f = flip(2, 2)
    assert tauconj(f, ConjMode.REAL) == f
    m = Tensor.identity((2, 2)) * I
    assert tauconj(m, ConjMode.REAL) == -m
    with pytest.raises(ShapeError):
        tauconj(Tensor.identity((4,)), ConjMode.REAL)


def test_tauconj_is_flip_conjugation():
    rng = random.Random(2)
    m = rand_matrix(rng, 4, 4).with_legs((2, 2), (2, 2)) * (ONE + I)
    assert tauconj(m, ConjMode.REAL) == \
        flip(2, 2) @ m.conjugate(ConjMode.REAL) @ flip(2, 2)


def test_pad_with_identity_matches_kron():
    rng = random.Random(4)
    m = rand_matrix(rng, 2, 3)
    assert pad_with_identity(m, (2,), (3,)) == \
        kron(Tensor.identity((2,)), kron(m, Tensor.identity((3,))))


def test_equality_ignores_leg_labels():
    a = Tensor.identity((4,))
    b = Tensor.identity((2, 2))
    assert a == b


def test_unflatten_round_trip():
    dims = (2, 3, 4)
    for flat in range(24):
        multi = unflatten(dims, flat)
        acc = 0
        for d, k in zip(dims, multi):
            acc = acc * d + k
        assert acc == flat


def test_span_basis():
    rows = [Tensor.from_rows([[1, 0, 1]]), Tensor.from_rows([[0, 1, 1]])]
    span = SpanBasis(3)
    assert span.add(rows[0])
    assert span.add(rows[1])
    assert not span.add(Tensor.from_rows([[1, 1, 2]]))
    assert span.contains(Tensor.from_rows([[2, -1, 1]]))
    assert not span.contains(Tensor.from_rows([[0, 0, 1]]))
    assert span.dim() == 2
