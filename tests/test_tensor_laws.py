"""Property tests for the sparse tensor store against its dense view.

Tensors are small, with random legs and mostly-zero Q(i) entries; every
law is checked exactly.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cqtcheck.errors import ShapeError  # noqa: E402
from cqtcheck.scalars import ZERO, Gaussian, Scalar  # noqa: E402
from cqtcheck.tensor import (SpanBasis, Tensor, flip, kron,  # noqa: E402
                             pad_with_identity, unflatten)

LAWS = settings(max_examples=60, deadline=None, database=None)

dims = st.integers(min_value=1, max_value=3)
legs = st.lists(dims, min_size=0, max_size=2).map(tuple)
gaussians = st.builds(Gaussian, st.integers(-2, 2), st.integers(-1, 1))
scalars = st.one_of(st.just(ZERO), st.just(ZERO),
                    gaussians.map(Scalar.from_gaussian))


def _size(ds):
    out = 1
    for d in ds:
        out *= d
    return out


@st.composite
def tensors(draw, cod=None, dom=None):
    cod = draw(legs) if cod is None else cod
    dom = draw(legs) if dom is None else dom
    n = _size(cod) * _size(dom)
    return Tensor(cod, dom, draw(st.lists(scalars, min_size=n, max_size=n)))


@st.composite
def composable(draw):
    """a, b, c, d with a @ c and b @ d defined."""
    n1, m1, p1, n2, m2, p2 = (draw(legs) for _ in range(6))
    return (draw(tensors(n1, m1)), draw(tensors(n2, m2)),
            draw(tensors(m1, p1)), draw(tensors(m2, p2)))


@LAWS
@given(composable())
def test_mixed_product_law(abcd):
    a, b, c, d = abcd
    assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


@LAWS
@given(dims, dims)
def test_flip_is_an_involution(d1, d2):
    assert flip(d2, d1) @ flip(d1, d2) == Tensor.identity((d1, d2))


@LAWS
@given(tensors(), legs, legs)
def test_pad_with_identity_is_kron_with_identities(t, pre, post):
    padded = pad_with_identity(t, pre, post)
    expect = kron(Tensor.identity(pre), kron(t, Tensor.identity(post)))
    assert padded == expect
    assert (padded.cod, padded.dom) == (expect.cod, expect.dom)


@LAWS
@given(tensors(), st.data())
def test_matmul_add_sub_match_dense(a, data):
    b = data.draw(tensors(a.cod, a.dom))
    c = data.draw(tensors(a.dom, data.draw(legs)))
    da, db, dc = a.entries, b.entries, c.entries
    assert (a + b).entries == [x + y for x, y in zip(da, db)]
    assert (a - b).entries == [x - y for x, y in zip(da, db)]
    prod = []
    for i in range(a.nrows):
        for j in range(c.ncols):
            acc = ZERO
            for p in range(a.ncols):
                acc = acc + da[i * a.ncols + p] * dc[p * c.ncols + j]
            prod.append(acc)
    assert (a @ c).entries == prod


@LAWS
@given(tensors(), st.data())
def test_first_nonzero_of_difference_is_first_dense_difference(a, data):
    b = data.draw(st.one_of(
        tensors(a.cod, a.dom),
        st.just(Tensor(a.cod, a.dom, a.entries)),
    ))
    da, db = a.entries, b.entries
    expect = None
    for k, (x, y) in enumerate(zip(da, db)):
        if x != y:
            i, j = divmod(k, a.ncols)
            expect = (unflatten(a.cod, i), unflatten(a.dom, j)), x - y
            break
    assert (a - b).first_nonzero() == expect


@LAWS
@given(tensors(), st.data())
def test_equality_key_and_hash_agree_with_dense_view(a, data):
    same_shape = tensors(a.cod, a.dom)
    b = data.draw(st.one_of(
        same_shape,
        st.just(Tensor(a.cod, a.dom, a.entries)),
        st.just(a.with_legs((a.nrows,), (a.ncols,))),
        tensors(),
    ))
    dense_equal = ((a.nrows, a.ncols) == (b.nrows, b.ncols)
                   and a.entries == b.entries)
    assert (a == b) == dense_equal
    assert (a.key() == b.key()) == dense_equal
    if dense_equal:
        assert hash(a.key()) == hash(b.key())


@st.composite
def slicings(draw):
    """A tensor and a slice_legs call: kept legs (some ranged) and fixed legs."""
    t = draw(tensors(draw(st.lists(dims, min_size=1, max_size=3).map(tuple)),
                     draw(legs)))
    all_legs = t.cod + t.dom
    order = draw(st.permutations(range(len(all_legs))))
    nfix = draw(st.integers(0, len(all_legs)))
    fix = {leg: draw(st.integers(0, all_legs[leg] - 1)) for leg in order[:nfix]}
    kept = []
    for leg in order[nfix:]:
        stop = draw(st.integers(1, all_legs[leg]))
        kept.append(leg if stop == all_legs[leg] else (leg, stop))
    ncod = draw(st.integers(0, len(kept)))
    return t, tuple(kept[:ncod]), tuple(kept[ncod:]), fix


def _leg(spec):
    return spec if isinstance(spec, int) else spec[0]


@LAWS
@given(slicings())
def test_slice_legs_agrees_with_entry_lookups(case):
    t, cod, dom, fix = case
    s = t.slice_legs(cod, dom, fix)
    ncod = len(t.cod)
    for i in range(s.nrows):
        new_row = unflatten(s.cod, i)
        for j in range(s.ncols):
            new_col = unflatten(s.dom, j)
            old = dict(fix)
            for spec, x in zip(cod + dom, new_row + new_col):
                old[_leg(spec)] = x
            multi = tuple(old[k] for k in range(ncod + len(t.dom)))
            assert s.entry(new_row, new_col) == t.entry(multi[:ncod],
                                                        multi[ncod:])


@st.composite
def placements(draw):
    """A tensor and a place_legs call: new legs at least as long, the rest fixed."""
    t = draw(tensors())
    old = t.cod + t.dom
    nfix = draw(st.integers(0, 2))
    order = draw(st.permutations(range(len(old) + nfix)))
    new = [0] * len(order)
    legs = tuple(order[:len(old)])
    for d, leg in zip(old, legs):
        new[leg] = d + draw(st.integers(0, 1))
    fix = {}
    for leg in order[len(old):]:
        new[leg] = draw(dims)
        fix[leg] = draw(st.integers(0, new[leg] - 1))
    ncod = draw(st.integers(0, len(new)))
    return t, tuple(new[:ncod]), tuple(new[ncod:]), legs, fix


@LAWS
@given(placements())
def test_slice_legs_undoes_place_legs(case):
    t, cod, dom, legs, fix = case
    placed = t.place_legs(cod, dom, legs, fix)
    ranged = tuple((leg, d) for leg, d in zip(legs, t.cod + t.dom))
    back = placed.slice_legs(ranged[:len(t.cod)], ranged[len(t.cod):], fix)
    assert back == t
    assert (back.cod, back.dom) == (t.cod, t.dom)


@LAWS
@given(placements())
def test_place_legs_agrees_with_entry_lookups(case):
    t, cod, dom, legs, fix = case
    placed = t.place_legs(cod, dom, legs, fix)
    assert (placed.cod, placed.dom) == (cod, dom)
    old = t.cod + t.dom
    for i in range(placed.nrows):
        new_row = unflatten(cod, i)
        for j in range(placed.ncols):
            new_col = unflatten(dom, j)
            multi = new_row + new_col
            inside = (all(multi[leg] == at for leg, at in fix.items())
                      and all(multi[leg] < d for leg, d in zip(legs, old)))
            expect = ZERO
            if inside:
                src = tuple(multi[leg] for leg in legs)
                expect = t.entry(src[:len(t.cod)], src[len(t.cod):])
            assert placed.entry(new_row, new_col) == expect


@pytest.mark.parametrize("cod, dom, legs, fix", [
    ((3,), (1,), (0, 1), {}),              # target leg shorter than its source
    ((3,), (2, 2), (0, 1), {2: 2}),        # fixed index beyond its leg
    ((3,), (2, 2), (0, 1), {}),            # new leg 2 neither placed nor fixed
    ((3,), (2,), (0, 0), {}),              # new leg 0 used twice
    ((3,), (2,), (0,), {1: 0}),            # a leg of self left unplaced
])
def test_place_legs_rejects_bad_specs(cod, dom, legs, fix):
    t = Tensor.from_rows([[1, 2], [3, 4]])
    with pytest.raises(ShapeError):
        t.place_legs(cod, dom, legs, fix)


def _poly(cs):
    """Coefficients, lowest degree first, without trailing zeros."""
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


polys = st.lists(gaussians, min_size=1, max_size=3).map(_poly)
span_scalars = st.one_of(
    gaussians.map(Scalar.from_gaussian),
    st.builds(Scalar.normalize, polys, polys.filter(bool)))


def sparse_vectors(n):
    """A few sparse column vectors of length n, over constant and
    t-dependent scalars."""
    entries = st.dictionaries(st.integers(0, n - 1), span_scalars,
                              max_size=3)
    return st.lists(entries.map(lambda nz: Tensor.from_nonzero((n,), (), nz)),
                    min_size=1, max_size=6)


def _stacked(n, vecs):
    return Tensor.from_nonzero((len(vecs),), (n,), {
        i * n + k: x for i, v in enumerate(vecs) for k, x in v.nz.items()})


def _rank(n, vecs):
    """Rank of the stacked vectors by `Tensor.rref`, an elimination that
    shares only the row update with `SpanBasis`."""
    return len(_stacked(n, vecs).rref()[1])


@LAWS
@given(st.integers(1, 5), st.data())
def test_rank_is_the_number_of_reduced_rows(n, data):
    # `Tensor.rank` takes a row of one entry as a unit vector without
    # elimination: mix such rows in, and repeat some rows
    vecs = data.draw(sparse_vectors(n))
    vecs += data.draw(st.lists(st.builds(
        lambda k, x: Tensor.from_nonzero((n,), (), {k: x}),
        st.integers(0, n - 1), span_scalars), max_size=3))
    vecs += data.draw(st.lists(st.sampled_from(vecs), max_size=2))
    assert _stacked(n, vecs).rank() == _rank(n, vecs)


@LAWS
@given(st.integers(1, 5), st.data())
def test_span_basis_agrees_with_the_rank(n, data):
    vecs = data.draw(sparse_vectors(n))
    # the second order puts later first indices first, so a later vector's
    # pivot precedes the pivots already stored
    for order in (vecs, sorted(vecs, key=lambda v: -min(v.nz, default=n))):
        span, rank = SpanBasis(n), 0
        for k, v in enumerate(order):
            grown = _rank(n, order[:k + 1])
            assert span.add(v) == (grown > rank)
            rank = grown
            assert span.dim() == rank
        pivots = [p for p, _ in span.rows]
        assert pivots == sorted(pivots)
        coefs = data.draw(st.lists(span_scalars, min_size=len(order),
                                   max_size=len(order)))
        combo = Tensor.zeros((n,), ())
        for v, c in zip(order, coefs):
            combo = combo + v * c
        assert span.contains(combo)
        for probe in data.draw(sparse_vectors(n)):
            assert span.contains(probe) == (_rank(n, order + [probe]) == rank)
