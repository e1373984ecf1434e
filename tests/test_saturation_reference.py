"""Saturation against a naive reference kept in this file.

The reference is the bounded saturation by its definition, with none of the
shortcuts of `presentation.Saturation`: every round forms every composition
and every tensor product of a frontier element with any stored element, in
both orders, with no duplicate screen, no padding-route test and no stop
before the last round.  Its span dimension at every (src, dst), recorded
after each round, must equal that of `saturate` at that depth.  The lazy
`contains` must give the eager verdict on every block of the built-in
candidate families and of a document whose block lies outside the span, and
leave a prefix of the eager saturation's stored elements at every key.  One presentation mixes generator dimensions, so that
max_space drops words inside a length layer, as it does for no built-in.
"""

import pytest

from cqtcheck import catalog, dsl, lorentz
from cqtcheck.presentation import (GeneratorSpec, Presentation, Relation,
                                   Saturation, saturate)
from cqtcheck.scalars import Gaussian
from cqtcheck.tensor import SpanBasis, Tensor, kron, pad_with_identity

DEPTH = 3
POINTS = {"generic": None, "t=1": Gaussian(1), "t=i": Gaussian(0, 1)}
DATA = ("slq2", "lorentz-flip", "lorentz-beta-minus")


def reference_dims(p, depth, max_len=4, max_space=400, max_end_len=2):
    """Span dimension per (src, dst) after rounds 0, 1, ..., depth."""
    spans, stored = {}, []

    def add(src, dst, t):
        if t.is_zero():
            return False
        if (src, dst) not in spans:
            spans[src, dst] = SpanBasis(t.nrows * t.ncols)
            if src == dst:
                spans[src, dst].add(Tensor.identity(p.word_dims(src)))
        if spans[src, dst].add(t):
            stored.append((src, dst, t))
            return True
        return False

    def fits(word):
        return len(word) <= max_len and p.word_dim(word) <= max_space

    words, layer = [()], [()]
    for _ in range(max_len):
        layer = [w + (a,) for w in layer for a in p.non_unit()
                 if fits(w + (a,))]
        words += layer

    def pad_all(found):
        for src, dst, t in found:
            for pre in words:
                for post in words:
                    nsrc, ndst = pre + src + post, pre + dst + post
                    if (pre or post) and fits(nsrc) and fits(ndst):
                        add(nsrc, ndst, pad_with_identity(
                            t, p.word_dims(pre), p.word_dims(post)))

    def kept(src, dst):
        return min(len(src), len(dst)) <= max_end_len

    for r in p.relations:
        if len(r.source_word) <= max_len and len(r.target_word) <= max_len:
            add(r.source_word, r.target_word, r.matrix)
    pad_all(list(stored))
    frontier = list(stored)
    out = [{k: s.dim() for k, s in spans.items()}]
    for _ in range(depth):
        before = len(stored)
        everything = list(stored)
        for s1, d1, a in frontier:
            for s2, d2, b in everything:
                for (sa, da, x), (sb, db, y) in (((s1, d1, a), (s2, d2, b)),
                                                 ((s2, d2, b), (s1, d1, a))):
                    if da == sb and kept(sa, db):
                        add(sa, db, y @ x)
                    if fits(sa + sb) and fits(da + db) and kept(sa + sb,
                                                                 da + db):
                        add(sa + sb, da + db, kron(x, y))
        products = stored[before:]
        pad_all(products)
        frontier = stored[before:]
        out.append({k: s.dim() for k, s in spans.items()})
    return out


def _visible(dims):
    """Dimensions without the implicit ones: the identity on a word, or 0."""
    return {(src, dst): n for (src, dst), n in dims.items()
            if n != (src == dst)}


def _mixed_dimensions():
    """Generators a (dim 3), h (dim 1), g (dim 200) and relations
    A: a -> h h, B: h h h h -> g.  At max_len 5, max_space drops words
    inside a length layer (a g, g a, g g), and only a tensor product reaches
    A (x) B: no padding route fits."""
    a_to_hh = Tensor.from_rows([[1, 2, 3]]).with_legs((1, 1), (3,))
    hhhh_to_g = Tensor.from_rows([[k] for k in range(1, 201)]).with_legs(
        (200,), (1, 1, 1, 1))
    return Presentation(
        [GeneratorSpec("a", 3, "a"), GeneratorSpec("h", 1, "h"),
         GeneratorSpec("g", 200, "g")],
        [Relation("A", a_to_hh, ("a",), ("h", "h")),
         Relation("B", hhhh_to_g, ("h",) * 4, ("g",))])


SPACES = [pytest.param(name, point, 2, id=f"{name}-{point}")
          for name in DATA for point in POINTS]
SPACES.append(pytest.param("mixed", None, 3, id="mixed-dimensions"))


@pytest.mark.parametrize("name, point, max_end_len", SPACES)
def test_span_dimensions_match_the_reference(name, point, max_end_len):
    p = (_mixed_dimensions() if name == "mixed"
         else catalog.resolve(name, POINTS[point]).presentation)
    want_dims = reference_dims(p, DEPTH, max_len=max_end_len + 2,
                               max_end_len=max_end_len)
    for depth, want in enumerate(want_dims):
        got = {k: s.dim() for k, s in
               saturate(p, depth=depth, max_end_len=max_end_len).spans.items()}
        assert _visible(got) == _visible(want), f"depth {depth}"


def _families(name, value):
    d = catalog.resolve(name, value)
    if name == "slq2":
        return d.presentation, lorentz.sl2_family(d)
    return d.presentation, lorentz.lorentz_family(d)


def _prefix(got, want):
    """Whether the tensors in got begin the list want, legs included."""
    return len(got) <= len(want) and all(
        a.cod == b.cod and a.dom == b.dom and a == b
        for a, b in zip(got, want))


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("name", DATA)
def test_lazy_contains_gives_the_eager_verdict(name, point):
    p, family = _families(name, POINTS[point])
    lazy, eager = Saturation(p, depth=DEPTH), saturate(p, depth=DEPTH)
    for cand in family:
        for (a, b), block in cand.blocks.items():
            assert (lazy.contains((a, b), (b, a), block)
                    == eager.contains((a, b), (b, a), block))
            # a contains that stops inside a round leaves a prefix of the
            # eager saturation's stored elements, at every key
            assert all(_prefix(items, eager.elements.get(key, []))
                       for key, items in lazy.elements.items())
    # every built-in block is witnessed before the last round
    assert lazy.reached < DEPTH
    # a block outside the span runs every round before it is refused
    diag = Tensor.from_rows([[1, 0], [0, 2]])
    assert not lazy.contains(("w", "w"), ("w", "w"), kron(diag, diag))
    assert lazy.reached == DEPTH
    lazy.complete()
    assert lazy.elements.keys() == eager.elements.keys()
    assert all(len(items) == len(eager.elements[key])
               and _prefix(items, eager.elements[key])
               for key, items in lazy.elements.items())


@pytest.mark.parametrize("depth", [1, 3])
def test_lazy_contains_gives_the_eager_verdict_outside_the_span(depth):
    # the flip is refused after every round; then every element the eager
    # saturation stores is witnessed, some by composites `contains` forms
    # ahead of the rounds (E . Ep before round 1 has run)
    with open("tests/data/flip-outside-span.qg", encoding="utf-8") as fh:
        doc = dsl.parse_presentation(fh.read())
    p, ww = doc.presentation, ("w", "w")
    lazy, eager = Saturation(p, depth=depth), saturate(p, depth=depth)
    flip = doc.candidate.block("w", "w")
    assert not lazy.contains(ww, ww, flip)
    assert not eager.contains(ww, ww, flip)
    assert lazy.reached == depth
    lazy = Saturation(p, depth=depth)
    ee = doc.mats["E"].matrix @ doc.mats["Ep"].matrix
    assert lazy.contains(ww, ww, ee) and lazy.reached == 0
    for key, items in eager.elements.items():
        for t in items:
            assert lazy.contains(*key, t)
            assert all(_prefix(got, eager.elements.get(k, []))
                       for k, got in lazy.elements.items())
    assert not lazy.contains(ww, ww, flip)
    assert all(len(items) == len(eager.elements[key])
               and _prefix(items, eager.elements[key])
               for key, items in lazy.elements.items())
