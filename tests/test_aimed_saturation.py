"""A saturation aimed at one Mor(src, dst) against the unaimed one.

`mor_saturate` makes a `Saturation` with a goal, which skips last-round
products that cannot reach it.  Its basis must equal, element for element
and in order, the basis that the unaimed `saturate` reads at the same bound
(max_end_len = mel, with mel = max(len src, len dst, 2)).

The grid covers every pair of words of up to 3 letters for slq2 and up to 2
for the Lorentz data, at each depth 0-3; the value of t rotates with the
depth, so each datum meets generic t, t = 1 and t = i.  The built-in data
do not tell the aim apart from stricter, unsound ones: one that, in the
round before the last, keeps only keys whose src or dst is the goal's own,
and one that, in the last round, keeps only the goal's key.  The synthetic
presentation below fails both.
"""

import itertools

import pytest

from cqtcheck import catalog
from cqtcheck.presentation import (GeneratorSpec, Presentation, Relation,
                                   Saturation, mor_saturate, saturate)
from cqtcheck.scalars import ONE, Gaussian
from cqtcheck.tensor import Tensor

POINTS = {"generic": None, "t=1": Gaussian(1), "t=i": Gaussian(0, 1)}
LETTERS = {"slq2": 3, "lorentz-flip": 2, "lorentz-beta-minus": 2}
GRID = [(name, depth, list(POINTS)[(depth + k) % 3])
        for k, name in enumerate(LETTERS) for depth in range(4)]


def _same_basis(got, want):
    return len(got) == len(want) and all(
        a.cod == b.cod and a.dom == b.dom and a == b
        for a, b in zip(got, want))


@pytest.mark.parametrize("name,depth,point", GRID,
                         ids=[f"{n}-depth{d}-{p}" for n, d, p in GRID])
def test_aimed_basis_is_the_unaimed_basis(name, depth, point):
    p = catalog.resolve(name, POINTS[point]).presentation
    words = [w for n in range(LETTERS[name] + 1)
             for w in itertools.product(p.non_unit(), repeat=n)]
    unaimed = {}
    for src, dst in itertools.product(words, repeat=2):
        mel = max(len(src), len(dst), 2)
        if mel not in unaimed:
            unaimed[mel] = saturate(p, depth, max_end_len=mel)
        assert _same_basis(mor_saturate(p, src, dst, depth, None),
                           unaimed[mel].basis(src, dst, None)), (src, dst)


def _through_a_big_generator():
    """a (dim 2), h (dim 2), g (dim 300), with A: a -> g, B: g -> g and
    C: g -> a.  Every composite C B^k A lies in Mor(a, a), and its padding
    by h is in Mor(a h, a h); padding first would pass through g h, which
    is 600 dimensions, over MAX_SPACE."""
    def mat(nrows, ncols, nz):
        return Tensor.from_nonzero((nrows,), (ncols,), {
            i * ncols + j: ONE * v for (i, j), v in nz.items()})
    return Presentation(
        [GeneratorSpec("a", 2, "a"), GeneratorSpec("h", 2, "h"),
         GeneratorSpec("g", 300, "g")],
        [Relation("A", mat(300, 2, {(0, 0): 1, (1, 1): 1}), ("a",), ("g",)),
         Relation("B", mat(300, 300, {(0, 1): 1, (1, 0): 1, (1, 1): 2}),
                  ("g",), ("g",)),
         Relation("C", mat(2, 300, {(0, 0): 1, (1, 1): 2}), ("g",), ("a",))])


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_aim_keeps_the_routes_through_smaller_keys(depth):
    # the route to Mor(a h, a h) runs through Mor(a, a), which pads into
    # it, and through Mor(a, g) and Mor(g, a), whose src or dst is a
    # factor of "a h" but not all of it
    p, goal = _through_a_big_generator(), ("a", "h")
    want = saturate(p, depth, max_end_len=2).basis(goal, goal, None)
    assert len(want) == depth + 1
    assert _same_basis(mor_saturate(p, goal, goal, depth, None), want)


def test_aimed_saturation_answers_only_for_its_goal():
    p = catalog.resolve("slq2", None).presentation
    w = ("w",)
    sat = Saturation(p, depth=2, goal=(w * 2, w * 2))
    with pytest.raises(ValueError):
        sat.basis(w, w, None)
    with pytest.raises(ValueError):
        sat.contains(w * 2, (), Tensor.zeros((2, 2), ()))
    assert sat.reached == 0  # the refused queries ran no round
    assert sat.contains(w * 2, w * 2, Tensor.identity((2, 2)))
    assert _same_basis(sat.basis(list(w * 2), list(w * 2), None),
                       saturate(p, depth=2, max_end_len=2).basis(
                           w * 2, w * 2, None))
