"""Property tests for the value numbering of `FunctionalHom`.

A functional numbers each distinct value once and finds a word's number
from its prefix's and its last letter's.  On the l and X functionals of
both Poincaré built-ins, their convolution tables, and the evaluation maps
of slq2 and lorentz-flip at generic t and at t = 1, random words of up to
4 letters must evaluate to the plain left-to-right product of their letter
values, share a number exactly when their values are equal, and raise
MissingRep at the first unknown letter.  Each example numbers its words in
a fresh functional over the same letter values, so the numbering starts
from the order the example draws.
"""

import re
from functools import cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cqtcheck import catalog, cli, cqt, uea  # noqa: E402
from cqtcheck.errors import MissingRep  # noqa: E402
from cqtcheck.inhomogeneous import coefficient_points  # noqa: E402
from cqtcheck.presentation import FunctionalHom  # noqa: E402
from cqtcheck.scalars import Gaussian  # noqa: E402
from cqtcheck.tensor import Tensor  # noqa: E402

LAWS = settings(max_examples=60, deadline=None, database=None)

POINCARE = ("poincare-classical", "poincare-twisted")
PRESENTED = [(name, value) for name in ("slq2", "lorentz-flip")
             for value in (None, Gaussian(1))]


@cache
def tables():
    """(label, letter values) of every functional under test."""
    out = []
    for name in POINCARE:
        fns = uea.Functionals(catalog.resolve(name, None))
        c = coefficient_points(fns.d, 4)[-1]
        out += [(f"{name}:l", fns.hom(c)), (f"{name}:X", fns.hom()),
                (f"{name}:B(l)", fns.conv(c)), (f"{name}:B(X)", fns.conv())]
    for name, value in PRESENTED:
        datum = catalog.resolve(name, value)
        cand = cli._kind(datum).candidate(datum)
        for beta in datum.presentation.non_unit():
            out.append((f"{name}@{value}:eval:{beta}", cqt.eval_hom(cand, beta)))
    return [(label, h.size, h.values) for label, h in out]


@st.composite
def functional_words(draw):
    """A fresh functional and a few words over its letters."""
    label, size, values = draw(st.sampled_from(tables()))
    letters = st.sampled_from(sorted(values, key=repr))
    words = draw(st.lists(st.lists(letters, max_size=4).map(tuple),
                          min_size=1, max_size=6))
    return label, FunctionalHom(size, values), words


def _plain(h: FunctionalHom, word) -> Tensor:
    legs = next(iter(h.values.values())).cod
    out = Tensor.identity(legs)
    for letter in word:
        out = out @ h.values[letter]
    return out


@LAWS
@given(functional_words())
def test_value_is_the_plain_product(case):
    label, h, words = case
    for word in words:
        assert h.value(word) == _plain(h, word), (label, word)


@LAWS
@given(functional_words())
def test_numbers_are_equal_exactly_when_values_are(case):
    label, h, words = case
    plain = [_plain(h, w) for w in words]
    numbers = [h.number(w) for w in words]
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            assert (numbers[i] == numbers[j]) == (plain[i] == plain[j]), (
                label, u, v)


@LAWS
@given(functional_words(), st.data())
def test_an_unknown_letter_raises_missing_rep(case, data):
    label, h, words = case
    word = list(words[0])
    unknown = [("unknown", k) for k in range(data.draw(st.integers(1, 2)))]
    for letter in unknown:
        word.insert(data.draw(st.integers(0, len(word))), letter)
    first = next(letter for letter in word if letter in unknown)
    message = f"no value for letter {first!r}"
    with pytest.raises(MissingRep, match=re.escape(message)):
        h.value(word)
    with pytest.raises(MissingRep, match=re.escape(message)):
        h.number(word)
