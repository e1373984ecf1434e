"""Bialgebra presentations: generators, intertwiner relations, candidates.

A presentation lists matrix generators (each with a dimension and a conjugate
partner) and relations of the form  W (source word) = (target word) W, where
a word is a tuple of generator names and W is a constant matrix between the
corresponding tensor spaces.  The unit generator "1" (dimension 1, its own
conjugate) is always present implicitly and never written inside words.

The module also hosts:

* CandidateR   -- a family of candidate exchange blocks R[a,b], one per pair
  of generators, with unit blocks fixed to identities;
* FunctionalHom -- a matrix-valued multiplicative functional on free words;
* Saturation   -- a bounded search in resumable rounds, producing
  certified elements of the intertwiner spaces Mor(source, target)
  generated by the relation matrices and identities under composition and
  tensoring; `contains` stops at the element, or the composite of two
  stored elements, that witnesses its query, `saturate` runs every round
  for every space, and
  `mor_saturate` reads one space from a saturation aimed at it, stopping
  once the span reaches an upper bound on the space's dimension when it
  has one.  The witnessed span is a lower bound for the true space:
  "witnessed" membership is a proof, absence of a witness at a given depth
  proves nothing.
"""

from __future__ import annotations

import weakref
from math import prod
from typing import NamedTuple

from .errors import (DuplicateName, EvaluationPole, MissingBlock, MissingRep,
                     ShapeError, UnknownGenerator)
from .tensor import SpanBasis, Tensor, kron, pad_with_identity

UNIT = "1"
# the saturation's bound on a word's total dimension, its work budget: it
# holds every two-letter word of document generators, whose dimension the
# parser caps at 16
MAX_SPACE = 400


class GeneratorSpec(NamedTuple):
    name: str
    dim: int
    conj: str  # name of the conjugate generator; may equal name


class Relation(NamedTuple):
    name: str
    matrix: Tensor
    source_word: tuple
    target_word: tuple


class Presentation:
    def __init__(self, generators, relations):
        self.generators = {}
        for g in generators:
            if g.name in self.generators or g.name == UNIT:
                raise DuplicateName(f"generator {g.name!r}")
            if g.dim < 1:
                raise ShapeError(f"generator {g.name!r} has dimension {g.dim}")
            self.generators[g.name] = g
        self.generators.setdefault(UNIT, GeneratorSpec(UNIT, 1, UNIT))
        for g in self.generators.values():
            if g.conj not in self.generators:
                raise UnknownGenerator(f"conjugate {g.conj!r} of {g.name!r}")
            partner = self.generators[g.conj]
            if partner.conj != g.name or partner.dim != g.dim:
                raise ShapeError(f"conjugation is not an involution at {g.name!r}")
        self.relations = []
        for r in relations:
            self.add_relation(r)

    def add_relation(self, r: Relation):
        if any(r.name == s.name for s in self.relations):
            raise DuplicateName(f"relation {r.name!r}")
        if r.matrix.nrows != self.word_dim(r.target_word) or \
           r.matrix.ncols != self.word_dim(r.source_word):
            raise ShapeError(
                f"relation {r.name!r}: matrix is "
                f"{r.matrix.nrows}x{r.matrix.ncols}, words need "
                f"{self.word_dim(r.target_word)}x{self.word_dim(r.source_word)}"
            )
        self.relations.append(r)

    def dim(self, name: str) -> int:
        if name not in self.generators:
            raise UnknownGenerator(name)
        return self.generators[name].dim

    def conj_name(self, name: str) -> str:
        if name not in self.generators:
            raise UnknownGenerator(name)
        return self.generators[name].conj

    def word_dims(self, word) -> tuple:
        return tuple(self.dim(a) for a in word)

    def word_dim(self, word) -> int:
        return prod(self.word_dims(word)) if word else 1

    def non_unit(self):
        return [n for n in self.generators if n != UNIT]

    def specializes_to(self, other: "Presentation", value) -> bool:
        """Whether other is this presentation with value put for t: the
        same generators, and the same relations in the same order, each with
        the same name and words and this one's matrix with value put in."""
        try:
            return (self.generators == other.generators
                    and len(self.relations) == len(other.relations)
                    and all((r.name, r.source_word, r.target_word)
                            == (s.name, s.source_word, s.target_word)
                            and r.matrix.subs(value) == s.matrix
                            for r, s in zip(self.relations, other.relations)))
        except EvaluationPole:
            return False


class CandidateR:
    """A family of candidate blocks R[a,b] indexed by generator pairs.

    Block (a, b) maps the (a, b) word space to the (b, a) word space.  Blocks
    with the unit in either slot are identities and need not be stored.
    """

    def __init__(self, p: Presentation, blocks, label: str = ""):
        self.presentation = p
        self.blocks = {}
        self.label = label
        for (a, b), m in blocks.items():
            da, db = p.dim(a), p.dim(b)
            if m.nrows != db * da or m.ncols != da * db:
                raise ShapeError(
                    f"block ({a},{b}) is {m.nrows}x{m.ncols}, needs "
                    f"{db * da}x{da * db}"
                )
            self.blocks[(a, b)] = m.with_legs((db, da), (da, db))

    def block(self, a: str, b: str) -> Tensor:
        p = self.presentation
        if a == UNIT:
            d = p.dim(b)
            return Tensor.identity((d,)).with_legs((d, 1), (1, d))
        if b == UNIT:
            d = p.dim(a)
            return Tensor.identity((d,)).with_legs((1, d), (d, 1))
        try:
            return self.blocks[(a, b)]
        except KeyError:
            raise MissingBlock(f"no block for pair ({a},{b})") from None

    def subs(self, value) -> "CandidateR":
        return CandidateR(
            self.presentation,
            {k: m.subs(value) for k, m in self.blocks.items()},
            label=self.label,
        )


class FunctionalHom:
    """Matrix-valued unital multiplicative functional on free words.

    `values` maps letters to size x size tensors; a word evaluates to the
    ordered product of its letter values and the empty word to the identity
    on the legs of the letter values.  Letters are arbitrary hashable keys;
    presentations use (generator, row, column) triples.  Each distinct value
    is numbered, from its key(), when it first appears (the identity is 0),
    and a word's number comes from its prefix's and its last letter's: each
    distinct pair of values is multiplied once, whichever words reach it,
    and a zero prefix extends with no product.  Equal numbers are equal
    values, and `value` returns the one tensor kept for a number.
    """

    def __init__(self, size: int, values, label: str = ""):
        self.size = size
        self.values = dict(values)
        self.label = label
        for k, v in self.values.items():
            if v.nrows != size or v.ncols != size:
                raise ShapeError(f"value for letter {k!r} is not {size}x{size}")
        legs = next(iter(self.values.values())).cod if self.values else (size,)
        self._numbers, self._tensors = {}, []  # key() -> number -> value
        self._number(Tensor.identity(legs))
        self._letters = {k: self._number(v) for k, v in self.values.items()}
        # (prefix number, letter number) -> the number of their product
        self._products = {(0, m): m for m in self._letters.values()}

    def _number(self, t: Tensor) -> int:
        n = self._numbers.setdefault(t.key(), len(self._tensors))
        if n == len(self._tensors):
            self._tensors.append(t)
        return n

    def number(self, word) -> int:
        """The number of the word's value."""
        n = 0
        for letter in word:
            m = self._letters.get(letter)
            if m is None:
                raise MissingRep(f"no value for letter {letter!r}")
            if (n, m) not in self._products:
                t = self._tensors[n]
                self._products[n, m] = (n if t.is_zero() else
                                        self._number(t @ self._tensors[m]))
            n = self._products[n, m]
        return n

    def value(self, word) -> Tensor:
        return self._tensors[self.number(word)]

    def value_free(self, element) -> Tensor:
        """Evaluate a free element {word: coefficient}."""
        unit = self._tensors[0]
        out = Tensor.zeros(unit.cod, unit.dom)
        for word, coef in element.items():
            if coef.num:
                out = out + self.value(word) * coef
        return out


# ---------------------------------------------------------------------------
# Bounded intertwiner saturation.
# ---------------------------------------------------------------------------

class Saturation:
    """Intertwiners between bounded words, closed round by round.

    The construction stores the relation matrices and their identity
    paddings id (x) A (x) id.  The rounds follow, each one layer of pairwise
    compositions and tensor products that touch the frontier (the elements
    the previous round added), then the paddings of what the round kept.
    The construction and each round are resumable: they run as one
    generator that can stop after any element it stores and goes on from
    there at the next query.  Its loops run in a fixed order over the state
    at the start of the construction or round, so every state is a prefix
    of one fixed sequence of stored elements, whichever queries asked for
    them and wherever they stopped.  `reached` counts the rounds started;
    it is 0 during the construction.

    `contains` runs the rounds on demand and meets them in the middle: it
    stops at the first element stored at the queried (src, dst) that
    witnesses the matrix, at the first composite b . a of stored elements a:
    src -> m and b: m -> dst that does, or after `depth` rounds.  It forms
    those composites, with the elements stored at (src, dst), in a private
    span, only while `reached` < `depth`, and only at a key the rounds store
    at: one end of at most max_end_len letters (an aimed saturation answers
    only for its goal, which every round's aim passes).  Every stored
    element was stored by round `reached`, and at every such key the rounds
    compose every pair of stored elements, one of which the last round
    stored.  So the eager saturation forms each of these composites by round
    `reached` + 1 <= `depth`, and either stores it or finds it already in
    the span: the private span lies inside the eager one at `depth`.  In the
    last round a composite would be a product of round `depth` + 1, and none
    is formed.  The saturation stores none of them, so every state is still
    a prefix of the one fixed sequence.

    `basis` and `saturate` run every round to `depth`.  Storing an element
    only adds to the witnessed span of its Mor(src, dst), so a matrix
    witnessed at any state is witnessed by the eager saturation too, and one
    not witnessed after `depth` rounds is not witnessed by it either: every
    verdict is the eager verdict, and every later `basis` the eager basis.
    A witness is a proof; its absence proves nothing.

    `basis` may take an upper bound on the dimension of the span witnessed
    at `depth`: `cqt.mor_bound`, a bound on dim Mor(src, dst), or at a
    specialized t the bound of the generic datum (see the cqt module).  Its
    rounds then stop at the first element stored at (src, dst) that brings
    the span, the identity on a word counted, to the bound.  The span is
    then the one at `depth`: every later element formed at the key lies in
    it and would not be stored, so the basis is the one at `depth`, element
    for element.  A bound that the span never reaches lets every round run;
    one below the dimension already witnessed is an error.

    Identity morphisms on every word are present implicitly and are not
    stored; `elements` holds only the interesting finds.

    The one bound is max_end_len.  Words have at most max_len =
    max_end_len + 2 letters and MAX_SPACE total dimension.  Products whose
    source AND target both exceed max_end_len letters are not stored
    (identity paddings are always kept as connectors): a chain between
    short words refolds through short-ended partial products, so this keeps
    the search useful for the short spaces the checks consume while
    avoiding the large interior spaces.  The pads, `words`, come in order
    of length.

    A round forms each product of two frontier elements once, at the first
    place the order of the loops reaches it; the second copy would be an
    exact duplicate.  It forms the tensor product A (x) B, for A: s1 -> d1
    and B: s2 -> d2, only when s1 s2 and d1 d2 have at most max_len letters
    and no padding route reaches it; the loop visits, in order, only the
    right keys that fit the room a left key leaves.  By the interchange law
    A (x) B = (A (x) 1_d2) . (1_s1 (x) B) = (1_d1 (x) B) . (A (x) 1_s2),
    through the middle word s1 d2 or d1 s2.
    A route lies inside the bounds the paddings obey when its middle word is
    within MAX_SPACE and each padding, the padded element's longer end plus
    the pad, is within max_len.  Then both paddings were witnessed before
    the round began, every pair of stored elements is composed by the end
    of the round's compositions, and the composite has the key
    (s1 s2, d1 d2), which passes the max_end_len test exactly when the
    product does.  So A (x) B is witnessed before the product would be
    formed, and skipping it changes no stored element.  Neither route need
    fit: for generators a (dim 3), h (dim 1), g (dim 200), relations
    A: a -> h h and B: h h h h -> g, and max_end_len 3 (max_len 5), the route
    through a g needs 600 dimensions and the one through h^6 needs 6
    letters, and only the tensor product witnesses A (x) B.

    A saturation made with a `goal` (src, dst) answers only for Mor(src,
    dst): `basis` or `contains` for any other key raises, and what it
    stores at other keys is partial.  The construction and every round but
    the last two add to every key.  With `left` the rounds still to run
    after the current one, the last two add to a key (s, d) only when
      left == 0: (s, d) is the goal or pads into it: pre s post is the
                 goal's src and pre d post its dst, one pre and one post
                 on both sides;
      left == 1: s is a contiguous factor of the goal's src, or d one of
                 the goal's dst.
    A skipped composition, tensor product or padding forms no matrix, and
    the goal's elements are those of the unaimed saturation, in the same
    order.  A last-round element of the goal is formed at the goal, or is
    the padding of one formed at a key that pads into it; a composition or
    tensor product landing at such a key has factors whose src or dst is a
    factor of the goal's, which the round before kept.  Both kept sets are
    closed under unpadding, so no kept key loses a padding or a `kron`
    part.  Dropping whole keys keeps the relative order of the `front` and
    `place` loops, and the duplicate screen and the span are per key, so
    every kept key meets the same products, in the same order, as without
    a goal.  The round before the last must keep every factor, not only
    the goal's own words: for generators a (dim 2), h (dim 2), g (dim 300)
    and relations A: a -> g, B: g -> g, C: g -> a, Mor(a h, a h) at depth 2
    needs C . A in Mor(a, a) from round 1, and no padding route through
    g h (600 dimensions) fits.
    """

    def __init__(self, p: Presentation, depth: int, max_end_len: int = 2,
                 goal=None):
        self.presentation = p
        self.depth = depth
        self.max_end_len = max_end_len
        self.max_len = max_len = max_end_len + 2
        self.goal = None if goal is None else tuple(map(tuple, goal))
        self.elements = {}  # (src, dst) -> list of Tensor
        self.spans = {}     # (src, dst) -> SpanBasis
        self._seen = set()  # exact-duplicate screen, cheaper than elimination
        self.words = [()]   # every word within the bounds: the paddings
        layer, alphabet = [()], p.non_unit()
        for _ in range(max_len):
            layer = [w + (a,) for w in layer for a in alphabet
                     if p.word_dim(w + (a,)) <= MAX_SPACE]
            self.words.extend(layer)
        self.reached = 0    # rounds started; 0 is the construction
        # the rounds hold the saturation weakly: a strong reference would be
        # a cycle, which only the cyclic collector frees
        self._rounds = _rounds(weakref.proxy(self))

    def add(self, src, dst, t: Tensor) -> bool:
        if t.is_zero():
            return False
        key = (tuple(src), tuple(dst))
        seen_key = (key, t.key())
        if seen_key in self._seen:
            return False
        self._seen.add(seen_key)
        if key not in self.spans:
            self.spans[key] = self._span(key)
            self.elements[key] = []
        if self.spans[key].add(t):
            self.elements[key].append(t)
            return True
        return False

    def complete(self) -> "Saturation":
        """Run every remaining round up to `depth`."""
        for _ in self._rounds:
            pass
        return self

    def basis(self, src, dst, bound):
        """Basis of the span witnessed at `depth`, including the identity on
        a word.  Given `bound` (not None), an upper bound on that span's
        dimension, the rounds stop once the span reaches it (see the class
        docstring)."""
        src, dst = key = self._query(src, dst)
        dim = self._dim(key)
        if bound is not None and dim > bound:
            raise ValueError(f"bound {bound} on Mor{key} is below its "
                             f"witnessed dimension {dim}")
        if dim != bound:
            for got in self._rounds:
                if got == key and self._dim(key) == bound:
                    break
        out = list(self.elements.get(key, ()))
        if src == dst:
            out.insert(0, Tensor.identity(self.presentation.word_dims(src)))
        return out

    def contains(self, src, dst, t: Tensor) -> bool:
        """Whether t is witnessed in Mor(src, dst), running the rounds only
        until it is.

        The test runs against a private copy of the key's span, which takes
        the elements stored at (src, dst) as they come.  While `reached` <
        `depth`, at a key the rounds store at, it also takes the composites
        b . a of stored a: src -> m and b: m -> dst: all of them when the
        query starts, then those with each element stored at (src, m) or
        (m, dst).  The rounds form each of them by round `reached` + 1, so
        a witness in the copy is one at `depth` (see the class docstring).
        """
        src, dst = key = self._query(src, dst)
        span = self.spans.get(key)
        private = span.copy() if span else self._span(key)
        ahead = min(len(src), len(dst)) <= self.max_end_len

        def witnessed(found):
            return any(private.add(m) and private.contains(t) for m in found)

        if private.contains(t) or (ahead and self.reached < self.depth
                                   and witnessed(self._composites(key))):
            return True
        for got in self._rounds:
            if got[0] != src and got[1] != dst:
                continue
            new = self.elements[got][-1]
            if got == key and witnessed((new,)):
                return True
            if (ahead and self.reached < self.depth
                    and witnessed(self._composites(key, got, new))):
                return True
        return False

    def _query(self, src, dst):
        """The key (src, dst) as tuples; a saturation aimed at a goal
        refuses any other."""
        key = (tuple(src), tuple(dst))
        if self.goal is not None and key != self.goal:
            raise ValueError(f"a saturation aimed at Mor{self.goal} cannot "
                             f"answer for Mor{key}")
        return key

    def _dim(self, key) -> int:
        """Dimension of the span witnessed at key, the identity included."""
        span = self.spans.get(key)
        return span.dim() if span else int(key[0] == key[1])

    def _span(self, key) -> SpanBasis:
        """A new span for Mor(key), holding the identity on a word."""
        (src, dst), p = key, self.presentation
        span = SpanBasis(p.word_dim(src) * p.word_dim(dst))
        if src == dst:
            span.add(Tensor.identity(p.word_dims(src)))
        return span

    def _composites(self, key, got=None, new=None):
        """The composites b . a of stored a: src -> m and b: m -> dst, for
        key (src, dst): all of them, or those with `new`, the element just
        stored at `got`, as a or b."""
        (src, dst), items = key, self.elements
        if got is None:
            for (s, m), firsts in items.items():
                if s == src:
                    for b in items.get((m, dst), ()):
                        for a in firsts:
                            yield b @ a
            return
        if got[0] == src:
            for b in items.get((got[1], dst), ()):
                yield b @ new
        if got[1] == dst:
            for a in items.get((src, got[0]), ()):
                yield new @ a

    def _aim(self):
        """The test (src, dst) -> bool a key passes to be added in this
        round, or None when every key may be."""
        left = self.depth - self.reached
        if self.goal is None or left > 1:
            return None
        gsrc, gdst = self.goal
        if left == 0:
            n = min(len(gsrc), len(gdst))
            into = {(gsrc[i:len(gsrc) - j], gdst[i:len(gdst) - j])
                    for i in range(n + 1) for j in range(n + 1 - i)
                    if gsrc[:i] == gdst[:i]
                    and gsrc[len(gsrc) - j:] == gdst[len(gdst) - j:]}
            return lambda src, dst: (src, dst) in into
        src_parts, dst_parts = _factors(gsrc), _factors(gdst)
        return lambda src, dst: src in src_parts or dst in dst_parts

    def _padding_route(self, s1, d1, s2, d2) -> bool:
        """Whether A (x) B, for A: s1 -> d1 and B: s2 -> d2, is a composite of
        two paddings inside the bounds: B padded by pre on the left and A by
        post on the right, through the middle word pre + post."""
        m1, m2 = max(len(s1), len(d1)), max(len(s2), len(d2))
        return any(len(pre) + m2 <= self.max_len
                   and len(post) + m1 <= self.max_len
                   and self.presentation.word_dim(pre + post) <= MAX_SPACE
                   for pre, post in ((s1, d2), (d1, s2)))


def _rounds(sat: Saturation):
    """The construction of `sat` and then its rounds, run lazily: the
    relations and their paddings first, then each round from the frontier
    `front` (the last round's elements per (src, dst)).  Yield the key of
    each element that `sat.add` keeps.  The saturation holds this
    generator, so `sat` is a weak proxy of it."""
    p, fresh = sat.presentation, []

    def keep(src, dst, t):
        if sat.add(src, dst, t):
            fresh.append((src, dst, t))
            return True
        return False

    for r in p.relations:
        src, dst = tuple(r.source_word), tuple(r.target_word)
        if (len(src) <= sat.max_len and len(dst) <= sat.max_len
                and keep(src, dst, r.matrix)):
            yield src, dst
    for src, dst, t in _paddings(sat, fresh[:]):
        if sat.add(src, dst, t):
            yield src, dst
    front = {k: list(v) for k, v in sat.elements.items()}
    while sat.reached < sat.depth and front:
        sat.reached += 1
        fresh, aim = [], sat._aim()

        def wanted(src, dst):
            return (min(len(src), len(dst)) <= sat.max_end_len
                    and (aim is None or aim(src, dst)))

        def older(key, items):
            return items[:len(items) - len(front.get(key, ()))]

        stored = [(k, list(v)) for k, v in sat.elements.items()]
        by_src, by_dst = {}, {}
        for (src, dst), items in stored:
            by_src.setdefault(src, []).append((dst, items))
            by_dst.setdefault(dst, []).append((src, items))
        place = {k: i for i, k in enumerate(front)}
        # compositions touching the frontier; identity factors are redundant.
        # Frontier b . frontier a is formed in the first loop at a's key or
        # in the second at b's, whichever place comes first.
        for i, ((src, dst), items) in enumerate(front.items()):
            for dst2, items2 in by_src.get(dst, ()):
                if wanted(src, dst2):
                    if place.get((dst, dst2), i) < i:
                        items2 = older((dst, dst2), items2)
                    for a in items:
                        for b in items2:
                            if keep(src, dst2, b @ a):
                                yield src, dst2
            for src0, items0 in by_dst.get(src, ()):
                if wanted(src0, dst):
                    if place.get((src0, src), i + 1) <= i:
                        items0 = older((src0, src), items0)
                    for a in items0:
                        for b in items:
                            if keep(src0, dst, b @ a):
                                yield src0, dst
        # tensor products touching the frontier that no padding route
        # reaches; tensors with identities are the paddings, already taken
        front_items = list(front.items())
        for left, right in ((front_items, stored), (stored, front_items)):
            fits = {}  # (room in src, room in dst) -> the right keys, in order
            for (s1, d1), items1 in left:
                if left is stored:  # frontier (x) frontier came first
                    items1 = older((s1, d1), items1)
                room = (sat.max_len - len(s1), sat.max_len - len(d1))
                if room not in fits:
                    fits[room] = [e for e in right if len(e[0][0]) <= room[0]
                                  and len(e[0][1]) <= room[1]]
                for (s2, d2), items2 in fits[room]:
                    nsrc, ndst = s1 + s2, d1 + d2
                    if (not wanted(nsrc, ndst)
                            or p.word_dim(nsrc) > MAX_SPACE
                            or p.word_dim(ndst) > MAX_SPACE
                            or sat._padding_route(s1, d1, s2, d2)):
                        continue
                    for a in items1:
                        for b in items2:
                            if keep(nsrc, ndst, kron(a, b)):
                                yield nsrc, ndst
        for src, dst, t in _paddings(sat, fresh[:], aim):
            if keep(src, dst, t):
                yield src, dst
        front = {}
        for src, dst, t in fresh:
            front.setdefault((src, dst), []).append(t)


def _paddings(sat: Saturation, queue, aim=None):
    """Yield (src, dst, t) for every identity padding of the queued
    elements inside the bounds of `sat` whose key passes `aim`, if given."""
    p, words, max_len = sat.presentation, sat.words, sat.max_len
    for src, dst, t in queue:
        span = max(len(src), len(dst))
        for pre in words:  # in order of length
            if len(pre) + span > max_len:
                break
            for post in words:
                if len(pre) + len(post) + span > max_len:
                    break
                if not pre and not post:
                    continue
                nsrc, ndst = pre + src + post, pre + dst + post
                if aim is not None and not aim(nsrc, ndst):
                    continue
                if (p.word_dim(nsrc) > MAX_SPACE
                        or p.word_dim(ndst) > MAX_SPACE):
                    continue
                yield nsrc, ndst, pad_with_identity(t, p.word_dims(pre),
                                                    p.word_dims(post))


def _factors(word) -> set:
    """Every contiguous factor of a word, the empty one included."""
    return {word[i:j] for i in range(len(word) + 1)
            for j in range(i, len(word) + 1)}


def saturate(p: Presentation, depth: int, max_end_len: int) -> Saturation:
    """The saturation with all `depth` rounds run, for callers that read
    whole bases of any space; `mor` aims one at its space, and the checks
    query a lazy `Saturation` instead.  See `Saturation` for the one bound,
    max_end_len, the `kron` restriction and why a lazy verdict is the eager
    one."""
    return Saturation(p, depth, max_end_len).complete()


def mor_saturate(p: Presentation, src, dst, depth: int, bound) -> list:
    """Basis of the witnessed span of Mor(src, dst), from a saturation
    aimed at it: element for element, in order, the basis that `saturate`
    reads at max_end_len the longer of src, dst and 2.  The rounds stop
    once the span reaches `bound` unless it is None, an upper bound on the
    span at `depth`: one on dim Mor(src, dst), or at a specialized t the
    generic datum's (see the cqt module).  That changes no element of the
    basis.  See `Saturation` for why."""
    check_mor_words(p, src, dst)
    return Saturation(p, depth, max(len(src), len(dst), 2),
                      goal=(src, dst)).basis(src, dst, bound)


def check_mor_words(p: Presentation, src, dst):
    """Raise UnknownGenerator at the first letter of src, dst that p lacks."""
    for name in (*src, *dst):
        if name not in p.generators:
            raise UnknownGenerator(f"{name!r} in a Mor word; generators: "
                                   f"{', '.join(p.non_unit())}")
