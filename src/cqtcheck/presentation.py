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
* mor_saturate -- a bounded search producing certified elements of the
  intertwiner spaces Mor(source, target) generated by the relation matrices
  and identities under composition and tensoring.  Its output is a lower
  bound for the true space: "witnessed" membership is a proof, absence of a
  witness at a given depth proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import DuplicateName, MissingBlock, MissingRep, ShapeError, UnknownGenerator
from .scalars import ConjMode
from .tensor import SpanBasis, Tensor, kron, pad_with_identity

UNIT = "1"


@dataclass(frozen=True)
class GeneratorSpec:
    name: str
    dim: int
    conj: str  # name of the conjugate generator; may equal name


@dataclass(frozen=True)
class Relation:
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


def conj_relation(p: Presentation, r: Relation, mode: ConjMode) -> Relation:
    """The conjugate relation between the reversed conjugate words.

    Entries are index-reversed complex conjugates of the original matrix:
    conj(W)[reversed I, reversed J] = conj(W[I, J]).
    """
    src = tuple(p.conj_name(a) for a in reversed(r.source_word))
    tgt = tuple(p.conj_name(a) for a in reversed(r.target_word))
    nt, ns = len(r.target_word), len(r.source_word)
    m = r.matrix.with_legs(p.word_dims(r.target_word), p.word_dims(r.source_word))
    m = m.slice_legs(reversed(range(nt)), reversed(range(nt, nt + ns)))
    name = r.name[:-1] if r.name.endswith("~") else r.name + "~"
    return Relation(name, m.conjugate(mode), src, tgt)


class CandidateR:
    """A family of candidate blocks R[a,b] indexed by generator pairs.

    Block (a, b) maps the (a, b) word space to the (b, a) word space.  Blocks
    with the unit in either slot are identities and need not be stored.
    Pairs listed in `trusted` are accepted as intertwiners by fiat when no
    saturation witness is found.
    """

    def __init__(self, p: Presentation, blocks, trusted=(), label: str = ""):
        self.presentation = p
        self.blocks = {}
        self.trusted = set(trusted)
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
            trusted=self.trusted,
            label=self.label,
        )

    def key(self):
        return tuple(sorted((k, m.key()) for k, m in self.blocks.items()))


class FunctionalHom:
    """Matrix-valued unital multiplicative functional on free words.

    `values` maps letters to size x size tensors; a word evaluates to the
    ordered product of its letter values and the empty word to the identity.
    Letters are arbitrary hashable keys; presentations use (generator, row,
    column) triples.
    """

    def __init__(self, size: int, values, label: str = ""):
        self.size = size
        self.values = dict(values)
        self.label = label
        self._cache = {(): Tensor.identity((size,))}
        for k, v in self.values.items():
            if v.nrows != size or v.ncols != size:
                raise ShapeError(f"value for letter {k!r} is not {size}x{size}")

    def value(self, word) -> Tensor:
        word = tuple(word)
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        try:
            out = self.value(word[:-1]) @ self.values[word[-1]]
        except KeyError:
            raise MissingRep(f"no value for letter {word[-1]!r}") from None
        self._cache[word] = out
        return out

    def value_free(self, element) -> Tensor:
        """Evaluate a free element {word: coefficient}."""
        out = Tensor.zeros((self.size,), (self.size,))
        for word, coef in element.items():
            if coef.num:
                out = out + self.value(word) * coef
        return out


# ---------------------------------------------------------------------------
# Bounded intertwiner saturation.
# ---------------------------------------------------------------------------

class Saturation:
    """All intertwiners found between bounded words, with span bookkeeping.

    Identity morphisms on every word are present implicitly and are not
    stored; `elements` holds only the interesting finds.
    """

    def __init__(self, p: Presentation, depth: int, max_len: int):
        self.presentation = p
        self.depth = depth
        self.max_len = max_len
        self.elements = {}  # (src, dst) -> list of Tensor
        self.spans = {}     # (src, dst) -> SpanBasis
        self._seen = set()  # exact-duplicate screen, cheaper than elimination

    def add(self, src, dst, t: Tensor) -> bool:
        if t.is_zero():
            return False
        key = (tuple(src), tuple(dst))
        seen_key = (key, t.key())
        if seen_key in self._seen:
            return False
        self._seen.add(seen_key)
        if key not in self.spans:
            span = SpanBasis(t.nrows * t.ncols)
            if src == dst:
                span.add(Tensor.identity(self.presentation.word_dims(src)))
            self.spans[key] = span
            self.elements[key] = []
        if self.spans[key].add(t):
            self.elements[key].append(t)
            return True
        return False

    def basis(self, src, dst):
        """Basis of the witnessed span, including the identity on a word."""
        src, dst = tuple(src), tuple(dst)
        out = list(self.elements.get((src, dst), ()))
        if src == dst:
            out.insert(0, Tensor.identity(self.presentation.word_dims(src)))
        return out

    def contains(self, src, dst, t: Tensor) -> bool:
        src, dst = tuple(src), tuple(dst)
        span = self.spans.get((src, dst))
        if span is None:
            if src == dst:
                return _is_scalar_multiple_of_identity(t)
            return t.is_zero()
        return span.contains(t)


def _is_scalar_multiple_of_identity(t: Tensor) -> bool:
    return t.nrows == t.ncols and t == Tensor.identity((t.nrows,)) * t[0, 0]


def saturate(p: Presentation, depth: int = 3, max_len: int = 4,
             max_space: int = 400, max_end_len: int = 2) -> Saturation:
    """Close relations and identities under composition and tensoring.

    Words are bounded by max_len letters and max_space total dimension.
    Identity paddings (id (x) A (x) id) are free and taken eagerly; each
    depth round performs one layer of pairwise compositions and tensor
    products over everything found so far, so the witnessed span grows
    monotonically with depth.

    Products whose source AND target both exceed max_end_len letters are
    not stored (identity paddings are always kept as connectors): a chain
    between short words refolds through short-ended partial products, so
    this keeps the search useful for the short spaces the checks consume
    while avoiding the large interior spaces.  Pass max_end_len=max_len to
    disable the pruning.
    """
    sat = Saturation(p, depth, max_len)
    alphabet = p.non_unit()

    def wanted(src, dst):
        return min(len(src), len(dst)) <= max_end_len

    words = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (a,) for w in frontier for a in alphabet
                    if p.word_dim(w + (a,)) <= max_space]
        words.extend(frontier)

    pending = []
    for r in p.relations:
        if len(r.source_word) <= max_len and len(r.target_word) <= max_len:
            if sat.add(r.source_word, r.target_word, r.matrix):
                pending.append((r.source_word, r.target_word, r.matrix))

    def pad_closure(queue):
        """Add all identity paddings of the queued elements; return the new ones."""
        added = []
        for src, dst, t in queue:
            span = max(len(src), len(dst))
            for pre in words:
                if len(pre) + span > max_len:
                    continue
                for post in words:
                    if len(pre) + len(post) + span > max_len:
                        continue
                    if not pre and not post:
                        continue
                    nsrc, ndst = pre + src + post, pre + dst + post
                    if (p.word_dim(nsrc) > max_space
                            or p.word_dim(ndst) > max_space):
                        continue
                    padded = pad_with_identity(t, p.word_dims(pre),
                                               p.word_dims(post))
                    if sat.add(nsrc, ndst, padded):
                        added.append((nsrc, ndst, padded))
        return added

    pad_closure(list(pending))
    # frontier = everything the last round produced (plus its pads); pairs of
    # strictly older elements were already combined in an earlier round
    frontier = {k: list(v) for k, v in sat.elements.items()}
    for _ in range(depth):
        fresh = []

        def register(src, dst, t):
            if sat.add(src, dst, t):
                fresh.append((src, dst, t))

        all_items = [(k, list(v)) for k, v in sat.elements.items()]
        front_items = [(k, list(v)) for k, v in frontier.items()]
        by_src = {}
        for (src, dst), items in all_items:
            by_src.setdefault(src, []).append((dst, items))
        by_dst = {}
        for (src, dst), items in all_items:
            by_dst.setdefault(dst, []).append((src, items))
        # compositions touching the frontier; identity factors are redundant
        for (src, dst), items in front_items:
            for (dst2, items2) in by_src.get(dst, ()):
                if not wanted(src, dst2):
                    continue
                for a in items:
                    for b in items2:
                        register(src, dst2, b @ a)
            for (src0, items0) in by_dst.get(src, ()):
                if not wanted(src0, dst):
                    continue
                for a in items0:
                    for b in items:
                        register(src0, dst, b @ a)
        # tensor products touching the frontier; tensors with identities are
        # exactly the paddings and were already taken
        for left_first in (True, False):
            pairs = (front_items, all_items) if left_first else (all_items, front_items)
            for (s1, d1), items1 in pairs[0]:
                for (s2, d2), items2 in pairs[1]:
                    if (len(s1) + len(s2) > max_len
                            or len(d1) + len(d2) > max_len):
                        continue
                    nsrc, ndst = s1 + s2, d1 + d2
                    if not wanted(nsrc, ndst):
                        continue
                    if (p.word_dim(nsrc) > max_space
                            or p.word_dim(ndst) > max_space):
                        continue
                    for a in items1:
                        for b in items2:
                            register(nsrc, ndst, kron(a, b))
        if not fresh:
            break
        fresh.extend(pad_closure(list(fresh)))
        frontier = {}
        for src, dst, t in fresh:
            frontier.setdefault((tuple(src), tuple(dst)), []).append(t)
    return sat


def mor_saturate(p: Presentation, src, dst, depth: int = 3,
                 max_len: int = None) -> list:
    """Basis of the witnessed span of Mor(src, dst); see `saturate`."""
    for name in (*src, *dst):
        if name not in p.generators:
            raise UnknownGenerator(f"{name!r} in a Mor word; generators: "
                                   f"{', '.join(p.non_unit())}")
    if max_len is None:
        max_len = max(len(src), len(dst), 2) + 2
    sat = saturate(p, depth=depth, max_len=max_len,
                   max_end_len=max(len(src), len(dst), 2))
    return sat.basis(src, dst)
