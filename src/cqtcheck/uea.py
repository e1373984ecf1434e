"""Functionals on the inhomogeneous algebra and their exchange relations.

Free words are built from the letters Lam[a,b] (matrix entries of the
vector representation) and y[a] (translations); the coproduct acts by

    split Lam[a,b] = sum_k Lam[a,k] (x) Lam[k,b]
    split y[a]     = sum_j Lam[a,j] (x) y[j]  +  y[a] (x) 1

with counit delta_ab on Lam and 0 on y.  Two matrix-valued unital
homomorphisms are evaluated on such words:

* l, sliced from the extended exchange matrix: l(Lam[a,b])[j,u] =
  R_Q[(j,a),(b,u)] and l(y[a])[j,u] = R_Q[(j,a),(+,u)], so its blocks on
  the vector range are R- and Z-slices, its last column is the column
  s = (R-1)T + c m, and its bottom row is the counit;
* X, the antipode-twisted functional with X(Lam[a,b])[i,k] = R[(a,k),(i,b)]
  and X(y[u])[i,+] = delta_iu over the same bottom row.

The exchange relation for l is checked both as a single matrix identity
over the extended index space and, independently, in the four block forms
that use R, Z, R.Z and s separately; the two code paths must agree, and
the block form that is a consequence of two others is asserted to be
implied rather than assumed.  All identities are evaluated on every free
word up to a configurable length (`--max-len`); that is exact on those words
and a truncation of the full functional identity, and reported as such.

Where the datum's invariant column enters, checks run at its
`coefficient_points`, enough to decide each identity for every
coefficient c.  c enters l only in its last column (through s) and the
bottom row of l is the counit, so a product of letter values stays affine
in c: l(word) has degree at most 1, and the convolution matrix B(word),
the sum of kron(l(u), l(v)) over the coproduct splits of the word, at
most 2.  So the rll defects (B against R_Q) are at most cubic and four
points decide them, the pairing values (B on a c-free column) are at most
quadratic and three points decide them, and the ideal values (l on a free
element) are affine and two points decide them.

Each distinct defect is decided once.  At one coefficient point the rll
defects of a word read only B(word), l(word) and eps(word) (R_Q, the R and
Z slices and s are fixed per point), the xkx defects only B(word), and the
pairing defects only B(word) and eps(word).  The functionals number their
values (`FunctionalHom.number`), so a check keys each word on the numbers
and eps it reads: each key is decided once per point, and each class of
words with one key and length is fed once, under its first word and with
its word count.  Equal numbers are equal values, so witnesses, first
failures and evaluation counts are those of a word-by-word loop.
"""

from __future__ import annotations

from . import cqt
from .errors import ShapeError
from .inhomogeneous import (InhomDatum, build_mP, build_RQ,
                            coefficient_points, corner_frame)
from .presentation import FunctionalHom
from .scalars import ONE, Scalar, ZERO
from .tensor import SpanBasis, Tensor, flip, kron


def lam(a: int, b: int):
    return ("Lam", a, b)


def y(a: int):
    return ("y", a)


class CoproductTable:
    """Letter-level coproduct and counit for the inhomogeneous letters."""

    def __init__(self, N: int):
        self.N = N

    def splits(self, letter):
        """(left letter or None, right letter or None) pairs of the coproduct."""
        kind = letter[0]
        if kind == "Lam":
            _, a, b = letter
            return [(lam(a, k), lam(k, b)) for k in range(self.N)]
        if kind == "y":
            _, a = letter
            return [(lam(a, j), y(j)) for j in range(self.N)] + [(y(a), None)]
        raise ShapeError(f"unknown letter {letter!r}")

    def counit(self, letter) -> Scalar:
        if letter[0] == "Lam":
            return ONE if letter[1] == letter[2] else ZERO
        return ZERO

    def counit_word(self, word) -> Scalar:
        # every letter's counit is ONE or ZERO
        return ONE if all(self.counit(x) is ONE for x in word) else ZERO

    def letters(self):
        return ([lam(a, b) for a in range(self.N) for b in range(self.N)]
                + [y(a) for a in range(self.N)])


def _samples(d: InhomDatum, n: int):
    """(coefficient, label suffix) at the datum's n coefficient points."""
    points = coefficient_points(d, n)
    return [(c, f" at coefficient {c}" if len(points) > 1 else "")
            for c in points]


def build_l(d: InhomDatum, c: Scalar) -> FunctionalHom:
    """The exchange functional sliced from R_Q at one coefficient value."""
    rq = build_RQ(d, c)
    N = d.N
    P = N + 1
    values = {}
    for a in range(N):
        for b in range(N):
            values[lam(a, b)] = rq.slice_legs((0,), (3,), {1: a, 2: b})
        values[y(a)] = rq.slice_legs((0,), (3,), {1: a, 2: N})
    return FunctionalHom(P, values, label="l")


def build_X(d: InhomDatum) -> FunctionalHom:
    """The antipode-twisted functional; independent of the invariant.

    X(Lam[a,b]) is the (b, a) slice of K; X(y[a]) is the a slice of Y,
    with Y[i,(a,k)] = Z[(a,k),i] and Y[a,(a,+)] = 1.
    """
    N = d.N
    P = (N + 1,)
    K = build_K(d)
    Y = (d.Z.place_legs(P, P + P, (1, 2, 0))
         + Tensor.identity((N,)).place_legs(P, P + P, (0, 1), {2: N}))
    values = {}
    for a in range(N):
        for b in range(N):
            values[lam(a, b)] = K.slice_legs((0,), (3,), {1: b, 2: a})
        values[y(a)] = Y.slice_legs((0,), (2,), {1: a})
    return FunctionalHom(N + 1, values, label="X")


def convolve(h1: FunctionalHom, ij, h2: FunctionalHom, kl, element,
             cop: CoproductTable) -> Scalar:
    """((i,j) entry of h1 * (k,l) entry of h2) evaluated on a free element."""
    from itertools import product as iproduct
    total = ZERO
    for word, coef in element.items():
        if not coef.num:
            continue
        acc = ZERO
        for split in iproduct(*(cop.splits(letter) for letter in word)):
            uword = tuple(u for u, _ in split if u is not None)
            vword = tuple(v for _, v in split if v is not None)
            a = h1.value(uword)[ij[0], ij[1]]
            if not a.num:
                continue
            b = h2.value(vword)[kl[0], kl[1]]
            if b.num:
                acc = acc + a * b
        total = total + coef * acc
    return total


class ConvTable(FunctionalHom):
    """Convolution matrices B(word) = (h (x) h)(split of word).

    B is the functional whose letter values are the coproduct splits of h,
    and B(word)[(x,y),(u,v)] is the convolution of the (x,u) and (y,v)
    entries of h on the word.
    """

    def __init__(self, h: FunctionalHom, cop: CoproductTable):
        ident = Tensor.identity((h.size,))  # the value of a None side
        zero = Tensor.zeros((h.size, h.size), (h.size, h.size))
        values = {letter: sum((kron(h.values.get(u, ident), h.values.get(v, ident))
                               for u, v in cop.splits(letter)), zero)
                  for letter in cop.letters()}
        super().__init__(h.size * h.size, values)

    def value(self, word) -> Tensor:
        # kept on the class by name, so tracers can hook the table's calls
        return super().value(word)


class Functionals:
    """The functionals of one datum and their convolution tables.

    hom(c) is l at coefficient c and hom(None) is X; conv(c) is the
    ConvTable of hom(c).  Each is built on first use and then shared, so
    the checks of one uea_suite run build every (functional, coefficient)
    table once; the tables go when the object does.
    """

    def __init__(self, d: InhomDatum):
        self.d = d
        self.cop = CoproductTable(d.N)
        self._homs, self._convs = {}, {}

    def hom(self, c: Scalar = None) -> FunctionalHom:
        if c not in self._homs:
            self._homs[c] = build_X(self.d) if c is None else build_l(self.d, c)
        return self._homs[c]

    def conv(self, c: Scalar = None) -> ConvTable:
        if c not in self._convs:
            self._convs[c] = ConvTable(self.hom(c), self.cop)
        return self._convs[c]


def _words(cop: CoproductTable, max_len: int):
    letters = cop.letters()
    out = []
    layer = [()]
    for _ in range(max_len):
        layer = [w + (l,) for w in layer for l in letters]
        out.extend(layer)
    return out


def _word_label(word) -> str:
    return ".".join(f"Lam{x[1]}{x[2]}" if x[0] == "Lam" else f"y{x[1]}"
                    for x in word) or "1"


def _sector(B: Tensor, N: int, first_plus: bool, second_plus: bool) -> Tensor:
    """Columns of B restricted to a sector, rows kept on the vector range.

    The flags choose, for each slot of the column pair, the translation
    index (True) or the vector range (False).
    """
    cod = ((0, N), (1, N))
    dom = tuple((leg, N) for leg, plus in ((2, first_plus), (3, second_plus))
                if not plus)
    fix = {leg: N for leg, plus in ((2, first_plus), (3, second_plus)) if plus}
    return B.slice_legs(cod, dom, fix)


class _Merge:
    """First-failure aggregation of one defect family into a report.

    An evaluation of item is named name(item) + suffix, only on a first
    failure.
    """

    def __init__(self, name=_word_label):
        self.name = name
        self.slots = {}

    def feed(self, cid: str, item, suffix: str, defect: Tensor, count: int = 1):
        slot = self.slots.setdefault(cid, {"fail": None, "checked": 0})
        slot["checked"] += count
        if slot["fail"] is None:
            fz = defect.first_nonzero()
            if fz is not None:
                slot["fail"] = (self.name(item) + suffix, fz)

    def get(self, cid):
        return self.slots.get(cid)

    def reports(self):
        out = []
        for cid in sorted(self.slots):
            data = self.slots[cid]
            if data["fail"] is None:
                out.append(cqt.CheckReport(cid, "pass", None,
                                           f"{data['checked']} evaluations"))
            else:
                label, fz = data["fail"]
                out.append(cqt.CheckReport(cid, "fail", fz,
                                           f"first failure on {label}"))
        return out


def _feed_classes(merge: _Merge, words, key, decide, suffix: str = ""):
    """Feed merge the (check name, defect) pairs decide(word) gives, once
    per class of words with one key(word) and length, in order of first
    appearance; decide runs at the first word of a key's first class."""
    classes = {}
    for word in words:
        classes.setdefault((key(word), len(word)), [word, 0])[1] += 1
    decided = {}
    for (k, n), (word, count) in classes.items():
        if k not in decided:
            decided[k] = decide(word)
        for name, defect in decided[k]:
            merge.feed(f"{name}:len{n}", word, suffix, defect, count)


RLL_FORMS = ("full", "block-LL", "block-ML", "block-LM", "block-MM")


def check_rll(d: InhomDatum, max_len: int, fns: Functionals):
    """Exchange relation of l against R_Q, full and in block form."""
    N = d.N
    cop = fns.cop
    F = flip(N + 1, N + 1)
    FN = flip(N, N)
    inv = d.invariant
    RF = d.R @ FN
    RZ = d.R @ d.Z
    RT = (d.R - Tensor.identity((N, N))) @ d.T
    merge = _Merge()
    words = _words(cop, max_len)
    for c, suffix in _samples(d, 4):
        lhom = fns.hom(c)
        rq = build_RQ(d, c)
        frqf = F @ rq @ F
        s_col = RT if inv is None else RT + inv * c
        conv = fns.conv(c)

        def decide(word):
            B, lx = conv.value(word), lhom.value(word)
            Lx = lx.slice_legs(((0, N),), ((1, N),))
            Mx = lx.slice_legs(((0, N),), (), {1: N})
            C = F @ B
            Bll = _sector(B, N, False, False)
            BpN = _sector(B, N, True, False)   # columns (+, vector)
            BNp = _sector(B, N, False, True)   # columns (vector, +)
            Bpp = _sector(B, N, True, True)
            fBf = FN @ Bll @ FN
            return list(zip((f"rll:{form}" for form in RLL_FORMS), (
                rq @ C - C @ frqf,
                RF @ Bll - fBf @ RF,
                RF @ BpN + d.Z @ Lx - fBf @ d.Z - FN @ BNp,
                RF @ BNp - RZ @ Lx + fBf @ RZ - FN @ BpN,
                RF @ Bpp + d.Z @ Mx - RZ @ Mx
                + s_col * cop.counit_word(word) - fBf @ s_col - FN @ Bpp)))
        _feed_classes(merge, words, lambda w: (
            conv.number(w), lhom.number(w), cop.counit_word(w)), decide, suffix)
    reports = merge.reports()
    for n in range(1, max_len + 1):
        ll, ml, lm = (merge.get(f"rll:block-{kk}:len{n}")
                      for kk in ("LL", "ML", "LM"))
        if ll is None:
            continue
        cid = f"rll:implied-LM:len{n}"
        if ll["fail"] is None and ml["fail"] is None and lm["fail"] is not None:
            reports.append(cqt.CheckReport(cid, "fail", lm["fail"][1],
                                           "implied identity fails alone"))
        else:
            reports.append(cqt.CheckReport(cid, "pass", None,
                                           "holds whenever its antecedents do"))
        full = merge.get(f"rll:full:len{n}")
        blocks_ok = all(merge.get(f"rll:block-{kk}:len{n}")["fail"] is None
                        for kk in ("LL", "ML", "LM", "MM"))
        agree = (full["fail"] is None) == blocks_ok
        reports.append(cqt.CheckReport(
            f"rll:paths-agree:len{n}", "pass" if agree else "fail", None,
            "full identity iff all block identities"))
    reports.sort(key=lambda r: r.check_id)
    return reports


def build_K(d: InhomDatum) -> Tensor:
    """The exchange matrix governing the X-functional relations.

    Same sector layout as the extended exchange matrix, with the vector
    block transposed and no shift column.
    """
    sq = (d.N + 1, d.N + 1)
    return d.R.place_legs(sq, sq, (2, 3, 0, 1)) + corner_frame(d.N)


def check_xkx(d: InhomDatum, max_len: int, n: Tensor, fns: Functionals):
    """Exchange relation of the X functional against K (and K + row block
    of n, unless None)."""
    conv = fns.conv()
    variants = [("xkx:base", build_K(d))]
    if n is not None:
        # a row invariant sits in the same corner block as an invariant
        # column; its twisted invariance cancels the extra terms
        variants.append(("xkx:with-invariant-row", build_K(d) + build_mP(d, n)))
    merge = _Merge()
    _feed_classes(merge, _words(fns.cop, max_len), conv.number, lambda word: [
        (name, conv.value(word) @ K - K @ conv.value(word))
        for name, K in variants])
    return merge.reports()


def check_pairings(d: InhomDatum, k: Tensor, n: Tensor, max_len: int,
                   fns: Functionals):
    """Invariance of stored pairings under the convolution action.

    k is a column invariant ((vector rep (x) vector rep) k = k) and n a row
    invariant, both stored as columns of entries, or None.  The direct
    identities run against l at three coefficient points; the
    antipode-twisted versions run against X.
    """
    N = d.N
    cop = fns.cop
    merge = _Merge()
    # legs of B: (x, y) x (u, v); each pairing is a leg permutation of B on
    # the vector range, applied to the invariant column
    vector = ((0, N), (1, N), (2, N), (3, N))

    def decide(conv, pairings, word):
        B, eps = conv.value(word), cop.counit_word(word)
        return [(name, B.slice_legs(tuple(vector[leg] for leg in cod),
                                    tuple(vector[leg] for leg in dom)) @ col
                 - col * eps) for name, (cod, dom), col in pairings]

    words = _words(cop, max_len)
    for c, suffix in _samples(d, 3) + [(None, "")]:  # l, then X
        conv = fns.conv(c)
        tag, legs = (("-twisted", ((2, 3), (0, 1))) if c is None
                     else ("", ((1, 0), (3, 2))))
        pairings = [(f"pairing:{side}{tag}", ends, col) for side, ends, col
                    in (("column", legs, k), ("row", legs[::-1], n))
                    if col is not None]
        _feed_classes(merge, words, lambda w: (
            conv.number(w), cop.counit_word(w)),
            lambda w: decide(conv, pairings, w), suffix)
    return merge.reports()


def ideal_elements_mixed(d: InhomDatum):
    """Free elements of the translation exchange relation, one per (s,a,b).

    y_s Lam_ab - sum R[(s,a),(k,t)] Lam_kb y_t - sum Z[(s,a),k] Lam_kb
               + sum Z[(t,k),b] Lam_st Lam_ak.
    """
    N = d.N
    out = {(s, a, b): {(y(s), lam(a, b)): ONE}
           for s in range(N) for a in range(N) for b in range(N)}
    for b in range(N):
        for (s, a, k, t), v in d.R.items():
            _acc(out[(s, a, b)], (lam(k, b), y(t)), -v)
        for (s, a, k), v in d.Z.items():
            _acc(out[(s, a, b)], (lam(k, b),), -v)
    for (t, k, b), v in d.Z.items():
        for s in range(N):
            for a in range(N):
                _acc(out[(s, a, b)], (lam(s, t), lam(a, k)), v)
    return out


def ideal_elements_quadratic(d: InhomDatum):
    """Free elements of the quadratic translation relations, one per (k,l).

    sum (R-1)[(k,l),(i,j)] (y_i y_j - Z[(i,j),s] y_s + T_ij
                            - T_mn Lam_im Lam_jn).
    """
    N = d.N
    Rm1 = d.R - Tensor.identity((N, N))
    zcols = {}
    for (i, j, s), v in d.Z.items():
        zcols.setdefault((i, j), []).append((s, v))
    shift = dict(d.T.items())
    out = {(kk, ll): {} for kk in range(N) for ll in range(N)}
    for (kk, ll, i, j), r in Rm1.items():
        elt = out[(kk, ll)]
        _acc(elt, (y(i), y(j)), r)
        for s, v in zcols.get((i, j), ()):
            _acc(elt, (y(s),), -r * v)
        if (i, j) in shift:
            _acc(elt, (), r * shift[(i, j)])
        for (mm, nn), t in shift.items():
            _acc(elt, (lam(i, mm), lam(j, nn)), -r * t)
    return out


def _acc(elt, word, coef):
    cur = elt.get(word)
    elt[word] = coef if cur is None else cur + coef


def check_ideal_killed(d: InhomDatum, fns: Functionals):
    """Both functionals must annihilate every defining relation element;
    l, affine in c there, at two coefficient points."""
    elements = {"mixed": ideal_elements_mixed(d),
                "quadratic": ideal_elements_quadratic(d)}
    merge = _Merge(str)
    for c, suffix in _samples(d, 2) + [(None, "")]:  # l, then X
        h = fns.hom(c)
        for kind, elts in elements.items():
            for key, elt in elts.items():
                merge.feed(f"ideal:{kind}:{'l' if c is not None else 'X'}",
                           key, suffix, h.value_free(elt))
    return merge.reports()


def letter_span_dim(h: FunctionalHom) -> int:
    """Dimension of the span of letter values; a smallness diagnostic."""
    span = SpanBasis(h.size * h.size)
    for v in h.values.values():
        span.add(v)
    return span.dim()


def uea_suite(d: InhomDatum, max_len: int):
    """All functional checks, plus the span-dimension diagnostic.  The
    column invariant k is the datum's invariant; it is also the row
    invariant n when the transposed exchange matrix fixes it, and there is
    no row invariant otherwise."""
    fns = Functionals(d)
    reports = []
    reports.extend(check_rll(d, max_len, fns))
    k_col = d.invariant
    n_row = None
    if k_col is not None and d.R.transpose() @ k_col == k_col:
        n_row = k_col
    reports.extend(check_xkx(d, max_len, n_row, fns))
    reports.extend(check_pairings(d, k_col, n_row, max_len, fns))
    reports.extend(check_ideal_killed(d, fns))
    reports.append(cqt.CheckReport(
        "uea:letter-span", "pass", None,
        f"l letters span dimension {letter_span_dim(fns.hom(ONE))}, "
        f"X letters span dimension {letter_span_dim(fns.hom())}"))
    reports.sort(key=lambda r: r.check_id)
    return reports
