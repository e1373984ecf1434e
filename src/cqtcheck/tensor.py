"""Leg-typed sparse matrices over the exact scalar field.

A Tensor is a linear map between tensor products of small complex spaces.
Only its nonzero entries are stored, in a dict from flat row-major index to
Scalar; zeros are never stored, so every arithmetic operation costs time in
proportion to the nonzero entries it touches.  Multi-indices flatten with
the leftmost leg slowest, and the flat index of entry (row, col) is
row * ncols + col, i.e. the flattening over the cod legs followed by the dom
legs.  This is the single index convention of the whole package, and every
pairing convention from the literature is translated to it exactly once at
the point where the relevant matrix is built.

Kronecker products follow (a (x) b)[(i,j),(k,l)] = a[i,k] * b[j,l], so the
mixed-product law (a (x) b)(c (x) d) = ac (x) bd holds on the nose.  Equality
compares flattened shapes and entries; leg lists are bookkeeping and may
differ between equal tensors.

Re-indexing goes through two primitives that undo each other.
`Tensor.slice_legs` permutes legs between and within cod and dom, restricts
legs to leading index ranges and fixes legs at single indices;
`Tensor.place_legs` embeds a tensor as a block of a larger one, sending
each leg to a (possibly longer) new leg and holding the remaining new legs
at single indices.  Block matrices are sums of placements, so no module
outside this one composes or splits a flat index.  The dense `entries`
list is a read-only view built on demand, for display and tests.

`_reduce` brings sparse rows to reduced row echelon form for `inverse`,
`rref` and `nullspace`; `SpanBasis` keeps its rows in echelon form only,
and `rank` uses one.

A product with an operand that `is ONE` is skipped in matmul, kron and the
row update of both eliminations (`_axpy`), and a pivot row whose pivot is
already 1 is not rescaled.  Every scalar equal to 1 is the ONE object (see
`scalars.Scalar`), so the test catches every unit; at a specialized t most
entries are ±1.

All values are immutable after construction.
"""

from __future__ import annotations

from bisect import insort
from math import prod

from .errors import NotInvertible, ShapeError
from .scalars import ONE, ZERO, ConjMode, Scalar


def _as_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    return ZERO + x  # reuses Scalar coercion rules


def _size(dims) -> int:
    return prod(dims) if dims else 1


class Tensor:
    __slots__ = ("cod", "dom", "nz", "nrows", "ncols")

    def __init__(self, cod, dom, entries):
        """Build from a dense row-major list of Scalars."""
        self.cod = tuple(cod)
        self.dom = tuple(dom)
        self.nrows = _size(self.cod)
        self.ncols = _size(self.dom)
        if len(entries) != self.nrows * self.ncols:
            raise ShapeError(
                f"{len(entries)} entries for shape {self.nrows}x{self.ncols}"
            )
        self.nz = {k: v for k, v in enumerate(entries) if v.num}

    @classmethod
    def _raw(cls, cod, dom, nrows, ncols, nz) -> "Tensor":
        """Trusted constructor: tuple legs and a zero-free nz dict."""
        t = object.__new__(cls)
        t.cod = cod
        t.dom = dom
        t.nrows = nrows
        t.ncols = ncols
        t.nz = nz
        return t

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_nonzero(cls, cod, dom, nz) -> "Tensor":
        """Build from {flat index: Scalar}; zero values are dropped."""
        cod, dom = tuple(cod), tuple(dom)
        n = _size(cod) * _size(dom)
        nz = {k: v for k, v in nz.items() if v.num}
        if nz and (min(nz) < 0 or max(nz) >= n):
            raise ShapeError(f"flat index outside {n} entries")
        return cls._raw(cod, dom, _size(cod), _size(dom), nz)

    @staticmethod
    def zeros(cod, dom) -> "Tensor":
        return Tensor.from_nonzero(cod, dom, {})

    @staticmethod
    def identity(dims) -> "Tensor":
        n = _size(dims)
        return Tensor.from_nonzero(dims, dims, {k * n + k: ONE for k in range(n)})

    @staticmethod
    def from_rows(rows) -> "Tensor":
        """Build from a list of row lists; ints/fractions are coerced."""
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        entries = []
        for r in rows:
            if len(r) != nc:
                raise ShapeError("ragged rows")
            entries.extend(_as_scalar(x) for x in r)
        return Tensor([nr], [nc], entries)

    # -- indexing -------------------------------------------------------------

    @property
    def entries(self) -> list:
        """Dense row-major view, rebuilt on every access."""
        out = [ZERO] * (self.nrows * self.ncols)
        for k, v in self.nz.items():
            out[k] = v
        return out

    def __getitem__(self, ij):
        i, j = ij
        return self.nz.get(i * self.ncols + j, ZERO)

    def entry(self, row_multi, col_multi) -> Scalar:
        return self.nz.get(
            flatten(self.cod, row_multi) * self.ncols + flatten(self.dom, col_multi),
            ZERO)

    def nnz(self) -> int:
        return len(self.nz)

    def items(self):
        """(multi-index over the cod then dom legs, value) per nonzero entry."""
        legs = self.cod + self.dom
        for k, v in self.nz.items():
            yield unflatten(legs, k), v

    def with_legs(self, cod, dom) -> "Tensor":
        """Relabel legs without touching entries; flat shape must agree."""
        cod, dom = tuple(cod), tuple(dom)
        if _size(cod) != self.nrows or _size(dom) != self.ncols:
            raise ShapeError("leg relabeling changes flat shape")
        return Tensor._raw(cod, dom, self.nrows, self.ncols, self.nz)

    def slice_legs(self, cod, dom, fix=()) -> "Tensor":
        """Re-index: a tensor whose legs are chosen legs of self.

        The legs of self are numbered 0, 1, ... across cod then dom.  Each
        item of `cod` and `dom` names the leg of self that becomes the next
        new leg, either as a leg number (all its indices) or as a pair
        (leg, stop) keeping only the indices below stop.  `fix` maps each
        remaining leg to the single index it is held at.  Every leg of self
        is used exactly once; entries outside the kept ranges are dropped.

            t.slice_legs((1, 0), (3, 2))           swap within both sides
            t.slice_legs((0,), (3,), {1: a, 2: b})  the (a, b) slice
        """
        cod, dom = tuple(cod), tuple(dom)
        legs = self.cod + self.dom
        strides = _strides(legs)
        kept = []
        for spec in cod + dom:
            leg, stop = spec if isinstance(spec, tuple) else (spec, None)
            if not 0 <= leg < len(legs):
                raise ShapeError(f"no leg {leg} among {len(legs)}")
            stop = legs[leg] if stop is None else stop
            if not 0 <= stop <= legs[leg]:
                raise ShapeError(f"range {stop} exceeds leg {leg} of {legs[leg]}")
            kept.append((leg, stop))
        fix = dict(fix)
        used = sorted([leg for leg, _ in kept] + list(fix))
        if used != list(range(len(legs))):
            raise ShapeError(f"legs {used} do not cover {len(legs)} legs once")
        for leg, at in fix.items():
            if not 0 <= at < legs[leg]:
                raise ShapeError(f"index {at} out of range for leg {legs[leg]}")
        new_cod = tuple(stop for _, stop in kept[:len(cod)])
        new_dom = tuple(stop for _, stop in kept[len(cod):])
        plan = []
        acc = 1
        for leg, stop in reversed(kept):
            plan.append((strides[leg], legs[leg], stop, acc))
            acc *= stop
        held = [(strides[leg], legs[leg], at) for leg, at in fix.items()]
        out = {}
        for f, v in self.nz.items():
            for stride, d, at in held:
                if f // stride % d != at:
                    break
            else:
                g = 0
                for stride, d, stop, weight in plan:
                    x = f // stride % d
                    if x >= stop:
                        break
                    g += x * weight
                else:
                    out[g] = v
        return Tensor._raw(new_cod, new_dom, _size(new_cod), _size(new_dom), out)

    def place_legs(self, cod, dom, legs, fix=()) -> "Tensor":
        """Embed: a tensor with legs cod then dom holding self as a block.

        The reverse of slice_legs.  The new legs are numbered 0, 1, ...
        across cod then dom.  Leg k of self becomes new leg legs[k] with its
        indices kept (the new leg may be longer), and `fix` maps each
        remaining new leg to the single index the block sits at.  Every new
        leg is used exactly once; entries outside the block are zero.

            r.place_legs((P, P), (P, P), (0, 1, 2, 3))          vector block
            m.place_legs((P, P), (P, P), (0, 1), {2: N, 3: N})  corner column
        """
        cod, dom, legs = tuple(cod), tuple(dom), tuple(legs)
        new = cod + dom
        old = self.cod + self.dom
        if len(legs) != len(old):
            raise ShapeError(f"{len(legs)} targets for {len(old)} legs")
        fix = dict(fix)
        used = sorted(list(legs) + list(fix))
        if used != list(range(len(new))):
            raise ShapeError(f"legs {used} do not cover {len(new)} legs once")
        for d, leg in zip(old, legs):
            if d > new[leg]:
                raise ShapeError(f"leg of {d} does not fit leg {leg} of {new[leg]}")
        for leg, at in fix.items():
            if not 0 <= at < new[leg]:
                raise ShapeError(f"index {at} out of range for leg {new[leg]}")
        strides = _strides(new)
        base = sum(strides[leg] * at for leg, at in fix.items())
        plan = [(stride, d, strides[leg])
                for stride, d, leg in zip(_strides(old), old, legs)]
        out = {}
        for f, v in self.nz.items():
            g = base
            for stride, d, weight in plan:
                g += f // stride % d * weight
            out[g] = v
        return Tensor._raw(cod, dom, _size(cod), _size(dom), out)

    # -- linear structure ------------------------------------------------------

    def _require_same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeError(
                f"shape mismatch {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    def _like(self, nz) -> "Tensor":
        return Tensor._raw(self.cod, self.dom, self.nrows, self.ncols, nz)

    def __add__(self, other):
        self._require_same_shape(other)
        out = dict(self.nz)
        for k, b in other.nz.items():
            a = out.get(k)
            if a is None:
                out[k] = b
            else:
                s = a + b
                if s.num:
                    out[k] = s
                else:
                    del out[k]
        return self._like(out)

    def __sub__(self, other):
        self._require_same_shape(other)
        out = dict(self.nz)
        for k, b in other.nz.items():
            a = out.get(k)
            if a is None:
                out[k] = -b
            elif a == b:
                del out[k]
            else:
                out[k] = a - b
        return self._like(out)

    def __neg__(self):
        return self._like({k: -a for k, a in self.nz.items()})

    def __mul__(self, s):
        s = _as_scalar(s)
        if not s.num:
            return self._like({})
        if s is ONE:
            return self
        return self._like({k: a * s for k, a in self.nz.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "Tensor") -> "Tensor":
        """Composition self . other (apply other first)."""
        if self.ncols != other.nrows:
            raise ShapeError(
                f"cannot compose {self.nrows}x{self.ncols} with {other.nrows}x{other.ncols}"
            )
        k, m = self.ncols, other.ncols
        brows = {}
        for f, y in other.nz.items():
            p, j = divmod(f, m)
            row = brows.get(p)
            if row is None:
                brows[p] = [(j, y)]
            else:
                row.append((j, y))
        # ascending flat order on the left: each output entry sums its
        # terms in ascending inner index, so the exact arithmetic (and its
        # cost) does not depend on the order entries were inserted in
        a = self.nz
        out = {}
        get = out.get
        for f in sorted(a):
            i, p = divmod(f, k)
            brow = brows.get(p)
            if brow is None:
                continue
            x = a[f]
            base = i * m
            for j, y in brow:
                v = x if y is ONE else (y if x is ONE else x * y)
                cur = get(base + j)
                out[base + j] = v if cur is None else cur + v
        return Tensor._raw(self.cod, other.dom, self.nrows, m,
                           {f: v for f, v in out.items() if v.num})

    def transpose(self) -> "Tensor":
        n, m = self.nrows, self.ncols
        out = {}
        for k, v in self.nz.items():
            i, j = divmod(k, m)
            out[j * n + i] = v
        return Tensor._raw(self.dom, self.cod, m, n, out)

    def conjugate(self, mode: ConjMode) -> "Tensor":
        return self._like({k: a.conjugate(mode) for k, a in self.nz.items()})

    def subs(self, value) -> "Tensor":
        out = {}
        for k, a in self.nz.items():
            b = a.subs(value)
            if b.num:
                out[k] = b
        return self._like(out)

    # -- predicates -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nz

    def first_nonzero(self):
        """((row multi-index, col multi-index), entry) of the first nonzero."""
        if not self.nz:
            return None
        k = min(self.nz)
        i, j = divmod(k, self.ncols)
        return (unflatten(self.cod, i), unflatten(self.dom, j)), self.nz[k]

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.nz == other.nz
        )

    def key(self):
        """Hashable identity for deduplication."""
        flat = sorted(self.nz)
        return (self.nrows, self.ncols, tuple(flat),
                tuple(self.nz[k] for k in flat))

    # -- inversion and nullspaces -------------------------------------------------

    def _row_dicts(self):
        """Fresh mutable {col: value} dicts, one per row."""
        rows = [{} for _ in range(self.nrows)]
        for f, v in self.nz.items():
            i, j = divmod(f, self.ncols)
            rows[i][j] = v
        return rows

    def inverse(self) -> "Tensor":
        if self.nrows != self.ncols:
            raise ShapeError("inverse of a non-square tensor")
        n = self.nrows
        aug = self._row_dicts()
        for i, row in enumerate(aug):
            row[n + i] = ONE
        if len(_reduce(aug, n)) < n:
            null = self.nullspace()
            raise NotInvertible(
                f"singular {n}x{n} tensor", witness=null[0] if null else None
            )
        out = {}
        for r, row in enumerate(aug):
            for c, v in row.items():
                if c >= n:
                    out[r * n + c - n] = v
        return Tensor._raw(self.dom, self.cod, n, n, out)

    def rref(self):
        """Reduced rows (sparse {col: value} dicts) and pivot columns."""
        rows = self._row_dicts()
        pivots = _reduce(rows, self.ncols)
        return rows, pivots

    def rank(self) -> int:
        """Row rank.  A row with one nonzero entry spans its column's unit
        vector, so the rank is the number of such columns plus the rank of
        the other rows with those columns dropped, which a SpanBasis takes
        (its echelon form makes fewer row updates than rref's)."""
        rows = self._row_dicts()
        units = {c for row in rows if len(row) == 1 for c in row}
        span = SpanBasis(self.ncols)
        for row in rows:
            if len(row) > 1:
                span.add(Tensor.from_nonzero((), (self.ncols,), {
                    c: v for c, v in row.items() if c not in units}))
        return len(units) + span.dim()

    def nullspace(self):
        """Exact basis of the right nullspace, as column tensors."""
        rows, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            vec = {free: ONE}
            for r, pc in enumerate(pivots):
                x = rows[r].get(free)
                if x is not None:
                    vec[pc] = -x
            basis.append(Tensor.from_nonzero(self.dom, (), vec))
        return basis

    # -- display -------------------------------------------------------------------

    def __repr__(self):
        return f"Tensor({list(self.cod)}x{list(self.dom)}, {self.nrows}x{self.ncols})"

    def pretty(self) -> str:
        dense = self.entries
        cells = [[str(dense[i * self.ncols + j]) for j in range(self.ncols)]
                 for i in range(self.nrows)]
        width = max((len(c) for row in cells for c in row), default=1)
        lines = ["[" + "  ".join(c.rjust(width) for c in row) + "]" for row in cells]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Sparse row elimination.
# ---------------------------------------------------------------------------

def _axpy(target: dict, f: Scalar, row: dict):
    """target += f * row on sparse rows, dropping cancelled entries."""
    for c, y in row.items():
        p = y if f is ONE else (f if y is ONE else f * y)
        cur = target.get(c)
        if cur is None:
            target[c] = p
        else:
            s = cur + p
            if s.num:
                target[c] = s
            else:
                del target[c]


def _reduce(rows, ncols: int):
    """Gauss-Jordan on sparse rows in place, pivoting on columns < ncols.

    Returns the pivot columns; row r of the result carries pivot r.
    """
    pivots = []
    r = 0
    n = len(rows)
    for col in range(ncols):
        if r == n:
            break
        piv = next((k for k in range(r, n) if col in rows[k]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        row = rows[r]
        inv = row[col].inverse()
        if inv is not ONE:
            row = rows[r] = {c: x * inv for c, x in row.items()}
        for k in range(n):
            if k != r:
                f = rows[k].get(col)
                if f is not None:
                    _axpy(rows[k], -f, row)
        pivots.append(col)
        r += 1
    return pivots


# ---------------------------------------------------------------------------
# Index helpers and the standard constructions.
# ---------------------------------------------------------------------------

def _strides(dims) -> list:
    """Flat-index weight of each leg, the leftmost leg slowest."""
    out = [0] * len(dims)
    acc = 1
    for k in range(len(dims) - 1, -1, -1):
        out[k] = acc
        acc *= dims[k]
    return out


def flatten(dims, multi) -> int:
    if len(dims) != len(multi):
        raise ShapeError(f"multi-index {multi} against legs {dims}")
    out = 0
    for d, k in zip(dims, multi):
        if not 0 <= k < d:
            raise ShapeError(f"index {k} out of range for leg {d}")
        out = out * d + k
    return out


def unflatten(dims, flat: int):
    out = []
    for d in reversed(dims):
        out.append(flat % d)
        flat //= d
    out.reverse()
    return tuple(out)


def kron(a: Tensor, b: Tensor) -> Tensor:
    """(a (x) b)[(i,j),(k,l)] = a[i,k] b[j,l]; legs concatenate."""
    nr, nc = a.nrows * b.nrows, a.ncols * b.ncols
    bn = [(divmod(f, b.ncols), y) for f, y in b.nz.items()]
    out = {}
    for f, x in a.nz.items():
        i, k = divmod(f, a.ncols)
        r0, c0 = i * b.nrows, k * b.ncols
        for (j, l), y in bn:
            out[(r0 + j) * nc + c0 + l] = (
                x if y is ONE else (y if x is ONE else x * y))
    return Tensor._raw(a.cod + b.cod, a.dom + b.dom, nr, nc, out)


def flip(d1: int, d2: int) -> Tensor:
    """The swap map C^d1 (x) C^d2 -> C^d2 (x) C^d1."""
    nc = d1 * d2
    return Tensor.from_nonzero((d2, d1), (d1, d2), {
        (y * d1 + x) * nc + (x * d2 + y): ONE
        for x in range(d1) for y in range(d2)})


def pad_with_identity(t: Tensor, pre_dims, post_dims) -> Tensor:
    """id_pre (x) t (x) id_post by direct index placement (no arithmetic)."""
    pre_dims, post_dims = tuple(pre_dims), tuple(post_dims)
    if not pre_dims and not post_dims:
        return t
    P = _size(pre_dims)
    S = _size(post_dims)
    nr, nc = t.nrows * P * S, t.ncols * P * S
    out = {}
    for f, v in t.nz.items():
        i, j = divmod(f, t.ncols)
        for a in range(P):
            r = (a * t.nrows + i) * S
            c = (a * t.ncols + j) * S
            for b in range(S):
                out[(r + b) * nc + c + b] = v
    return Tensor._raw(pre_dims + t.cod + post_dims, pre_dims + t.dom + post_dims,
                       nr, nc, out)


def tauconj(a: Tensor, mode: ConjMode) -> Tensor:
    """Swap both leg pairs and conjugate entrywise.

    For a with legs [p,q] x [r,s] returns b with legs [q,p] x [s,r] and
    b[(j,i),(l,k)] = conj(a[(i,j),(k,l)]).  For square two-leg tensors this
    is flip . conj(a) . flip.
    """
    if len(a.cod) != 2 or len(a.dom) != 2:
        raise ShapeError("tauconj needs two legs on each side")
    return a.slice_legs((1, 0), (3, 2)).conjugate(mode)


class SpanBasis:
    """Incremental exact span of flat vectors, for membership tests.

    Vectors are Tensors, read as their flat entries.
    The sparse rows are in echelon form, not reduced: each row is zero at
    the earlier pivots and 1 at its own, its first nonzero index.  So
    membership is one forward pass in pivot order, and `add` touches no
    existing row.
    """

    def __init__(self, length: int):
        self.length = length
        self.rows = []  # (pivot index, echelon {index: value}) sorted by pivot

    def _sparse(self, vec: Tensor) -> dict:
        if vec.nrows * vec.ncols != self.length:
            raise ShapeError("vector length mismatch in span")
        return dict(vec.nz)

    def _eliminate(self, vec: dict) -> dict:
        for pivot, row in self.rows:
            f = vec.get(pivot)
            if f is not None:
                _axpy(vec, -f, row)
        return vec

    def add(self, vec: Tensor) -> bool:
        """Insert a vector; False when it was already in the span."""
        vec = self._eliminate(self._sparse(vec))
        if not vec:
            return False
        pivot = min(vec)
        inv = vec[pivot].inverse()
        if inv is not ONE:
            vec = {k: x * inv for k, x in vec.items()}
        insort(self.rows, (pivot, vec), key=lambda pr: pr[0])
        return True

    def contains(self, vec: Tensor) -> bool:
        return not self._eliminate(self._sparse(vec))

    def copy(self) -> "SpanBasis":
        """The same span, to grow apart from this one: `add` touches no
        existing row, so the copies share them."""
        out = SpanBasis(self.length)
        out.rows = list(self.rows)
        return out

    def dim(self) -> int:
        return len(self.rows)
