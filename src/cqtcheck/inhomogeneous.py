"""Inhomogeneous extensions: translations attached to a homogeneous datum.

The homogeneous group enters through an N-dimensional vector representation
with exchange matrix R (an involution), a translation twist Z, and a shift
column T; group-like data for other representations live in a table of
(G, H) pairs with

    G[(i,C),(D,j)] = f_ij(rep_CD),    H[(i,C),(D)] = eta_i(rep_CD),

where f and eta are the structure functionals; the vector representation
is the entry LAM = (R, Z).  The twist obstruction on one rep is
`tau_on_rep`; on the vector rep, read as an N^3 x N array, it is the F
that the antisymmetrizer must kill.  The five-dimensional extended
representation P carries the exchange matrix

    R_P = [ R    Z   -R.Z  (R-1)T ]      (sectors: vv, v+, +v, ++)
          [ 0    0    1     0     ]
          [ 0    1    0     0     ]
          [ 0    0    0     1     ]

and candidate structures are R_Q = R_P + c * m_P, with m_P carrying one
invariant column m in the (vv, ++) corner.  Every c is decided at once: an
identity that is a polynomial of degree below n in c holds for all c when
it holds at n points, and `coefficient_points(d, n)` is the one place that
picks them (here and in the uea module).  No check fixes c; the spinor
blocks of sign k come from `poincare_candidate(d, k)`.

The braid identity for R_Q, the two hexagon families and the compatibility
with the defining spinor intertwiners are exchange laws of one block table
(`exchange_table`): the hexagon reps plus a letter P for the extended
representation, with R[v,P] = N_v (G and H in block form), R[P,P] = R_Q
and R[v,w] the exchange blocks, each block also a relation.  They are
decided by `cqt.exchange_defect`, the engine that decides condition 2 on a
presentation, each at as many points as its degree in c needs: the braid
law holds three R_Q factors a side and m_P squares to zero, so four.

Two datum modes exist: spinor-backed (everything derived from a Lorentz
datum through the Pauli intertwiner V) and abstract (R, Z, T and the rep
table supplied directly).  Spinor-only operations raise AbstractLambdaMode
in the abstract mode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import NamedTuple

from . import cqt
from .errors import (AbstractLambdaMode, AxiomViolation, DuplicateName,
                     MissingRep, ShapeError, StructureViolation)
from .lorentz import LorentzDatum, W, WB, candidate_L
from .presentation import CandidateR, GeneratorSpec, Presentation, Relation
from .scalars import ConjMode, Gaussian, I, ONE, Scalar, ZERO
from .tensor import Tensor, flip, kron, pad_with_identity

LAM = "Lam"


@dataclass(frozen=True)
class RepEntry:
    G: Tensor  # legs (N, d) x (d, N)
    H: Tensor  # legs (N, d) x (d,)

    @cached_property
    def G_inv(self) -> Tensor:
        return self.G.inverse()

    @cached_property
    def N(self) -> Tensor:
        """Exchange matrix against P, carrying (G, H) in block form."""
        n, dv = self.G.cod
        cod, dom = (n + 1, dv), (dv, n + 1)
        return (self.G.place_legs(cod, dom, (0, 1, 2, 3))
                + self.H.place_legs(cod, dom, (0, 1, 2), {3: n})
                + Tensor.identity((dv,)).place_legs(cod, dom, (1, 2), {0: n, 3: n}))


@dataclass(frozen=True)
class InhomDatum:
    """A translation-extended datum.  R_Q takes its one invariant column
    from `invariant`; on a spinor datum it is m0 (`poincare_from_lorentz`)."""

    N: int
    R: Tensor                      # ((N,N),(N,N))
    Z: Tensor                      # ((N,N),(N,))
    T: Tensor                      # ((N,N),())
    reps: dict                     # name -> RepEntry, always contains LAM
    invariants: list               # stored Mor(1, v (x) v) columns
    mode: ConjMode = ConjMode.REAL
    lorentz: LorentzDatum = None
    L: Tensor = None
    Ltilde: Tensor = None

    @property
    def abstract(self) -> bool:
        return self.lorentz is None

    @property
    def invariant(self):
        """The invariant column R_Q uses: the first stored one."""
        return self.invariants[0] if self.invariants else None

    def rep(self, name: str) -> RepEntry:
        try:
            return self.reps[name]
        except KeyError:
            raise MissingRep(f"no representation table entry {name!r}") from None

    def hexagon_reps(self):
        """Representations the hexagon checks run over; the vector rep last."""
        names = [n for n in self.reps if n != LAM]
        return names + [LAM]


@cache
def pauli_basis() -> tuple:
    """(V, V^(-1)) for the intertwiner V whose columns are the unit and the
    three Pauli matrices in (CD) order; one pair for every spinor datum,
    made on first use."""
    V = Tensor((2, 2), (4,), [
        ONE, ZERO, ZERO, ONE,       # row (0,0): sigma_x00 entries per column
        ZERO, ONE, -I, ZERO,        # row (0,1)
        ZERO, ONE, I, ZERO,         # row (1,0)
        ONE, ZERO, ZERO, -ONE,      # row (1,1)
    ])
    return V, V.inverse()


def _g_compose(g1: Tensor, g2: Tensor) -> Tensor:
    """G of a two-letter word from the homomorphism law on f.

    G[(i,C,C'),(D,D',j)] = sum_k g1[(i,C),(D,k)] g2[(k,C'),(D',j)]: one
    matmul over k between leg-permuted factors.
    """
    chain = g1.slice_legs((0, 1, 2), (3,)) @ g2.slice_legs((0,), (1, 2, 3))
    return chain.slice_legs((0, 1, 3), (2, 4, 5))


def poincare_from_lorentz(ld: LorentzDatum) -> InhomDatum:
    """Derive the translation-extended datum from a Lorentz datum.

    The vector rep is the V-conjugate of w (x) wb; its G gives R, its H
    gives Z (zero here since the spinor table carries no eta data), T = 0,
    and the distinguished invariant column is

        m0 = (V^(-1) (x) V^(-1)) (1 (x) X (x) 1) (E (x) tau E).
    """
    N = 4
    V, Vinv = pauli_basis()
    q = ld.q
    X, Xinv = ld.X, ld.X_inv
    L = candidate_L(ld.base, 1)
    Lt = (flip(2, 2) @ L @ flip(2, 2)) * q
    G_w = (pad_with_identity(Vinv, (), (2,)) @ pad_with_identity(X, (2,), ())
           @ pad_with_identity(L, (), (2,)) @ pad_with_identity(V, (2,), ()))
    G_wb = (pad_with_identity(Vinv, (), (2,)) @ pad_with_identity(Lt, (2,), ())
            @ pad_with_identity(Xinv, (), (2,)) @ pad_with_identity(V, (2,), ()))
    G_w = G_w.with_legs((N, 2), (2, N))
    G_wb = G_wb.with_legs((N, 2), (2, N))
    zero_h = Tensor.zeros((N, 2), (2,))
    reps = {
        W: RepEntry(G_w, zero_h),
        WB: RepEntry(G_wb, zero_h),
    }
    G_wwb = _g_compose(G_w, G_wb)
    R = (pad_with_identity(Vinv, (N,), ()) @ G_wwb
         @ pad_with_identity(V, (), (N,))).with_legs((N, N), (N, N))
    Z = Tensor.zeros((N, N), (N,))
    T = Tensor.zeros((N, N), ())
    reps[LAM] = RepEntry(R.with_legs((N, N), (N, N)), Z)
    E = ld.base.E
    tauE = (flip(2, 2) @ E).with_legs((2, 2), ())
    m0 = (kron(Vinv, Vinv) @ pad_with_identity(X, (2,), (2,))
          @ kron(E, tauE)).with_legs((N, N), ())
    datum = InhomDatum(N, R, Z, T, reps, [m0], mode=ld.mode, lorentz=ld,
                       L=L, Ltilde=Lt)
    _validate_ingestion(datum)
    return datum


def abstract_datum(R: Tensor, Z: Tensor = None, T: Tensor = None,
                   reps: dict = None, invariants=(),
                   mode: ConjMode = ConjMode.REAL) -> InhomDatum:
    """Datum from raw (R, Z, T) without spinor-level backing."""
    if len(R.cod) != 2 or R.cod[0] != R.cod[1]:
        R = R.with_legs(_square_legs(R))
    N = R.cod[0]
    Z = Z if Z is not None else Tensor.zeros((N, N), (N,))
    T = T if T is not None else Tensor.zeros((N, N), ())
    reps = reps or {}
    if LAM in reps:
        raise DuplicateName(f"rep {LAM!r} is the vector rep, given by R and Z")
    table = {LAM: RepEntry(R.with_legs((N, N), (N, N)), Z.with_legs((N, N), (N,))),
             **reps}
    datum = InhomDatum(N, R, Z, T, table, list(invariants), mode=mode)
    _validate_ingestion(datum)
    return datum


def _square_legs(t: Tensor):
    from math import isqrt
    n = isqrt(t.nrows)
    if n * n != t.nrows or t.nrows != t.ncols:
        raise ShapeError("exchange matrix must act on a two-leg square space")
    return ((n, n), (n, n))


def _validate_ingestion(d: InhomDatum):
    """Hermiticity of T is demanded up front; everything else is reported."""
    bad = check_m_star(d, d.T, "shift-hermiticity").witness
    if bad is not None:
        raise AxiomViolation("shift-hermiticity", witness=(bad[0][0], bad[1]))


# ---------------------------------------------------------------------------
# Block assembly.
# ---------------------------------------------------------------------------

def corner_frame(N: int) -> Tensor:
    """The v+ -> +v and +v -> v+ identities and the ++ unit on P (x) P.

    Every exchange matrix on the extended space has this frame; R_P and
    the K of the enveloping-algebra checks differ only in the other blocks.
    """
    sq = (N + 1, N + 1)
    one = Tensor.identity((N,))
    return (one.place_legs(sq, sq, (0, 3), {1: N, 2: N})
            + one.place_legs(sq, sq, (1, 2), {0: N, 3: N})
            + Tensor.identity(()).place_legs(sq, sq, (), {0: N, 1: N, 2: N, 3: N}))


def build_RP(d: InhomDatum) -> Tensor:
    N = d.N
    sq = (N + 1, N + 1)
    RZ = d.R @ d.Z
    RT = (d.R - Tensor.identity((N, N))) @ d.T
    return (d.R.place_legs(sq, sq, (0, 1, 2, 3))
            + d.Z.place_legs(sq, sq, (0, 1, 2), {3: N})
            - RZ.place_legs(sq, sq, (0, 1, 3), {2: N})
            + RT.place_legs(sq, sq, (0, 1), {2: N, 3: N})
            + corner_frame(N))


def build_mP(d: InhomDatum, m: Tensor) -> Tensor:
    """An invariant column m placed in the (vv, ++) corner block."""
    sq = (d.N + 1, d.N + 1)
    return m.place_legs(sq, sq, (0, 1), {2: d.N, 3: d.N})


def build_RQ(d: InhomDatum, c: Scalar) -> Tensor:
    """R_Q = R_P + c * m_P at one coefficient c, m the datum's invariant
    column; R_P when it has none."""
    rq = build_RP(d)
    m = d.invariant
    return rq if m is None else rq + build_mP(d, m) * c


def _delta_row(dim: int) -> Tensor:
    """delta_AB as a row with legs () x (dim, dim)."""
    return Tensor.identity((dim,)).slice_legs((), (0, 1))


def _contract_twice(G: Tensor, col: Tensor) -> Tensor:
    """sum_{C,a,b} G[(j,A),(C,b)] G[(i,C),(B,a)] col[(a,b)] at [(i,j),(A,B)].

    G has legs (N, d) x (d, N) and col legs (N, N) x ().
    """
    inner = G.slice_legs((0, 1, 2), (3,)) @ col.slice_legs((0,), (1,))
    outer = G @ inner.slice_legs((1, 3), (0, 2))      # [(j,A),(i,B)]
    return outer.slice_legs((2, 0), (1, 3))


def tau_on_rep(d: InhomDatum, name: str) -> Tensor:
    """The twist obstruction evaluated on the matrix entries of one rep.

    tau[(i,j),(A,B)] = sum_{m,n} (R-1)[(i,j),(m,n)] term[(m,n),(A,B)] with
    term = sum_C H[(n,A),C] H[(m,C),B] - sum_s Z[(m,n),s] H[(s,A),B]
           + T[m,n] delta_AB - sum G[(n,A),(C,b)] G[(m,C),(B,a)] T[a,b].
    """
    N = d.N
    e = d.rep(name)
    dv = e.G.cod[1]
    Rm1 = d.R - Tensor.identity((N, N))
    hh = (e.H @ e.H.slice_legs((1,), (0, 2))).slice_legs((2, 0), (1, 3))
    zh = d.Z @ e.H.slice_legs((0,), (1, 2))
    term = hh - zh + kron(d.T, _delta_row(dv)) - _contract_twice(e.G, d.T)
    return Rm1 @ term


def antisymmetrizer3(d: InhomDatum) -> Tensor:
    N = d.N
    r1 = pad_with_identity(d.R, (), (N,))
    r2 = pad_with_identity(d.R, (N,), ())
    ident = Tensor.identity((N, N, N))
    return (ident - r1 - r2 + r1 @ r2 + r2 @ r1 - r1 @ r2 @ r1)


def check_structure(d: InhomDatum):
    """Reports for the structural conditions an admissible datum satisfies."""
    N = d.N
    reports = []
    reports.append(cqt.defect_report(
        "structure:involution", d.R @ d.R - Tensor.identity((N, N))))
    reports.append(cqt.defect_report("structure:shift-skew", d.R @ d.T + d.T))
    a3 = antisymmetrizer3(d)
    zt = (pad_with_identity(d.Z, (), (N,)) - pad_with_identity(d.Z, (N,), ())) @ d.T
    reports.append(cqt.defect_report("structure:antisym-shift", a3 @ zt))
    tau = {name: tau_on_rep(d, name) for name in d.reps}
    # on the vector rep, tau is the N^3 x N array F[(i,j,k),m']
    reports.append(cqt.defect_report(
        "structure:antisym-twist", a3 @ tau[LAM].slice_legs((0, 1, 2), (3,))))
    for idx, m in enumerate(d.invariants):
        reports.append(cqt.defect_report(f"structure:invariant-fixed:{idx}",
                                   d.R @ m - m))
    has_eta = (not d.Z.is_zero()) or (not d.T.is_zero()) or any(
        not e.H.is_zero() for e in d.reps.values())
    for name in d.reps:
        cid = f"structure:twist-on-rep:{name}"
        if not has_eta:
            reports.append(cqt.CheckReport(cid, "skipped", None, "no eta data"))
            continue
        reports.append(cqt.defect_report(cid, tau[name]))
    reports.sort(key=lambda r: r.check_id)
    return reports


def counit_invariance_defect(d: InhomDatum, name: str, m: Tensor) -> Tensor:
    """Defect of the f*f-invariance of a column m, tested on one rep.

    Vanishing means sum_{a,b,C} G[(j,A),(C,b)] G[(i,C),(B,a)] m_ab equals
    m_ij delta_AB for all i, j, A, B.
    """
    e = d.rep(name)
    return _contract_twice(e.G, m) - kron(m, _delta_row(e.G.cod[1]))


# ---------------------------------------------------------------------------
# Braid and hexagon checks.
# ---------------------------------------------------------------------------

INTERP_POINTS = tuple(Scalar.from_int(k) for k in (0, 1, 2, 3))
EXT = "P"  # the letter of the extended representation in exchange tables
RQ = f"{EXT}:{EXT}"  # the relation of R_Q in exchange tables


def coefficient_points(d: InhomDatum, n: int):
    """The coefficients at which an identity of degree below n in c is
    decided for every c: the first n interpolation points, or 0 alone when
    the datum has no invariant column (R_Q is then R_P)."""
    return INTERP_POINTS[:n] if d.invariant is not None else INTERP_POINTS[:1]


def exchange_table(d: InhomDatum, cand: CandidateR, rq: Tensor) -> CandidateR:
    """Exchange blocks over the hexagon reps and the extended letter EXT.

    R[v,EXT] = N_v, R[EXT,EXT] = rq, R[LAM,LAM] = R, and for every other
    rep v, R[v,LAM] = G_v and R[LAM,v] = G_v^(-1); pairs of other reps
    take the blocks of cand, when given.  The relations are every block
    R[v,w], as "v:w": v w -> w v, and on a spinor datum the intertwiners
    E, Et and X of its fields, so the braid identity for rq is a law too.
    """
    names = d.hexagon_reps()
    gens = [GeneratorSpec(n, d.rep(n).G.cod[1], n) for n in names]
    blocks = {(EXT, EXT): rq, (LAM, LAM): d.R}
    for v in names:
        blocks[(v, EXT)] = d.rep(v).N
        if v != LAM:
            e = d.rep(v)
            dv = e.G.cod[1]
            blocks[(v, LAM)] = e.G.with_legs((d.N, dv), (dv, d.N))
            blocks[(LAM, v)] = e.G_inv.with_legs((dv, d.N), (d.N, dv))
    if cand is not None:
        blocks.update(cand.blocks)
    p = Presentation(gens + [GeneratorSpec(EXT, d.N + 1, EXT)], [])
    table = CandidateR(p, blocks)
    for (v, w), block in table.blocks.items():
        p.add_relation(Relation(f"{v}:{w}", block, (v, w), (w, v)))
    if not d.abstract:
        ld = d.lorentz
        for name, S, src, tgt in (("E", ld.base.E, (), (W, W)),
                                  ("Et", ld.Etilde, (), (WB, WB)),
                                  ("X", ld.X, (W, WB), (WB, W))):
            p.add_relation(Relation(
                name, S.with_legs(p.word_dims(tgt), p.word_dims(src)), src, tgt))
    return table


class PoincareLaw(NamedTuple):
    """The exchange law of a relation against gamma on one side, read by
    the row check_id with its defect times sign; degree is in c."""
    relation: str
    gamma: str
    side: str
    check_id: str
    sign: int
    degree: int


def poincare_laws(d: InhomDatum, p: Presentation):
    """The laws of an exchange table's presentation p that the rows read,
    as `PoincareLaw`s.  braid:extended is the left law of R_Q against EXT,
    negated (degree 3); hexagon-one:v the right law of R_Q against v
    (degree 1); hexagon-two:v:w the left law of R[v,w] against EXT, when p
    has that block; intertwiner-compat:S the left law of S against EXT,
    negated, on a spinor datum.

    Left out: the left law of R_Q against v needs R[EXT,v], which the table
    lacks (MissingBlock); the right law of R_Q against EXT duplicates the
    braid law.  Every other law is a homogeneous law the cqt suite already
    decides or is read by no row.
    """
    rows = {(RQ, EXT, "left"): ("braid:extended", -1, 3)}
    for v in d.hexagon_reps():
        rows[RQ, v, "right"] = (f"hexagon-one:{v}", 1, 1)
        for w in d.hexagon_reps():
            rows[f"{v}:{w}", EXT, "left"] = (f"hexagon-two:{v}:{w}", 1, 0)
    for name in ("E", "Et", "X"):
        rows[name, EXT, "left"] = (f"intertwiner-compat:{name}", -1, 0)
    names = {r.name for r in p.relations}
    return [PoincareLaw(*key, *row) for key, row in rows.items()
            if key[0] in names]


def check_braid_hexagons(d: InhomDatum, cand: CandidateR = None):
    """Braid for R_Q, both hexagons, and the intertwiner compatibilities:
    the laws of `poincare_laws`, by `cqt.exchange_defect` with one word_R
    memo per coefficient point.  A law of degree n in c holds for every c
    when it holds at the first n + 1 coefficient points; a failure names
    its first point.  One exchange table serves every point: only R_Q
    changes, as its block and its relation together.  cand holds
    the spinor blocks, for the pairs of spinor reps.
    """
    points = coefficient_points(d, 4)
    table = exchange_table(d, cand, build_RQ(d, points[0]))
    p = table.presentation
    laws = poincare_laws(d, p)
    reps = d.hexagon_reps()
    skipped = [(f"hexagon-two:{v}:{w}", "no candidate blocks")
               for v in reps for w in reps if (v, w) not in table.blocks]
    if d.abstract:
        skipped.append(("intertwiner-compat", "abstract mode"))
    reports = {cid: cqt.CheckReport(cid, "skipped", None, note)
               for cid, note in skipped}
    for i, c in enumerate(points):
        todo = [law for law in laws
                if law.degree >= i and law.check_id not in reports]
        if not todo:
            break
        if i:
            table = CandidateR(p, {**table.blocks,
                                   (EXT, EXT): build_RQ(d, c)})
            p.relations = [replace(r, matrix=table.block(EXT, EXT))
                           if r.name == RQ else r for r in p.relations]
        relations = {r.name: r for r in p.relations}
        memo = {}
        for law in todo:
            rel = relations[law.relation]
            fz = cqt.exchange_defect(table, rel.matrix, rel.source_word,
                                     rel.target_word, law.gamma, law.side,
                                     memo).first_nonzero()
            if fz is not None:
                reports[law.check_id] = cqt.CheckReport(
                    law.check_id, "fail",
                    (fz[0], fz[1] if law.sign > 0 else -fz[1]),
                    f"at coefficient {c}" if law.degree else "")
    for law in laws:
        reports.setdefault(law.check_id, cqt.CheckReport(
            law.check_id, "pass", None, "cubic interpolation over the "
            "invariant coefficient" if law.degree == 3 and len(points) > 1
            else ""))
    return sorted(reports.values(), key=lambda r: r.check_id)


def check_R_v_Lambda(d: InhomDatum, cand: CandidateR):
    """Candidate word blocks against the vector rep must reproduce G and
    G^(-1); a spinor datum's check."""
    V, Vinv = pauli_basis()
    reports = []
    for v in (W, WB):
        e = d.rep(v)
        # R[v, P] reproduces G and R[P, v] its inverse, through V
        for side, cid, ends, want in (
                ("right", f"vector-normalization:{v}:P", ((), (2,)), e.G),
                ("left", f"vector-normalization:P:{v}", ((2,), ()), e.G_inv)):
            word = cqt.word_R(cand, (W, WB), v, side)
            got = (pad_with_identity(Vinv, *ends) @ word
                   @ pad_with_identity(V, *reversed(ends)))
            reports.append(cqt.defect_report(cid, got - want))
    return reports


def poincare_candidate(d: InhomDatum, k: int) -> CandidateR:
    """Blocks (k L, k X, q k X^(-1), q k Ltilde) on the spinor presentation."""
    if d.abstract:
        raise AbstractLambdaMode("candidates with spinor blocks need a Lorentz datum")
    ld = d.lorentz
    q = ld.q
    ks = Scalar.from_int(k)
    blocks = {
        (W, W): d.L * ks,
        (W, WB): ld.X * ks,
        (WB, W): ld.X_inv * (q * ks),
        (WB, WB): d.Ltilde * (q * ks),
    }
    return CandidateR(ld.presentation, blocks, label=f"k={k:+d}")


def check_m_star(d: InhomDatum, m: Tensor, cid: str) -> cqt.CheckReport:
    """Hermiticity m_ij = conj(m_ji) of a column m with legs (N, N) x ()."""
    return cqt.defect_report(cid, m - m.slice_legs((1, 0), ()).conjugate(d.mode))


# (coefficient, real): c * m is hermitian exactly for real c when m is
STAR_SAMPLES = ((Scalar.from_int(2), True),
                (Scalar.from_gaussian(Gaussian(1, 1)), False))


def classify_poincare(d: InhomDatum, structure=None):
    """Existence and star/cotriangularity classification for one datum.

    Returns (reports, signs), as `lorentz.classify_lorentz` returns a
    result and a flag.  reports are the structure rows; then the rows of
    each sign k, prefixed `k=-1:` and `k=+1:` on a spinor datum (the two
    `poincare_candidate`s) and unprefixed on abstract data, whose one sign
    is 0; then the star and ct rows.  signs is the sorted list of the k
    whose rows all pass.  The star rule is tested at STAR_SAMPLES: the
    star test passes exactly for the real coefficients when the datum's
    invariant is hermitian.  Cotriangularity is tested as: base family
    cotriangular and extended block family involutive at c = 0, with the
    c-linear obstruction reported alongside.  structure takes the reports
    of check_structure(d) when the caller has them already.
    """
    if structure is None:
        structure = check_structure(d)
    if not cqt.all_pass(structure):
        bad = [r.check_id for r in structure if r.status == "fail"]
        raise StructureViolation(f"structure conditions fail: {', '.join(bad)}")
    m = d.invariant
    if d.abstract:
        rows = check_braid_hexagons(d)
        if m is not None:
            rows += [cqt.defect_report(f"invariance:counit:{name}",
                                       counit_invariance_defect(d, name, m))
                     for name in d.reps]
        return list(structure) + rows, [0] if cqt.all_pass(rows) else []

    # rows that do not depend on the sign k
    invariance = [cqt.defect_report("invariance:fixed-by-R", d.R @ m - m)]
    for name in (W, WB):
        invariance.append(cqt.defect_report(
            f"invariance:counit:{name}", counit_invariance_defect(d, name, m)))
    rp, mp = build_RP(d), build_mP(d, m)
    rp_squared = rp @ rp - Tensor.identity(rp.cod)
    obstruction = rp @ mp + mp @ rp
    cands = {k: poincare_candidate(d, k) for k in (-1, 1)}
    # the k = -1 blocks are minus the k = +1 blocks: a block is singular for
    # both signs or neither, and each ct defect is minus the other's
    ct_base = "pass" if cqt.all_pass(cqt.check_ct(cands[1])) else "fail"
    reports, signs, star, ct = list(structure), [], [], []
    for k, cand in cands.items():
        rs = check_R_v_Lambda(d, cand) + check_braid_hexagons(d, cand) + invariance
        reports += [cqt.CheckReport(f"k={k:+d}:{r.check_id}", r.status,
                                    r.witness, r.note) for r in rs]
        if cqt.all_pass(rs):
            signs.append(k)
        ct += [
            cqt.CheckReport(f"ct:base:k={k:+d}", ct_base),
            cqt.defect_report(f"ct:extended-at-zero:k={k:+d}", rp_squared),
            cqt.CheckReport(
                f"ct:coefficient-obstruction:k={k:+d}",
                "pass" if not obstruction.is_zero() else "fail", None,
                "nonzero linear term forces the coefficient to vanish")]
        if k == 1:
            star.append(cqt.CheckReport("star:base", "pass" if cqt.all_pass(
                cqt.check_star(cand, d.mode)) else "fail"))
    star.append(check_m_star(d, m, "star:m-hermitian"))
    for cval, real in STAR_SAMPLES:
        label = f"star:sample-{'real' if real else 'nonreal'}:{cval}"
        if check_m_star(d, m * cval, label).ok() == real:
            note = ("hermitian as required" if real
                    else "correctly rejected: coefficient not real")
            star.append(cqt.CheckReport(label, "pass", None, note))
        else:
            star.append(cqt.CheckReport(
                label, "fail", None,
                "sample disagrees with the real-coefficient rule"))
    return reports + star + ct, signs
