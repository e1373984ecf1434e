"""Checks for coquasitriangular structure candidates on a presentation.

A candidate family assigns one exchange block R[a,b] to every pair of
generators.  The family extends to words through the two recursions

    R[word+d, g] = (R[word, g] (x) 1) . (1 (x) R[d, g]),
    R[g, word+d] = (1 (x) R[g, d]) . (R[g, word] (x) 1),

and the family is admissible when, for every relation W: source -> target
and every generator g, the two exchange laws

    (1 (x) W) . R[source, g] = R[target, g] . (W (x) 1)
    R[g, target] . (1 (x) W) = (W (x) 1) . R[g, source]

hold, and every block is an intertwiner of the corresponding word spaces.
The intertwiner requirement is certified constructively against a bounded
saturation of the relation matrices.

The same candidate induces matrix evaluation maps (one per generator) that
must preserve every relation; this is an equivalent formulation and both
code paths are exposed so they can be played against each other in tests.

The star check compares each block with the swapped conjugate of the block
of the conjugate pair, and the cotriangularity check compares each block's
inverse with the opposite block.

The exchange laws also bound each intertwiner space from above
(`mor_bound`).  A map T: src -> dst obeys the left law against g when
(1 (x) T) . R[src, g] = R[dst, g] . (T (x) 1), and the right law likewise.
This is the naturality of the braiding on comodule maps (Kassel, Quantum
Groups, GTM 155, ch. VIII): the left laws of the candidate, holding on
every relation, make its evaluation map against g (see eval_hom) well
defined on the algebra, and applied to T u^src = u^dst T it gives T's left
law; so with the right laws.  Directly: identities obey the laws; so does
a composite of maps that obey them, and by the recursions above a tensor
product; and the relation matrices obey them exactly when the candidate's
exchange laws hold.  So every element a saturation can store obeys both
laws against every generator.  The laws are linear in T, so Mor(src, dst)
lies in the nullspace of their system, and its nullity is an upper bound.
The bound needs every exchange law of the candidate on both sides, decided
exactly at the candidate's own t, and nothing else: not the intertwiner
rows, nor star or ct.
The system is taken at t = 3/2.  Its entries are polynomials in the
entries of the blocks, so where no block has a pole at 3/2 it is the
system at the candidate's t with 3/2 put for t.  A specialization can only
lower a rank (a minor nonzero at 3/2 is nonzero as a function of t), so
the nullity at 3/2 is at least the generic nullity and bounds the generic
Mor too, with constant arithmetic only; on a candidate already at a
constant t, putting 3/2 for t changes nothing.
On the built-ins the bound at t = 1 or t = i is not tight (64 and 32
against 5 on slq2 (w w w, w w w)), so under `--eval t=t0` `mor` stops at
the bound of the generic candidate (at t0 = 3/2 that is the bound at t0,
and the generic datum is not loaded), and at the one at t0 when that is
None, when the input fails to load at generic t (a datum whose axioms hold
at t0 only), or when the premise below fails.  This is exact, in three
steps.  (1) The span a saturation witnesses after d rounds does not depend
on which products it stores: one it does not store is a combination of
elements stored at its key by the same or an earlier round, and its
composites, tensor products and paddings are the same combinations of
theirs, which the rounds form by the next round.  So it is the span of the
full closure F_d, every product the rounds' bounds allow.  (2) When the
presentation at t0 is the generic one with t0 put in (the premise, which
`Presentation.specializes_to` checks at run time), F_d(t0) is F_d(generic)
at t0, element by element, and a rank can only drop when t is specialized:
the span at t0 is no larger than the generic one.  (3) The generic span
lies in the generic Mor, which the generic bound bounds.

An exchange law is a value (`Law`): its check id (relation, generator g,
side) and the block pairs it reads, R[a, g] on the left and R[g, a] on the
right for each letter a of the relation's words.  A table (`LawTable`),
kept for one run over one datum, maps a check id and the run's number for
the key() of each block the check reads to its report; the checks decide
only the keys they have not seen, so a classification decides each
distinct law, intertwiner and star/ct comparison once, not once per
member.  This is exact: a report is a function of its defect (of the
saturation's verdict at its fixed depth, for an intertwiner), and the
defect is a function of the blocks in the key.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .errors import EvaluationPole, MissingBlock, NotInvertible
from .presentation import (MAX_SPACE, CandidateR, FunctionalHom, Presentation,
                           Relation, Saturation)
from .scalars import ConjMode, Gaussian
from .tensor import Tensor, kron, pad_with_identity, tauconj

# the t at which mor_bound takes its system; no built-in block has a pole there
BOUND_POINT = Gaussian(Fraction(3, 2))


@dataclass
class CheckReport:
    check_id: str
    status: str                # "pass" | "fail" | "skipped"
    witness: tuple = None      # ((row multi-index, col multi-index), Scalar)
    note: str = ""

    def ok(self) -> bool:
        return self.status != "fail"


def all_pass(reports) -> bool:
    return all(r.ok() for r in reports)


def defect_report(check_id: str, defect: Tensor) -> CheckReport:
    w = defect.first_nonzero()
    return CheckReport(check_id, "pass" if w is None else "fail", w)


def word_R(c: CandidateR, word, gamma: str, side: str, memo=None) -> Tensor:
    """Exchange matrix of a word against a single generator.

    side "left" builds R[word, gamma], side "right" builds R[gamma, word];
    the empty word gives the identity on the gamma space.  `memo`, a dict
    kept by one check, maps (word, gamma, side) to the matrices already
    built; the recursion takes its shorter words from there.
    """
    p = c.presentation
    dg = p.dim(gamma)
    word = tuple(word)
    if not word:
        return Tensor.identity((dg,))
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    head, last = word[:-1], word[-1]
    rec = pad_with_identity(_recall(memo, c, head, gamma, side), (),
                            (p.dim(last),))
    hd = p.word_dims(head)
    if side == "left":
        return rec @ pad_with_identity(c.block(last, gamma), hd, ())
    return pad_with_identity(c.block(gamma, last), hd, ()) @ rec


def _recall(memo, c: CandidateR, word, gamma: str, side: str) -> Tensor:
    """word_R through memo; memo None builds it afresh."""
    if memo is None:
        return word_R(c, word, gamma, side)
    key = (tuple(word), gamma, side)
    if key not in memo:
        memo[key] = word_R(c, word, gamma, side, memo)
    return memo[key]


def exchange_defect(c: CandidateR, W: Tensor, source, target, gamma: str,
                    side: str, memo=None) -> Tensor:
    """lhs - rhs of one exchange law of W: source -> target against gamma.

    side "left":   (1 (x) W) . R[source, gamma] - R[target, gamma] . (W (x) 1)
    side "right":  R[gamma, target] . (1 (x) W) - (W (x) 1) . R[gamma, source]

    `memo` is the word_R memo of the calling check (see word_R); without
    one the law keeps its own.
    """
    memo = {} if memo is None else memo
    dg = (c.presentation.dim(gamma),)
    from_src = _recall(memo, c, source, gamma, side)
    to_tgt = _recall(memo, c, target, gamma, side)
    if side == "left":
        return (pad_with_identity(W, dg, ()) @ from_src
                - to_tgt @ pad_with_identity(W, (), dg))
    return (to_tgt @ pad_with_identity(W, dg, ())
            - pad_with_identity(W, (), dg) @ from_src)


class Law(NamedTuple):
    """An exchange law of a relation against a generator, on one side."""
    check_id: str
    relation: Relation
    gamma: str
    side: str
    reads: tuple               # the block pairs the law reads


def exchange_laws(p: Presentation):
    """The exchange laws of p, one per (relation, generator, side)."""
    return [Law(f"exchange-{side}:{rel.name}:{gamma}", rel, gamma, side, tuple(
        (a, gamma) if side == "left" else (gamma, a)
        for a in dict.fromkeys((*rel.source_word, *rel.target_word))))
        for rel in p.relations for gamma in p.non_unit()
        for side in ("left", "right")]


def mor_bound(c: CandidateR, src, dst):
    """An upper bound on dim Mor(src, dst), or None.

    The bound is the nullity of the equations exchange_defect(c(3/2), T,
    src, dst, gamma, side) = 0 in the entries of T, over every generator
    gamma and both sides.  Once every exchange law of c holds, on both
    sides, every T in Mor(src, dst) solves them at c's own t: the braiding
    is natural on comodule maps (Kassel, GTM 155, ch. VIII).  The
    intertwiner rows of c are not needed.  Putting 3/2 for t can only lower
    the rank, so the nullity at 3/2 bounds the one at c's t.  For generic
    c it also bounds the span a saturation of any specialization of c's
    presentation witnesses.  The module docstring gives the argument in
    full.

    None when there is no candidate, when an exchange law of c fails (either
    side, exactly, at c's own t), when c lacks a block the laws read, when a
    block of c has a pole at t = 3/2, or when the equations of one gamma and
    side, dense, would have more entries than MAX_SPACE^2, the largest
    matrix a saturation forms.
    """
    if c is None:
        return None
    p = c.presentation
    n = p.word_dim(src) * p.word_dim(dst)    # the unknowns, T's entries
    if max(map(p.dim, p.non_unit())) * n > MAX_SPACE:
        return None
    memo = {}
    try:
        for law in exchange_laws(p):
            rel = law.relation
            if not exchange_defect(c, rel.matrix, rel.source_word,
                                   rel.target_word, law.gamma, law.side,
                                   memo).is_zero():
                return None
        at, memo = c.subs(BOUND_POINT), {}
        laws = [_law_matrix(at, src, dst, gamma, side, memo)
                for gamma in p.non_unit() for side in ("left", "right")]
    except (EvaluationPole, MissingBlock):
        return None
    k, r = len(laws), max(m.nrows for m in laws)
    system = sum((m.place_legs((k, r), (n,), (1, 2), {0: i})
                  for i, m in enumerate(laws)), Tensor.zeros((k, r), (n,)))
    return n - system.rank()


def _law_matrix(c: CandidateR, src, dst, gamma: str, side: str,
                memo) -> Tensor:
    """The matrix of T -> exchange_defect(c, T, src, dst, gamma, side), for
    T: src -> dst: one row per entry of the defect, one column per entry of
    T, each in the flat order of its tensor."""
    p = c.presentation
    S, D, g = p.word_dim(src), p.word_dim(dst), p.dim(gamma)
    a = word_R(c, src, gamma, side, memo)
    b = word_R(c, dst, gamma, side, memo)
    if side == "left":
        # (1 (x) T) . a - b . (T (x) 1): rows (gamma, D) x (S, gamma)
        m = (kron(Tensor.identity((D,)), a.with_legs((g, S), (S, g)).slice_legs(
                (0, 2, 3), (1,))).slice_legs((1, 0, 2, 3), (4, 5))
             - kron(b.with_legs((g, D), (D, g)).slice_legs((0, 1, 3), (2,)),
                    Tensor.identity((S,))).slice_legs((0, 1, 3, 2), (4, 5)))
    else:
        # b . (1 (x) T) - (T (x) 1) . a: rows (D, gamma) x (gamma, S)
        m = (kron(b.with_legs((D, g), (g, D)).slice_legs((0, 1, 2), (3,)),
                  Tensor.identity((S,)))
             - kron(Tensor.identity((D,)), a.with_legs((S, g), (g, S)).slice_legs(
                 (1, 2, 3), (0,))))
    return m.with_legs((m.nrows,), (D * S,))


class LawTable(dict):
    """The reports decided in one run, keyed by check id and the run's
    number of each block the check reads.  A block gets its number once per
    run, from its key(), at the first candidate that reads it, so a lookup
    hashes small ints, not the blocks' entries."""

    def __init__(self):
        super().__init__()
        self._numbers = {}  # block key() -> its number
        self._blocks = {}   # (candidate, a, b) -> the number of its block
        self._laws = {}     # presentation -> its exchange laws

    def laws(self, p: Presentation) -> list:
        """exchange_laws(p), listed once per run."""
        if p not in self._laws:
            self._laws[p] = exchange_laws(p)
        return self._laws[p]

    def number(self, c: CandidateR, a: str, b: str) -> int:
        n = self._blocks.get((c, a, b))
        if n is None:
            n = self._blocks[c, a, b] = self._numbers.setdefault(
                c.block_key(a, b), len(self._numbers))
        return n


def _decided(table, c: CandidateR, cid: str, pairs, decide) -> CheckReport:
    """The report of check cid on c's blocks at pairs: table's, or decide()."""
    if table is None:
        return decide()
    key = (cid, *(table.number(c, a, b) for a, b in pairs))
    report = table.get(key)
    if report is None:
        report = table[key] = decide()
    return report


def check_condition2(c: CandidateR, witnesses: Saturation = None,
                     table: LawTable = None):
    """Exchange-law and intertwiner reports for one candidate family, on
    its own presentation.

    One report per (relation, generator) pair and side, plus one
    intertwiner report per stored block.  `witnesses` is a saturation of
    the presentation (made at the default depth when omitted, and shared across a
    family by the callers that classify); it runs only until each block is
    witnessed (see Saturation.contains), and the next block resumes the
    round there.
    `table` holds the reports already decided in the run, and the laws.
    The laws decided here share one word_R memo, dropped on return.
    """
    p = c.presentation
    if witnesses is None:
        witnesses = Saturation(p)
    memo = {}
    reports = [_decided(table, c, law.check_id, law.reads, lambda: defect_report(
        law.check_id, exchange_defect(
            c, law.relation.matrix, law.relation.source_word,
            law.relation.target_word, law.gamma, law.side, memo)))
        for law in (exchange_laws(p) if table is None else table.laws(p))]
    for (a, b), block in sorted(c.blocks.items()):
        cid = f"intertwiner:{a}:{b}"
        reports.append(_decided(table, c, cid, [(a, b)], lambda: CheckReport(
            cid, "pass", None, "witnessed")
            if witnesses.contains((a, b), (b, a), block) else CheckReport(
                cid, "fail", block.first_nonzero(),
                f"no witness at depth {witnesses.depth} (not a disproof)")))
    reports.sort(key=lambda r: r.check_id)
    return reports


def eval_hom(c: CandidateR, beta: str) -> FunctionalHom:
    """Matrix evaluation map against the beta generator of c's presentation.

    The letter (a, i, j) evaluates to the beta-sized matrix whose (k, l)
    entry is R[a,beta][(k,i),(j,l)]; for beta the unit this is the counit
    pattern delta_ij.
    """
    p = c.presentation
    values = {(a, i, j): c.block(a, beta).slice_legs((0,), (3,), {1: i, 2: j})
              for a in p.non_unit() for i in range(p.dim(a))
              for j in range(p.dim(a))}
    return FunctionalHom(p.dim(beta), values, label=f"eval:{beta}")


def check_relations_preserved(h: FunctionalHom, p: Presentation):
    """Apply an evaluation map entrywise to both sides of every relation."""
    reports = []
    for rel in p.relations:
        sdims, tdims = p.word_dims(rel.source_word), p.word_dims(rel.target_word)
        rows, cols = {}, {}
        for multi, coef in sorted(rel.matrix.with_legs(tdims, sdims).items()):
            im, jm = multi[:len(tdims)], multi[len(tdims):]
            rows.setdefault(im, []).append((jm, coef))
            cols.setdefault(jm, []).append((im, coef))
        witness = None
        for im, jm in product(product(*map(range, tdims)),
                              product(*map(range, sdims))):
            # distinct matrix entries give distinct words
            lhs = {tuple(zip(rel.source_word, km, jm)): coef
                   for km, coef in rows.get(im, ())}
            rhs = {tuple(zip(rel.target_word, im, km)): coef
                   for km, coef in cols.get(jm, ())}
            fz = (h.value_free(lhs) - h.value_free(rhs)).first_nonzero()
            if fz is not None:
                witness = ((im, jm) + fz[0], fz[1])
                break
        reports.append(CheckReport(
            f"preserved:{rel.name}:{h.label.removeprefix('eval:')}",
            "pass" if witness is None else "fail", witness))
    return reports


def _pair_checks(c: CandidateR, name: str, pairs, decide, table):
    """Per generator pair (v, w), decide(cid, *the blocks at pairs(v, w))."""
    gens = c.presentation.non_unit()
    reports = []
    for v in gens:
        for w in gens:
            cid, at = f"{name}:{v}:{w}", pairs(v, w)
            reports.append(_decided(table, c, cid, at, lambda: decide(
                cid, *(c.block(*ab) for ab in at))))
    reports.sort(key=lambda r: r.check_id)
    return reports


def check_star(c: CandidateR, mode: ConjMode, table: LawTable = None):
    """Compatibility of the family with the star structure.

    For each pair (v, w) the block R[v,w] must equal the leg-swapped
    entrywise conjugate of R[conj(w), conj(v)].  `table` as in
    check_condition2.
    """
    p = c.presentation
    return _pair_checks(
        c, "star", lambda v, w: ((p.conj_name(w), p.conj_name(v)), (v, w)),
        lambda cid, partner, block: defect_report(
            cid, tauconj(partner, mode) - block), table)


def check_ct(c: CandidateR, table: LawTable = None):
    """Cotriangularity: the inverse of each block is the opposite block, and
    a singular block fails.  `table` as in check_condition2."""
    return _pair_checks(c, "cotriangular", lambda v, w: ((v, w), (w, v)),
                        _cotriangular, table)


def _cotriangular(cid: str, block: Tensor, opposite: Tensor) -> CheckReport:
    try:
        return defect_report(cid, block.inverse() - opposite)
    except NotInvertible:
        return CheckReport(cid, "fail", None, "singular block")


@dataclass
class ClassifyResult:
    candidates: list          # deduplicated input family
    passing: list             # indices into candidates that pass the core checks
    star_passing: list
    ct_passing: list
    ct_star_passing: list

    def counts(self):
        return {"cqt": len(self.passing), "cqt_star": len(self.star_passing),
                "ct": len(self.ct_passing),
                "ct_star": len(self.ct_star_passing)}


def distinct(family) -> list:
    """The members of a family with pairwise different blocks, in order."""
    unique = {}
    for cand in family:
        unique.setdefault(cand.key(), cand)
    return list(unique.values())


def classify(family, mode: ConjMode = None, witnesses: Saturation = None,
             table: LawTable = None) -> ClassifyResult:
    """Run the core, star and cotriangularity checks over a finite family
    of candidates on one presentation.

    Duplicate members (equal block families) are merged before counting.
    The star tally is only computed when a conjugation mode is given and
    the presentation has a conjugation making the star check meaningful.
    The members share `witnesses` and `table` (see check_condition2), made
    here when omitted.
    """
    table = LawTable() if table is None else table
    unique = distinct(family)
    if witnesses is None and unique:
        witnesses = Saturation(unique[0].presentation)
    passing, star_passing, ct_passing, ct_star = [], [], [], []
    for idx, cand in enumerate(unique):
        if not all_pass(check_condition2(cand, witnesses, table=table)):
            continue
        passing.append(idx)
        star_ok = mode is not None and all_pass(check_star(cand, mode, table))
        if star_ok:
            star_passing.append(idx)
        if all_pass(check_ct(cand, table)):
            ct_passing.append(idx)
            if star_ok:
                ct_star.append(idx)
    return ClassifyResult(unique, passing, star_passing, ct_passing, ct_star)
