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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .presentation import CandidateR, FunctionalHom, Presentation, Saturation
from .scalars import ConjMode, Scalar
from .tensor import Tensor, pad_with_identity, tauconj


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


def defect_report(check_id: str, defect: Tensor, note: str = "") -> CheckReport:
    w = defect.first_nonzero()
    if w is None:
        return CheckReport(check_id, "pass", None, note)
    return CheckReport(check_id, "fail", w, note)


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
    head, last = word[:-1], word[-1]
    head_dims = p.word_dims(head)
    dlast = p.dim(last)
    if side == "left":
        rec = _recall(memo, c, head, gamma, "left")
        return (pad_with_identity(rec, (), (dlast,))
                @ pad_with_identity(c.block(last, gamma), head_dims, ()))
    if side == "right":
        rec = _recall(memo, c, head, gamma, "right")
        return (pad_with_identity(c.block(gamma, last), head_dims, ())
                @ pad_with_identity(rec, (), (dlast,)))
    raise ValueError(f"side must be 'left' or 'right', not {side!r}")


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


def check_condition2(p: Presentation, c: CandidateR,
                     witnesses: Saturation = None, depth: int = 3):
    """Exchange-law and intertwiner reports for one candidate family.

    One report per (relation, generator) pair and side, plus one
    intertwiner report per stored block.  `witnesses` is a saturation of
    the presentation (made on demand when omitted and shared across a
    family by the callers that classify); it deepens only as far as the
    blocks need.  The laws share one word_R memo, dropped on return.
    """
    if witnesses is None:
        witnesses = Saturation(p, depth=depth)
    memo = {}
    reports = [
        defect_report(f"exchange-{side}:{rel.name}:{gamma}", exchange_defect(
            c, rel.matrix, rel.source_word, rel.target_word, gamma, side,
            memo))
        for rel in p.relations for gamma in p.non_unit()
        for side in ("left", "right")]
    for (a, b), block in sorted(c.blocks.items()):
        cid = f"intertwiner:{a}:{b}"
        if witnesses.contains((a, b), (b, a), block):
            reports.append(CheckReport(cid, "pass", None, "witnessed"))
        else:
            reports.append(CheckReport(
                cid, "fail", block.first_nonzero(),
                f"no witness at depth {witnesses.depth} (not a disproof)"))
    reports.sort(key=lambda r: r.check_id)
    return reports


def eval_hom(p: Presentation, c: CandidateR, beta: str) -> FunctionalHom:
    """Matrix evaluation map against the beta generator.

    The letter (a, i, j) evaluates to the beta-sized matrix whose (k, l)
    entry is R[a,beta][(k,i),(j,l)]; for beta the unit this is the counit
    pattern delta_ij.
    """
    db = p.dim(beta)
    values = {}
    for a in p.non_unit():
        da = p.dim(a)
        block = c.block(a, beta)
        for i in range(da):
            for j in range(da):
                values[(a, i, j)] = block.slice_legs((0,), (3,), {1: i, 2: j})
    return FunctionalHom(db, values, label=f"eval:{beta}")


def check_relations_preserved(h: FunctionalHom, p: Presentation):
    """Apply an evaluation map entrywise to both sides of every relation."""
    reports = []
    for rel in p.relations:
        sdims = p.word_dims(rel.source_word)
        tdims = p.word_dims(rel.target_word)
        rows, cols = {}, {}
        for multi, coef in sorted(rel.matrix.with_legs(tdims, sdims).items()):
            im, jm = multi[:len(tdims)], multi[len(tdims):]
            rows.setdefault(im, []).append((jm, coef))
            cols.setdefault(jm, []).append((im, coef))
        defect_witness = None
        for im in product(*map(range, tdims)):
            for jm in product(*map(range, sdims)):
                lhs = {}
                for km, coef in rows.get(im, ()):
                    word = tuple(zip(rel.source_word, km, jm))
                    lhs[word] = lhs.get(word, Scalar.from_int(0)) + coef
                rhs = {}
                for km, coef in cols.get(jm, ()):
                    word = tuple(zip(rel.target_word, im, km))
                    rhs[word] = rhs.get(word, Scalar.from_int(0)) + coef
                defect = h.value_free(lhs) - h.value_free(rhs)
                if defect_witness is None:
                    fz = defect.first_nonzero()
                    if fz is not None:
                        defect_witness = ((im, jm) + fz[0], fz[1])
        cid = f"preserved:{rel.name}:{h.label.removeprefix('eval:')}"
        if defect_witness is None:
            reports.append(CheckReport(cid, "pass"))
        else:
            reports.append(CheckReport(cid, "fail", defect_witness))
    return reports


def check_star(c: CandidateR, mode: ConjMode):
    """Compatibility of the family with the star structure.

    For each pair (v, w) the block R[v,w] must equal the leg-swapped
    entrywise conjugate of R[conj(w), conj(v)].
    """
    p = c.presentation
    reports = []
    for v in p.non_unit():
        for w in p.non_unit():
            partner = c.block(p.conj_name(w), p.conj_name(v))
            defect = tauconj(partner, mode) - c.block(v, w)
            reports.append(defect_report(f"star:{v}:{w}", defect))
    reports.sort(key=lambda r: r.check_id)
    return reports


def check_ct(c: CandidateR):
    """Cotriangularity: the inverse of each block is the opposite block."""
    p = c.presentation
    reports = []
    for v in p.non_unit():
        for w in p.non_unit():
            defect = c.block(v, w).inverse() - c.block(w, v)
            reports.append(defect_report(f"cotriangular:{v}:{w}", defect))
    reports.sort(key=lambda r: r.check_id)
    return reports


@dataclass
class ClassifyResult:
    candidates: list          # deduplicated input family
    passing: list             # indices into candidates that pass the core checks
    star_passing: list
    ct_passing: list
    ct_star_passing: list

    def counts(self):
        return {
            "cqt": len(self.passing),
            "cqt_star": len(self.star_passing),
            "ct": len(self.ct_passing),
            "ct_star": len(self.ct_star_passing),
        }


def distinct(family) -> list:
    """The members of a family with pairwise different blocks, in order."""
    unique = {}
    for cand in family:
        unique.setdefault(cand.key(), cand)
    return list(unique.values())


def classify(p: Presentation, family, mode: ConjMode = None,
             witnesses: Saturation = None, depth: int = 3) -> ClassifyResult:
    """Run the core, star and cotriangularity checks over a finite family.

    Duplicate members (equal block families) are merged before counting.
    The star tally is only computed when a conjugation mode is given and
    the presentation has a conjugation making the star check meaningful.
    """
    if witnesses is None:
        witnesses = Saturation(p, depth=depth)
    unique = distinct(family)
    passing, star_passing, ct_passing, ct_star = [], [], [], []
    for idx, cand in enumerate(unique):
        if not all_pass(check_condition2(p, cand, witnesses)):
            continue
        passing.append(idx)
        star_ok = mode is not None and all_pass(check_star(cand, mode))
        if star_ok:
            star_passing.append(idx)
        if all_pass(check_ct(cand)):
            ct_passing.append(idx)
            if star_ok:
                ct_star.append(idx)
    return ClassifyResult(unique, passing, star_passing, ct_passing, ct_star)
