"""Classification against a member-by-member reference kept in this file.

`cqt.classify` decides each distinct exchange law, intertwiner and star/ct
comparison once per run, from a table keyed by the law and the blocks it
reads.  The reference below is the loop that preceded it: every check on
every member, each law evaluated afresh, with its own saturation.  The
classification and every report of every member must agree.  A family whose
members differ in one block only shows that the table is keyed by the blocks
a law reads, not by the law alone.
"""

from collections import Counter

import pytest

from cqtcheck import catalog, cli, cqt, lorentz
from cqtcheck.errors import NotInvertible
from cqtcheck.presentation import CandidateR, Saturation
from cqtcheck.scalars import Gaussian
from cqtcheck.tensor import tauconj

POINTS = {"generic": None, "t=1": Gaussian(1), "t=i": Gaussian(0, 1)}
DATA = ("slq2", "lorentz-flip", "lorentz-beta-minus")


def reference_condition2(p, c, witnesses):
    memo = {}
    reports = [
        cqt.defect_report(f"exchange-{side}:{rel.name}:{gamma}",
                          cqt.exchange_defect(c, rel.matrix, rel.source_word,
                                              rel.target_word, gamma, side,
                                              memo))
        for rel in p.relations for gamma in p.non_unit()
        for side in ("left", "right")]
    for (a, b), block in sorted(c.blocks.items()):
        cid = f"intertwiner:{a}:{b}"
        if witnesses.contains((a, b), (b, a), block):
            reports.append(cqt.CheckReport(cid, "pass", None, "witnessed"))
        else:
            reports.append(cqt.CheckReport(
                cid, "fail", block.first_nonzero(),
                f"no witness at depth {witnesses.depth} (not a disproof)"))
    return sorted(reports, key=lambda r: r.check_id)


def reference_star(c, mode):
    p = c.presentation
    return sorted((cqt.defect_report(
        f"star:{v}:{w}",
        tauconj(c.block(p.conj_name(w), p.conj_name(v)), mode) - c.block(v, w))
        for v in p.non_unit() for w in p.non_unit()),
        key=lambda r: r.check_id)


def reference_ct(c):
    p = c.presentation
    reports = []
    for v in p.non_unit():
        for w in p.non_unit():
            cid = f"cotriangular:{v}:{w}"
            try:
                inverse = c.block(v, w).inverse()
            except NotInvertible:
                reports.append(cqt.CheckReport(cid, "fail", None,
                                               "singular block"))
                continue
            reports.append(cqt.defect_report(cid, inverse - c.block(w, v)))
    return sorted(reports, key=lambda r: r.check_id)


def reference_classify(p, family, mode, witnesses):
    unique = {}  # members with equal blocks merged, on the blocks' key()
    for cand in family:
        unique.setdefault(tuple((ab, m.key())
                                for ab, m in sorted(cand.blocks.items())), cand)
    unique = list(unique.values())
    passing, star_passing, ct_passing, ct_star = [], [], [], []
    for idx, cand in enumerate(unique):
        if not cqt.all_pass(reference_condition2(p, cand, witnesses)):
            continue
        passing.append(idx)
        star_ok = mode is not None and cqt.all_pass(reference_star(cand, mode))
        if star_ok:
            star_passing.append(idx)
        if cqt.all_pass(reference_ct(cand)):
            ct_passing.append(idx)
            if star_ok:
                ct_star.append(idx)
    return cqt.ClassifyResult(unique, passing, star_passing, ct_passing,
                              ct_star)


def _family(name, value):
    d = catalog.resolve(name, value)
    if name == "slq2":
        return d.presentation, lorentz.sl2_family(d), None
    return d.presentation, lorentz.lorentz_family(d), d.mode


def _agree(p, family, mode):
    """Classify through one table and by the reference; compare the results
    and every report of every member.  Returns the result and the table."""
    table = cqt.LawTable()
    got = cqt.classify(family, mode, Saturation(p, 3), table)
    ref_sat = Saturation(p, 3)
    assert got == reference_classify(p, family, mode, ref_sat)
    for cand in got.candidates:
        label = cand.label
        assert cqt.check_condition2(cand, Saturation(p, 3), table) == \
            reference_condition2(p, cand, ref_sat), label
        assert cqt.check_ct(cand, table) == reference_ct(cand), label
        if mode is not None:
            assert cqt.check_star(cand, mode, table) == \
                reference_star(cand, mode), label
    return got, table


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("name", DATA)
def test_classify_matches_member_by_member_reference(name, point):
    _agree(*_family(name, POINTS[point]))


def test_table_is_keyed_by_the_blocks_a_law_reads():
    # the two members differ in the (w, wb) block alone: the second breaks
    # the laws that read it and its cotriangularity, and only those
    d = catalog.resolve("lorentz-flip", Gaussian(1))
    good = lorentz.candidate_blocks(d, 1, 3, 1, 1, lorentz.family_blocks(d))
    bad = CandidateR(d.presentation, {
        **good.blocks, (lorentz.W, lorentz.WB): good.block("w", "wb") * 2})
    result, table = _agree(d.presentation, [good, bad], d.mode)
    assert result.passing == [0]
    failing = {r.check_id for r in cqt.check_condition2(
        bad, Saturation(d.presentation, 3), table) if not r.ok()}
    reading = {law.check_id for law in cqt.exchange_laws(d.presentation)
               if ("w", "wb") in law.reads}
    assert failing and failing <= reading


def test_a_lorentz_run_decides_each_distinct_law_once(monkeypatch, capsys):
    calls = Counter()
    defect = cqt.exchange_defect

    def counted(c, W, source, target, gamma, side, memo):
        reads = sorted({(a, gamma) if side == "left" else (gamma, a)
                        for a in (*source, *target)})
        calls[id(W), gamma, side,
              tuple(c.block(*ab).key() for ab in reads)] += 1
        return defect(c, W, source, target, gamma, side, memo)

    monkeypatch.setattr(cqt, "exchange_defect", counted)
    # the cqt suite's candidate and the 64 members: 1,300 laws, 80 distinct
    assert cli.main(["check", "builtin:lorentz-flip"]) == 0
    assert "CQT candidates: 64" in capsys.readouterr().out
    assert sum(calls.values()) == len(calls) == 80


def test_lorentz_family_distinct_keys():
    # per Lorentz datum: 80 distinct laws, 12 intertwiner queries and 16
    # cotriangularity comparisons out of 1,280, 256 and 256
    d = catalog.resolve("lorentz-beta-minus", None)
    table = cqt.LawTable()
    result, _ = lorentz.classify_lorentz(d, Saturation(d.presentation, 3),
                                         table)
    assert len(result.passing) == 64
    kinds = Counter(key[0].split(":", 1)[0].split("-")[0] for key in table)
    assert (kinds["exchange"], kinds["intertwiner"], kinds["cotriangular"]) \
        == (80, 12, 16)
