"""The keyed uea checks against the word-by-word loops they replaced.

check_rll, check_xkx and check_pairings decide each distinct defect once:
per coefficient point, keyed by the values a word's defects read.  The
loops below decide every word afresh, as the checks did before; both must
give the same reports (witnesses, first-failure labels and evaluation
counts) on the Poincare built-ins and on the perturbed datums whose
failing rows test_uea_failures.py pins.
"""

from collections import Counter

import pytest

from cqtcheck import catalog, cqt, uea
from cqtcheck.inhomogeneous import build_RQ
from cqtcheck.tensor import Tensor, flip
from test_uea_failures import DATUMS, K_BAD, K_FIXED


def reference_rll(d, max_len):
    fns = uea.Functionals(d)
    N = d.N
    P = N + 1
    cop = fns.cop
    F = flip(P, P)
    FN = flip(N, N)
    inv = d.invariant
    RF = d.R @ FN
    RZ = d.R @ d.Z
    RT = (d.R - Tensor.identity((N, N))) @ d.T
    merge = uea._Merge()
    for c, suffix in uea._samples(d, 4):
        lhom = fns.hom(c)
        rq = build_RQ(d, c)
        frqf = F @ rq @ F
        s_col = RT if inv is None else RT + inv * c
        conv = fns.conv(c)
        for word in uea._words(cop, max_len):
            B = conv.value(word)
            lx = lhom.value(word)
            Lx = lx.slice_legs(((0, N),), ((1, N),))
            Mx = lx.slice_legs(((0, N),), (), {1: N})
            eps = cop.counit_word(word)
            n = len(word)
            C = F @ B
            merge.feed(f"rll:full:len{n}", word, suffix, rq @ C - C @ frqf)
            Bll = uea._sector(B, N, False, False)
            BpN = uea._sector(B, N, True, False)
            BNp = uea._sector(B, N, False, True)
            Bpp = uea._sector(B, N, True, True)
            fBf = FN @ Bll @ FN
            merge.feed(f"rll:block-LL:len{n}", word, suffix,
                       RF @ Bll - fBf @ RF)
            merge.feed(f"rll:block-ML:len{n}", word, suffix,
                       RF @ BpN + d.Z @ Lx - fBf @ d.Z - FN @ BNp)
            merge.feed(f"rll:block-LM:len{n}", word, suffix,
                       RF @ BNp - RZ @ Lx + fBf @ RZ - FN @ BpN)
            merge.feed(f"rll:block-MM:len{n}", word, suffix,
                       RF @ Bpp + d.Z @ Mx - RZ @ Mx + s_col * eps
                       - fBf @ s_col - FN @ Bpp)
    reports = merge.reports()
    for n in range(1, max_len + 1):
        ll = merge.get(f"rll:block-LL:len{n}")
        ml = merge.get(f"rll:block-ML:len{n}")
        lm = merge.get(f"rll:block-LM:len{n}")
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


def reference_xkx(d, max_len, n):
    fns = uea.Functionals(d)
    conv = fns.conv()
    variants = [("xkx:base", uea.build_K(d))]
    if n is not None:
        variants.append(("xkx:with-invariant-row",
                         uea.build_K(d) + uea.build_mP(d, n)))
    merge = uea._Merge()
    for word in uea._words(fns.cop, max_len):
        B = conv.value(word)
        for name, K in variants:
            merge.feed(f"{name}:len{len(word)}", word, "", B @ K - K @ B)
    return merge.reports()


def reference_pairings(d, k, n, max_len):
    fns = uea.Functionals(d)
    N = d.N
    cop = fns.cop
    merge = uea._Merge()
    vector = ((0, N), (1, N), (2, N), (3, N))

    def pair(B, cod, dom, col, eps):
        return (B.slice_legs(tuple(vector[leg] for leg in cod),
                             tuple(vector[leg] for leg in dom)) @ col
                - col * eps)

    for c, suffix in uea._sample_functionals(d):
        conv = fns.conv(c)
        tag, legs = (("-twisted", ((2, 3), (0, 1))) if c is None
                     else ("", ((1, 0), (3, 2))))
        for word in uea._words(cop, max_len):
            B = conv.value(word)
            eps = cop.counit_word(word)
            if k is not None:
                merge.feed(f"pairing:column{tag}:len{len(word)}", word, suffix,
                           pair(B, legs[0], legs[1], k, eps))
            if n is not None:
                merge.feed(f"pairing:row{tag}:len{len(word)}", word, suffix,
                           pair(B, legs[1], legs[0], n, eps))
    return merge.reports()


BUILTINS = ("poincare-classical", "poincare-twisted", "poincare-abstract")


def _datum(name):
    """The datum and its (column, row) invariants as the checks get them:
    uea_suite's choice on a built-in, test_uea_failures' on a perturbed
    datum."""
    if name in DATUMS:
        return DATUMS[name](), K_BAD, K_FIXED
    d = catalog.resolve(name, None)
    k = d.invariant
    n = k if k is not None and d.R.transpose() @ k == k else None
    return d, k, n


def _rows(reports):
    return [(r.check_id, r.status, repr(r.witness), r.note) for r in reports]


CASES = [(name, max_len) for name in BUILTINS + tuple(DATUMS)
         for max_len in (1, 2)]


@pytest.mark.parametrize("name,max_len", CASES,
                         ids=[f"{name}:len{m}" for name, m in CASES])
def test_keyed_checks_equal_the_word_by_word_loops(name, max_len):
    d, k, n = _datum(name)
    fns = uea.Functionals(d)
    assert _rows(uea.check_rll(d, max_len, fns)) == \
        _rows(reference_rll(d, max_len))
    assert _rows(uea.check_xkx(d, max_len, n=n, fns=fns)) == \
        _rows(reference_xkx(d, max_len, n))
    assert _rows(uea.check_pairings(d, k=k, n=n, max_len=max_len, fns=fns)) \
        == _rows(reference_pairings(d, k, n, max_len))


@pytest.mark.parametrize("name", BUILTINS + tuple(DATUMS))
def test_the_convolution_matrix_determines_l_and_the_counit(name):
    # the bottom row of l is the counit, so B(w) restricted to the
    # translation index in its first slot is l(w) (counit axiom), and the
    # corner of l(w) is eps(w): a key of B alone partitions the words as
    # the rll key (B, l, eps) does
    d, _, _ = _datum(name)
    fns = uea.Functionals(d)
    N = d.N
    for c in {c for c, _ in uea._samples(d, 4)}:
        lhom, conv = fns.hom(c), fns.conv(c)
        for word in uea._words(fns.cop, 2):
            lx = lhom.value(word)
            assert conv.value(word).slice_legs((1,), (3,), {0: N, 2: N}) == lx
            assert lx.entry((N,), (N,)) == fns.cop.counit_word(word)


def test_rll_decides_each_distinct_key_once(monkeypatch):
    # 1,680 (word, coefficient) pairs on poincare-classical hold 50
    # distinct (B, l, eps); each takes four sector slices
    calls = Counter()
    sector = uea._sector

    def counted(B, N, first_plus, second_plus):
        calls[first_plus, second_plus] += 1
        return sector(B, N, first_plus, second_plus)

    monkeypatch.setattr(uea, "_sector", counted)
    d = catalog.resolve("poincare-classical", None)
    reports = uea.check_rll(d, 2)
    assert {r.note for r in reports if r.check_id.startswith("rll:full")} \
        == {"80 evaluations", "1600 evaluations"}
    assert sum(calls.values()) == 4 * 50
    assert set(calls.values()) == {50}
