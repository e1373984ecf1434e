"""The exchange-law upper bound on dim Mor(src, dst) and the stop of `mor`.

`cqt.mor_bound` is the nullity of the right exchange laws of T: src -> dst
against every generator, taken at t = 3/2.  It is pinned here where it is
tight (generic t) and where it is not (t = 1, t = i).  It is None without a
candidate, for a candidate that fails a right exchange law or lacks a
block, for one with a pole at 3/2, and over the matrix budget.  A
reference built column by column from `cqt.exchange_defect` on both sides
plays the one-sided bound against the two-sided nullity.

A `mor` saturation stops once its goal's span reaches the bound.  The
stopped basis must equal, element for element, the basis of the unaimed
saturation run to full depth, on every space of the grid below, and the
workload `mor` commands form 44 (slq2) and 5 (lorentz-flip) products.

Under `--eval`, `mor` takes the bound of the generic datum when the
datum at the value is the generic one with the value put in
(`Presentation.specializes_to`), and the bound at the value otherwise,
also when the datum fails its axioms or laws at generic t.  That rests on
a specialization witnessing no more than generic t does, which
`test_specialization_laws` draws values for.

The cross-check plays the saturation against the laws: every element the
full-depth saturation stores obeys the exchange law of every generator on
both sides.  It reads the elements through `Saturation.elements` and decides
the laws with `cqt.exchange_defect`, so it shares no code with `SpanBasis`.
"""

import contextlib
import io
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from cqtcheck import catalog, cli, cqt, dsl, lorentz
from cqtcheck.errors import UnknownGenerator
from cqtcheck.presentation import (CandidateR, GeneratorSpec, Presentation,
                                   Relation, Saturation, mor_saturate,
                                   saturate)
from cqtcheck.scalars import Q, Gaussian, parse_scalar
from cqtcheck.tensor import Tensor, flip
from test_lorentz import sl2_case2

SLQ2_DOC = Path(__file__).resolve().parents[1] / "src/cqtcheck/data/slq2.qg"
POINTS = {"generic": None, "t=1": Gaussian(1), "t=i": Gaussian(0, 1),
          "t=3/2": Gaussian(Fraction(3, 2))}
# the longest word of the grid, per datum
LETTERS = {"slq2": 3, "lorentz-flip": 2, "lorentz-beta-minus": 2}


def _datum(name, point):
    return catalog.resolve(name, POINTS[point])


def _bound(datum, src, dst):
    return cqt.mor_bound(cli._kind(datum).candidate(datum), src, dst)


def _words(text):
    return tuple(text.split())


def condition2(c):
    """check_condition2 in a run of its own."""
    return cqt.check_condition2(c, Saturation(c.presentation, 3),
                                cqt.LawTable())


def _same_basis(got, want):
    return len(got) == len(want) and all(
        a.cod == b.cod and a.dom == b.dom and a == b
        for a, b in zip(got, want))


TIGHT = [("slq2", "w w w", "w w w", 5), ("slq2", "w w", "w w", 2),
         ("lorentz-flip", "w wb", "wb w", 1), ("lorentz-flip", "w w", "w w", 2)]


@pytest.mark.parametrize("name,src,dst,dim", TIGHT)
def test_generic_bound_is_the_witnessed_dimension(name, src, dst, dim):
    datum = _datum(name, "generic")
    src, dst = _words(src), _words(dst)
    assert _bound(datum, src, dst) == dim
    assert len(mor_saturate(datum.presentation, src, dst, 3, None)) == dim


UNTIGHT = [("slq2", "w w w", "w w w", "t=1", 64),
           ("slq2", "w w w", "w w w", "t=i", 32),
           ("lorentz-flip", "w wb", "wb w", "t=1", 16),
           ("lorentz-flip", "w wb", "wb w", "t=i", 4)]


@pytest.mark.parametrize("name,src,dst,point,bound", UNTIGHT)
def test_bound_at_t1_and_ti_is_above_the_witnessed_dimension(
        name, src, dst, point, bound):
    datum = _datum(name, point)
    src, dst = _words(src), _words(dst)
    assert _bound(datum, src, dst) == bound
    assert len(mor_saturate(datum.presentation, src, dst, 3, None)) <= bound


def test_no_bound_without_a_passing_candidate_or_at_a_pole():
    # with no bound, mor runs every round to --depth
    ww = ("w", "w")
    text = SLQ2_DOC.read_text()
    assert cqt.mor_bound(dsl.parse_presentation(text).candidate, ww, ww) == 2
    bare = dsl.parse_presentation(text.split("# the standard")[0])
    assert bare.candidate is None
    assert cqt.mor_bound(bare.candidate, ww, ww) is None
    # twice the block: the laws of E and Ep are quadratic in R on one side
    doubled = dsl.parse_presentation(
        text.replace("cand w w = t *", "cand w w = 2 * t *"))
    assert not cqt.all_pass(condition2(doubled.candidate))
    assert cqt.mor_bound(doubled.candidate, ww, ww) is None
    # no relation, so no law to fail; the block has a pole at t = 3/2
    pole = dsl.parse_presentation(
        "field { var = t ; conj = real }\ngen w : 1\n"
        "cand w w = 1/(2*t - 3) * flip(1,1)\n")
    assert cqt.all_pass(condition2(pole.candidate))
    assert cqt.mor_bound(pole.candidate, ("w",), ("w",)) is None
    # no block for (w, v): the laws against v cannot be formed
    partial = dsl.parse_presentation(
        "field { var = t ; conj = real }\ngen w : 2\ngen v : 1\n"
        "cand w w = flip(2,2)\n")
    assert cqt.mor_bound(partial.candidate, ww, ww) is None


def test_no_bound_over_the_matrix_budget():
    # 20 * 20 * 20 entries of T against a 20-dimensional generator: the
    # equations of one side would be denser than MAX_SPACE^2
    p = Presentation([GeneratorSpec("a", 20, "a")], [])
    c = CandidateR(p, {("a", "a"): flip(20, 20)})
    assert cqt.mor_bound(c, ("a",), ("a",)) is None


def _column(t):
    """Every entry of t in its flat order, as a column."""
    return t.slice_legs(tuple(range(len(t.cod) + len(t.dom))), ())


@pytest.mark.parametrize("name,point", [("slq2", "generic"),
                                        ("lorentz-beta-minus", "t=i")])
def test_law_matrix_applies_the_exchange_defect(name, point):
    # a column per entry of T in T's flat order, a row per defect entry
    datum = _datum(name, point)
    c = cli._kind(datum).candidate(datum)
    p = c.presentation
    src, dst = ("w", p.conj_name("w")), (p.conj_name("w"), "w")
    n = p.word_dim(src) * p.word_dim(dst)
    T = Tensor.from_rows([[Fraction(k * 7 % 5 - 2, 1 + k % 3)
                           for k in range(r * 4, r * 4 + 4)]
                          for r in range(4)]).with_legs(
        p.word_dims(dst), p.word_dims(src))
    for gamma in p.non_unit():
        m = cqt._law_matrix(c, src, dst, gamma, {})
        assert m.ncols == n
        assert m @ _column(T) == _column(
            cqt.exchange_defect(c, T, src, dst, gamma, "right", {}))


def _two_sided_nullity(c, src, dst):
    """The nullity at t = 3/2 of the exchange laws of T: src -> dst on both
    sides, a column per unit map E_ij read off exchange_defect."""
    at, p = c.subs(cqt.BOUND_POINT), c.presentation
    S, D = p.word_dim(src), p.word_dim(dst)
    memo, columns = {}, []
    for k in range(D * S):
        unit = Tensor.from_rows([[int(i * S + j == k) for j in range(S)]
                                 for i in range(D)]).with_legs(
            p.word_dims(dst), p.word_dims(src))
        columns.append([x for gamma in p.non_unit()
                        for side in ("left", "right")
                        for x in _column(cqt.exchange_defect(
                            at, unit, src, dst, gamma, side, memo)).entries])
    return D * S - Tensor.from_rows(columns).rank()  # the system, transposed


@pytest.mark.parametrize("name,src,dst,dim", TIGHT)
def test_one_side_bounds_as_both_sides_do_where_tight(name, src, dst, dim):
    datum = _datum(name, "generic")
    c = cli._kind(datum).candidate(datum)
    src, dst = _words(src), _words(dst)
    assert cqt.mor_bound(c, src, dst) == _two_sided_nullity(c, src, dst) == dim


def test_one_side_may_bound_above_both_sides():
    # lorentz-beta-minus at t = i: mor under --eval takes the generic bound
    datum = _datum("lorentz-beta-minus", "t=i")
    c = cli._kind(datum).candidate(datum)
    src, dst = ("w",), ("wb",)
    bound, both = cqt.mor_bound(c, src, dst), _two_sided_nullity(c, src, dst)
    assert bound >= both
    assert (bound, both) == (2, 0)


def test_a_bound_below_the_witnessed_dimension_is_an_error():
    p = _datum("slq2", "generic").presentation
    ww = ("w", "w")
    with pytest.raises(ValueError):
        mor_saturate(p, ww, ww, 3, 0)  # the identity alone is dimension 1
    with pytest.raises(ValueError):
        Saturation(p, 3, goal=(ww, ww)).basis(ww, ww, 0)


@pytest.mark.parametrize("src,dst", [(("x",), ("w",)), (("w",), ("x",)),
                                     (("x",), ("x",))])
def test_mor_saturate_rejects_an_unknown_generator(src, dst):
    # checked before any round, the bound's or not
    p = _datum("slq2", "generic").presentation
    with pytest.raises(UnknownGenerator, match="'x' in a Mor word"):
        mor_saturate(p, src, dst, 3, None)
    with pytest.raises(UnknownGenerator, match="'x' in a Mor word"):
        mor_saturate(p, src, dst, 3, 1)


GRID = [(name, point) for name in LETTERS for point in POINTS]


def _spaces(p, letters):
    words = [w for n in range(letters + 1)
             for w in itertools.product(p.non_unit(), repeat=n)]
    return list(itertools.product(words, repeat=2))


@pytest.mark.parametrize("name,point", GRID,
                         ids=[f"{n}-{p}" for n, p in GRID])
def test_stopped_basis_is_the_full_depth_basis(name, point):
    datum = _datum(name, point)
    p = datum.presentation
    full = {}
    for src, dst in _spaces(p, LETTERS[name]):
        mel = max(len(src), len(dst), 2)
        if mel not in full:
            full[mel] = saturate(p, 3, max_end_len=mel)
        want = full[mel].basis(src, dst, None)
        bound = _bound(datum, src, dst)
        # tight on every space of the grid at generic t and at 3/2, where
        # every saturation below stops at its bound
        assert bound == len(want) if point in ("generic", "t=3/2") else (
            bound >= len(want)), (src, dst)
        got = mor_saturate(p, src, dst, 3, bound)
        assert _same_basis(got, want), (src, dst)


@pytest.mark.parametrize("name,point", GRID,
                         ids=[f"{n}-{p}" for n, p in GRID])
def test_every_stored_element_obeys_the_exchange_laws(name, point):
    # the unaimed saturation at full depth holds every element the aimed
    # ones store at the spaces of the grid
    datum = _datum(name, point)
    c = cli._kind(datum).candidate(datum)
    p = datum.presentation
    memo = {}
    for mel in range(2, LETTERS[name] + 1):
        sat = saturate(p, 3, max_end_len=mel)
        assert sat.elements
        for (src, dst), items in sat.elements.items():
            for t in items:
                for gamma in p.non_unit():
                    for side in ("left", "right"):
                        assert cqt.exchange_defect(
                            c, t, src, dst, gamma, side, memo).is_zero(), (
                            src, dst, gamma, side)


# the products of the workload mor commands, at every point
PRODUCTS = {"builtin:slq2": 44, "builtin:lorentz-flip": 5}


@pytest.mark.parametrize("argv", [
    [*argv, *at] for at in ([], ["--eval", "t=1"], ["--eval", "t=i"],
                            ["--eval", "t=3/2"])
    for argv in (["mor", "builtin:slq2", "w w w", "w w w", "--depth", "3"],
                 ["mor", "builtin:lorentz-flip", "w wb", "wb w", "--depth",
                  "3"])])
def test_workload_mor_forms_at_most_100_products(argv, monkeypatch):
    # exactly the counts ROADMAP item 2 gates on; at t = 1 and t = i only the
    # generic bound is tight, so these commands stop at it
    calls = []
    add = Saturation.add

    def counted(self, src, dst, t):
        calls.append((src, dst))
        return add(self, src, dst, t)

    monkeypatch.setattr(Saturation, "add", counted)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    assert "witnessed dimension" in out.getvalue()
    assert len(calls) == PRODUCTS[argv[1]]


def _run_mor(argv, monkeypatch):
    """Run a mor command that passes; return the bound run_mor gave the
    saturation and the basis it got."""
    seen = []
    real = cli.mor_saturate

    def recorded(p, src, dst, depth, bound):
        seen.append((bound, real(p, src, dst, depth, bound)))
        return seen[-1][1]

    monkeypatch.setattr(cli, "mor_saturate", recorded)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    (got,) = seen
    return got


EVALS = [(name, value) for name in LETTERS
         for value in ("t=1", "t=i", "t=3/2", "t=2")]


@pytest.mark.parametrize("name,value", EVALS,
                         ids=[f"{n}-{v}" for n, v in EVALS])
def test_mor_under_eval_stops_at_the_generic_bound(name, value, monkeypatch):
    # the generic bound is tight on every space of the grid, and a
    # specialization witnesses no more: the basis stopped there is the
    # full-depth basis at the value
    generic = _datum(name, "generic")
    p = catalog.resolve(name, cli._eval_value(value)).presentation
    full = {}
    for src, dst in _spaces(p, LETTERS[name]):
        mel = max(len(src), len(dst), 2)
        if mel not in full:
            full[mel] = saturate(p, 3, max_end_len=mel)
        bound, got = _run_mor(["mor", f"builtin:{name}", " ".join(src),
                               " ".join(dst), "--depth", "3", "--eval",
                               value], monkeypatch)
        assert bound == _bound(generic, src, dst), (src, dst)
        assert _same_basis(got, full[mel].basis(src, dst, None)), (src, dst)


@pytest.mark.parametrize("argv", [
    ["mor", "builtin:slq2", "w w w", "w w w"],
    ["mor", "builtin:lorentz-flip", "w wb", "wb w"]], ids=["slq2", "flip"])
def test_mor_at_the_bound_point_loads_only_the_datum(argv, monkeypatch):
    # at t = 3/2 the generic bound is the one at the value: both take the
    # system there, so mor loads no generic datum and bounds once
    loads, bounds = [], []
    load, bound = cli.load_input, cqt.mor_bound
    monkeypatch.setattr(cli, "load_input",
                        lambda *args: loads.append(args) or load(*args))
    monkeypatch.setattr(cqt, "mor_bound",
                        lambda *args: bounds.append(args) or bound(*args))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--depth", "3", "--eval", "t=3/2"]) == 0
    assert (len(loads), len(bounds)) == (1, 1)
    assert cqt.BOUND_POINT == Gaussian(Fraction(3, 2))


def test_premise_fails_where_the_relations_differ_at_t0(monkeypatch):
    one = Gaussian(1)
    generic = _datum("slq2", "generic")
    assert generic.presentation.specializes_to(
        _datum("slq2", "t=1").presentation, one)
    # case 2 is SL(2) at q = 1 with another E
    other = sl2_case2(Q.subs(one))
    assert not generic.presentation.specializes_to(other.presentation, one)
    # a pole of a generic relation at the value
    pole = Presentation([GeneratorSpec("w", 1, "w")], [Relation(
        "A", Tensor.from_rows([[parse_scalar("1/(2*t - 3)")]]),
        ("w",), ("w",))])
    assert not pole.specializes_to(pole, Gaussian(Fraction(3, 2)))
    # so mor at t = 1 reads the bound of case 2's candidate alone
    monkeypatch.setitem(catalog.BUILTINS, "slq2", lambda value: (
        catalog.make_slq2(None) if value is None else other))
    bounded = []
    real = cqt.mor_bound

    def spied(c, src, dst):
        bounded.append(c.presentation)
        return real(c, src, dst)

    monkeypatch.setattr(cqt, "mor_bound", spied)
    www = ("w", "w", "w")
    bound, got = _run_mor(["mor", "builtin:slq2", "w w w", "w w w",
                           "--eval", "t=1"], monkeypatch)
    assert bounded == [other.presentation]
    assert bound == real(lorentz.sl2_family(other)[0], www, www)
    assert _same_basis(
        got, saturate(other.presentation, 3, 3).basis(www, www, None))


def test_a_generic_candidate_that_fails_falls_back_to_the_bound_at_t0(
        tmp_path, monkeypatch):
    # t^3 and t^-3 for t and t^-1: the standard block at t = 1 only
    path = tmp_path / "slq2-t1.qg"
    path.write_text(SLQ2_DOC.read_text().replace(
        "cand w w = t *", "cand w w = t^3 *").replace("t^-1 * E", "t^-3 * E"))
    doc = dsl.parse_presentation(path.read_text())
    at_one = doc.subs(Gaussian(1))
    ww = ("w", "w")
    assert not cqt.all_pass(condition2(doc.candidate))
    assert cqt.all_pass(condition2(at_one.candidate))
    bound, got = _run_mor(["mor", str(path), "w w", "w w", "--eval", "t=1"],
                          monkeypatch)
    assert bound == cqt.mor_bound(at_one.candidate, ww, ww) == 16
    assert _same_basis(
        got, saturate(at_one.presentation, 3, 2).basis(ww, ww, None))


LORENTZ_USER = ("gen w : 2 conj wb\ngen wb : 2 conj w\n"
                "mat X : [w wb] -> [wb w] "
                "{ 1,1 = {x} ; 2,3 = 1 ; 3,2 = 1 ; 4,4 = 1 }\n"
                "param beta = {beta}\n")


@pytest.mark.parametrize("x,beta", [("1", "t^2"), ("t", "1")])
def test_a_datum_valid_at_t0_only_falls_back_to_the_bound_at_t0(
        x, beta, tmp_path, monkeypatch):
    # beta = t^2 breaks beta-quartic at generic t, and an X with t in it
    # exchange-duality; at t = 1 both are lorentz-flip
    path = tmp_path / "lorentz.qg"
    path.write_text(LORENTZ_USER.replace("{x}", x).replace("{beta}", beta))
    name = f"builtin:lorentz-user({path})"
    at_one = catalog.resolve("lorentz-flip", Gaussian(1))
    src, dst = ("w", "wb"), ("wb", "w")
    bound, got = _run_mor(["mor", name, "w wb", "wb w", "--eval", "t=1"],
                          monkeypatch)
    assert bound == _bound(at_one, src, dst) == 16
    assert _same_basis(
        got, saturate(at_one.presentation, 3, 2).basis(src, dst, None))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["mor", name, "w wb", "wb w", "--eval", "t=1"]) == 0
    assert out.getvalue() == (
        "Mor(w wb, wb w): witnessed dimension 1 at depth 3\n"
        "-- basis element 0\n"
        "[1  0  0  0]\n[0  0  1  0]\n[0  1  0  0]\n[0  0  0  1]\n")
