import gc
import weakref

import pytest

from cqtcheck import catalog, cqt, lorentz
from cqtcheck.errors import DuplicateName, ShapeError, UnknownGenerator
from cqtcheck.presentation import (CandidateR, GeneratorSpec, Presentation,
                                   Relation, Saturation, mor_saturate,
                                   saturate)
from cqtcheck.scalars import ConjMode, ONE, Q, T, ZERO
from cqtcheck.tensor import SpanBasis, Tensor, flip, kron

q = Q
t = T


@pytest.fixture(scope="module")
def slq2():
    return lorentz.make_sl2(Q, 1)


@pytest.fixture(scope="module")
def lorentz_flip():
    return lorentz.make_lorentz(lorentz.make_sl2(Q, 1), flip(2, 2), ONE)


def test_presentation_validation():
    with pytest.raises(ShapeError):
        Presentation([GeneratorSpec("w", 2, "w")],
                     [Relation("bad", Tensor.identity((3,)), ("w",), ("w",))])
    with pytest.raises(UnknownGenerator):
        Presentation([GeneratorSpec("w", 2, "v")], [])
    with pytest.raises(DuplicateName):
        Presentation([GeneratorSpec("w", 2, "w"), GeneratorSpec("w", 2, "w")], [])


def test_empty_relation_list_is_valid():
    p = Presentation([GeneratorSpec("w", 2, "w")], [])
    assert p.word_dim(("w", "w")) == 4
    assert p.relations == []


def test_conjugation_involution_enforced():
    with pytest.raises(ShapeError):
        Presentation([GeneratorSpec("a", 2, "b"), GeneratorSpec("b", 3, "a")], [])


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


def test_conj_relation_involutive(slq2):
    r = slq2.presentation.relations[0]
    rc = conj_relation(slq2.presentation, r, ConjMode.REAL)
    rcc = conj_relation(slq2.presentation, rc, ConjMode.REAL)
    assert rcc.matrix == r.matrix
    assert rcc.source_word == r.source_word
    assert rcc.target_word == r.target_word
    assert rcc.name == r.name


def test_conj_relation_matches_swapped_conjugate(lorentz_flip):
    # for the invariant column E the conjugate relation is tau conj(E)
    # between the conjugate-generator words
    p = lorentz_flip.presentation
    r = next(rel for rel in p.relations if rel.name == "E")
    rc = conj_relation(p, r, ConjMode.REAL)
    assert rc.source_word == ()
    assert rc.target_word == ("wb", "wb")
    expected = flip(2, 2) @ lorentz_flip.base.E.conjugate(ConjMode.REAL)
    assert rc.matrix == expected
    assert rc.matrix == lorentz_flip.Etilde


def test_conj_relation_scalar_case():
    p = Presentation([GeneratorSpec("g", 1, "g")],
                     [Relation("r", Tensor.from_rows([[2]]), ("g",), ("g",))])
    rc = conj_relation(p, p.relations[0], ConjMode.REAL)
    assert rc.matrix == p.relations[0].matrix
    assert rc.source_word == ("g",)


def test_candidate_shape_validation(slq2):
    with pytest.raises(ShapeError):
        CandidateR(slq2.presentation, {("w", "w"): Tensor.identity((3,))})


def test_unit_blocks_are_identities(slq2):
    c = CandidateR(slq2.presentation, {("w", "w"): flip(2, 2)})
    assert c.block("1", "w") == Tensor.identity((2,))
    assert c.block("w", "1") == Tensor.identity((2,))


def test_mor_saturate_contains_pairing_composite(slq2):
    basis = mor_saturate(slq2.presentation, ("w", "w"), ("w", "w"), depth=2)
    assert len(basis) >= 2
    span = SpanBasis(16)
    for b in basis:
        span.add(b)
    ee = slq2.E @ slq2.Eprime
    assert span.contains(ee)
    assert span.contains(Tensor.identity((2, 2)))


def test_mor_saturate_empty_words(slq2):
    basis = mor_saturate(slq2.presentation, (), (), depth=2)
    assert len(basis) == 1
    assert basis[0] == Tensor.identity(())


def test_exchange_block_in_depth2_span(slq2):
    # the standard exchange block lies in the depth-2 witnessed span
    sat = saturate(slq2.presentation, depth=2)
    assert sat.contains(("w", "w"), ("w", "w"), lorentz.candidate_L(slq2, 1))


def test_saturation_monotone_in_depth(slq2):
    dims = []
    for depth in (0, 1, 2):
        sat = saturate(slq2.presentation, depth=depth)
        dims.append(len(sat.basis(("w", "w"), ("w", "w"))))
    assert dims == sorted(dims)


def _kron_only():
    """Generators a (dim 3), h (dim 1), g (dim 200) and relations A: a -> h h,
    B: h h h h -> g, with A (x) B in Mor(a h h h h, h h g)."""
    a_to_hh = Tensor.from_rows([[1, 2, 3]]).with_legs((1, 1), (3,))
    hhhh_to_g = Tensor.from_rows([[k] for k in range(1, 201)]).with_legs(
        (200,), (1, 1, 1, 1))
    p = Presentation(
        [GeneratorSpec("a", 3, "a"), GeneratorSpec("h", 1, "h"),
         GeneratorSpec("g", 200, "g")],
        [Relation("A", a_to_hh, ("a",), ("h", "h")),
         Relation("B", hhhh_to_g, ("h",) * 4, ("g",))])
    return (p, ("a", "h", "h", "h", "h"), ("h", "h", "g"),
            kron(a_to_hh, hhhh_to_g))


def test_kron_witnesses_a_product_no_padding_route_fits():
    # By the interchange law A (x) B is (A (x) 1_g) . (1_a (x) B) and
    # (1_hh (x) B) . (A (x) 1_hhhh), but the middle words a g (600
    # dimensions) and h^6 (6 letters) are both out of bounds, so only the
    # tensor product of A and B reaches it.
    p, src, dst, t = _kron_only()
    sat = saturate(p, depth=1, max_end_len=3)
    assert sat.contains(src, dst, t)
    assert len(sat.basis(src, dst)) == 1


def test_saturated_elements_are_genuine_intertwiners(slq2):
    # every basis element, inserted as a new relation, stays compatible
    # with a passing candidate family
    sat = saturate(slq2.presentation, depth=2)
    cand = lorentz.sl2_family(slq2)[0]
    basis = sat.basis(("w", "w"), ("w", "w"))
    for b in basis:
        stretched = Presentation(
            [GeneratorSpec("w", 2, "w")],
            list(slq2.presentation.relations)
            + [Relation("probe", b, ("w", "w"), ("w", "w"))],
        )
        probe_cand = CandidateR(stretched, dict(cand.blocks))
        reports = cqt.check_condition2(probe_cand, sat)
        exchange = [r for r in reports if r.check_id.startswith("exchange")]
        assert cqt.all_pass(exchange)


def test_inverse_exchange_witnessed_for_lorentz(lorentz_flip):
    sat = saturate(lorentz_flip.presentation, depth=3)
    X = lorentz_flip.X
    assert sat.contains(("w", "wb"), ("wb", "w"), X)
    assert sat.contains(("wb", "w"), ("w", "wb"), X.inverse())


@pytest.mark.parametrize("depth, witnessed", [(1, False), (2, True)])
def test_contains_looks_ahead_only_before_the_last_round(depth, witnessed):
    # R[wb, w] of the canonical lorentz-flip candidate is first stored in
    # round 2, as a composite of elements stored by round 1.  At depth 2 the
    # query forms that composite itself during round 1; at depth 1 it would
    # be a product of a round past the depth, and the verdict is the eager
    # one: no witness.
    d = catalog.resolve("lorentz-flip", None)
    p, block = d.presentation, lorentz.lorentz_family(d)[0].blocks["wb", "w"]
    src, dst = ("wb", "w"), ("w", "wb")
    assert saturate(p, depth=depth).contains(src, dst, block) is witnessed
    sat = Saturation(p, depth=depth)
    assert sat.contains(src, dst, block) is witnessed
    assert sat.reached == 1
    assert len(sat.elements.get((src, dst), ())) == 0


def test_functional_hom_unital(slq2):
    h = cqt.eval_hom(lorentz.sl2_family(slq2)[0], "w")
    assert h.value(()) == Tensor.identity((2,))
    word = (("w", 0, 0), ("w", 1, 1))
    assert h.value(word) == h.value(word[:1]) @ h.value(word[1:])


def _kron():
    """The product A (x) B of `_kron_only`, which only the tensor-product
    loop of round 1 forms."""
    p, src, dst, t = _kron_only()
    return p, 3, 1, src, dst, t


def _padding():
    """The first element of Mor(w w w, w w w) of slq2, a padding kept in
    round 1: no composition is stored at a key with both ends longer than
    max_end_len."""
    p, www = catalog.resolve("slq2", None).presentation, ("w",) * 3
    return p, 2, 1, www, www, saturate(p, depth=1).elements[www, www][0]


@pytest.mark.parametrize("pause", [_kron, _padding], ids=["kron", "padding"])
def test_saturation_stopped_inside_a_round_needs_no_cycle_collector(pause):
    # the saturation holds its round under way, which refers back to it
    # only weakly: a cycle would keep every check's saturation alive until
    # the cyclic collector runs.  Both witnesses are formed by a tensor
    # product or a padding, never by a composition that `contains` forms
    # ahead of the rounds, so the query stops at the element itself.
    p, max_end_len, rounds, src, dst, t = pause()
    sat = Saturation(p, max_end_len=max_end_len)
    assert sat.contains(src, dst, t)
    assert sat.reached == rounds
    # stopped inside the round: it stores less than the whole round does
    whole = saturate(p, depth=rounds, max_end_len=max_end_len)
    assert (sum(map(len, sat.elements.values()))
            < sum(map(len, whole.elements.values())))
    alive = weakref.ref(sat)
    gc.disable()
    try:
        del sat
        assert alive() is None
    finally:
        gc.enable()
