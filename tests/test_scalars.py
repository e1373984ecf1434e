import random
from fractions import Fraction

import pytest

from cqtcheck.errors import DivisionByZero, EvaluationPole
from cqtcheck.scalars import (ConjMode, G_ZERO, Gaussian, I, ONE, P_ONE,
                              P_ZERO, Q, Scalar, T, ZERO, gaussian_sqrt,
                              parse_scalar, pmul, poly_sqrt)

t = T
q = Q


def S(text):
    return parse_scalar(text)


def test_normalize_cancels_common_factor():
    # (t^2 - 1) / (t - 1) -> t + 1
    num = (Gaussian(-1), G_ZERO, Gaussian(1))
    den = (Gaussian(-1), Gaussian(1))
    assert Scalar.normalize(num, den) == t + 1


def test_normalize_zero_numerator():
    t3 = (G_ZERO, G_ZERO, G_ZERO, Gaussian(1))
    assert Scalar.normalize(P_ZERO, t3) == ZERO
    assert str(Scalar.normalize(P_ZERO, t3)) == "0"


def test_normalize_makes_denominator_monic():
    # (2t, 4) -> t/2
    assert Scalar.normalize((G_ZERO, Gaussian(2)), (Gaussian(4),)) == t / 2


def test_normalize_rejects_zero_denominator():
    with pytest.raises(DivisionByZero):
        Scalar.normalize(P_ONE, P_ZERO)


def test_normalize_idempotent():
    s = Scalar.normalize((Gaussian(-1), G_ZERO, Gaussian(1)),
                         (Gaussian(-1), Gaussian(1)))
    assert Scalar.normalize(*s.polys()) == s


def test_conjugate_real_mode():
    assert (I * t).conjugate(ConjMode.REAL) == -(I * t)
    x = S("(3+i)*t^2/(t-2)")
    assert x.conjugate(ConjMode.REAL).conjugate(ConjMode.REAL) == x


def test_conjugate_unimodular_mode():
    y = t + t ** -1
    assert y.conjugate(ConjMode.UNIMODULAR) == y
    x = S("(3+i)*t^2/(t-2)")
    assert x.conjugate(ConjMode.UNIMODULAR).conjugate(ConjMode.UNIMODULAR) == x
    assert t.conjugate(ConjMode.UNIMODULAR) == t ** -1


@pytest.mark.parametrize("mode", [ConjMode.REAL, ConjMode.UNIMODULAR])
def test_conjugate_is_ring_homomorphism(mode):
    rng = random.Random(7)
    for _ in range(25):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        assert (a + b).conjugate(mode) == a.conjugate(mode) + b.conjugate(mode)
        assert (a * b).conjugate(mode) == a.conjugate(mode) * b.conjugate(mode)


def test_eval_at():
    assert ((q + 1) / t).eval_at(2) == Gaussian(Fraction(5, 2))
    assert (t + 1).eval_at(-1) == Gaussian(0)
    with pytest.raises(EvaluationPole):
        (ONE / (t - 1)).eval_at(1)


def test_eval_commutes_with_arithmetic():
    rng = random.Random(11)
    pt = Gaussian(Fraction(3, 2), Fraction(-1, 3))
    for _ in range(25):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        try:
            av, bv = a.eval_at(pt), b.eval_at(pt)
            assert (a + b).eval_at(pt) == av + bv
            assert (a * b).eval_at(pt) == av * bv
        except EvaluationPole:
            pass


def _random_scalar(rng):
    def rand_poly():
        deg = rng.randrange(0, 3)
        coeffs = [Gaussian(rng.randrange(-3, 4), rng.randrange(-2, 3))
                  for _ in range(deg + 1)]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return tuple(coeffs)

    num = rand_poly()
    den = rand_poly()
    while not den:
        den = rand_poly()
    return Scalar.normalize(num if num else (Gaussian(1),), den)


def test_field_axioms_on_random_elements():
    rng = random.Random(3)
    for _ in range(30):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a and a * ONE == a
        if not a.is_zero():
            assert a * a.inverse() == ONE


def test_powers():
    assert t ** 0 == ONE
    assert t ** -2 == ONE / q
    assert (t + 1) ** 2 == q + 2 * t + 1


def test_parse_round_trip():
    cases = ["(t^2-1)/(t+2)", "t+1/2", "i", "-i*t^3", "q^2-3/4*i",
             "(1+2*i)/(t^2+i)", "2/3", "t^-4+1"]
    for text in cases:
        v = parse_scalar(text)
        assert parse_scalar(str(v)) == v


def test_parse_q_alias():
    assert parse_scalar("q") == t * t
    assert parse_scalar("q^-1") == ONE / (t * t)


def test_parse_errors_have_positions():
    from cqtcheck.errors import ParseError
    with pytest.raises(ParseError):
        parse_scalar("t +")
    with pytest.raises(ParseError):
        parse_scalar("x + 1")
    with pytest.raises(DivisionByZero):
        parse_scalar("1/0")


def test_gaussian_sqrt():
    assert gaussian_sqrt(Gaussian(4)) in (Gaussian(2), Gaussian(-2))
    assert gaussian_sqrt(Gaussian(-4)) in (Gaussian(0, 2), Gaussian(0, -2))
    assert gaussian_sqrt(Gaussian(2)) is None
    assert gaussian_sqrt(Gaussian(0, 1)) is None  # i is not a Gaussian square
    g = Gaussian(3, 4)
    r = gaussian_sqrt(g)
    assert r is not None and r * r == g


def test_poly_sqrt():
    p = pmul((Gaussian(1), Gaussian(2)), (Gaussian(1), Gaussian(2)))
    r = poly_sqrt(p)
    assert r is not None and pmul(r, r) == p
    assert poly_sqrt((Gaussian(2),)) is None
    assert poly_sqrt((Gaussian(0), Gaussian(1))) is None


def test_scalar_sqrt():
    assert Q.sqrt() in (t, -t)
    assert (q * q).sqrt() in (q, -q)
    assert Scalar.from_gaussian(Gaussian(Fraction(9, 4))).sqrt() is not None
    assert Scalar.from_int(2).sqrt() is None


def test_vanishes_at_sqrt():
    assert (q - 2).vanishes_at_sqrt(Gaussian(2))
    assert not (q + 2).vanishes_at_sqrt(Gaussian(2))
    assert (t - 2).vanishes_at_sqrt(Gaussian(4))      # rational point
    assert not (t + 2).vanishes_at_sqrt(Gaussian(4))
    assert (q - Scalar.from_gaussian(Gaussian(0, 1))).vanishes_at_sqrt(
        Gaussian(0, 1))
    with pytest.raises(EvaluationPole):
        (ONE / (q - 2)).vanishes_at_sqrt(Gaussian(2))


def test_canonical_strings_are_exact():
    s = S("(t^2-1)/(t+2)")
    assert str(s) == "(t^2-1)/(t+2)"
    assert str(t / 2) == "(1/2)*t"


def _counted_gcds(monkeypatch):
    """The argument pairs of every pgcd call from here on."""
    from cqtcheck import scalars
    calls = []
    pgcd = scalars.pgcd

    def counted(a, b):
        calls.append((a, b))
        return pgcd(a, b)

    monkeypatch.setattr(scalars, "pgcd", counted)
    return calls


def test_generic_lorentz_classification_takes_few_gcds(monkeypatch, capsys):
    # powers of t never reach a gcd, and a constant or a denominator of 1
    # takes none; the classification made 7,736 gcd calls when only
    # constants skipped it, and 526 (408 with an argument divisible by t)
    # when the Laurent monomials c*t^e did too
    from cqtcheck import cli
    calls = _counted_gcds(monkeypatch)
    assert cli.main(["check", "builtin:lorentz-flip", "--suite", "classify"]) == 0
    assert "CQT candidates: 64" in capsys.readouterr().out
    assert 0 < len(calls) <= 32
    assert all(a[0] and b[0] for a, b in calls)


@pytest.mark.parametrize("argv, most, expect", [
    (["check", "builtin:lorentz-flip", "--suite", "classify"], 243,
     "CQT candidates: 64"),
    (["mor", "builtin:slq2", "w w w", "w w w", "--depth", "3"], 198,
     "witnessed dimension 5"),
], ids=["lorentz-flip-classify", "slq2-mor-www"])
def test_saturation_takes_few_row_updates(monkeypatch, capsys, argv, most,
                                          expect):
    # the span keeps its rows in echelon form, so adding a row updates no
    # other; fully reduced rows took 351 and 310 updates
    from cqtcheck import cli, tensor
    calls = []
    axpy = tensor._axpy

    def counted(*args):
        calls.append(args)
        return axpy(*args)

    monkeypatch.setattr(tensor, "_axpy", counted)
    assert cli.main(argv) == 0
    assert expect in capsys.readouterr().out
    assert 0 < len(calls) <= most


@pytest.mark.parametrize("argv, most, expect", [
    (["check", "builtin:lorentz-flip", "--suite", "classify"], 150,
     "CQT candidates: 64"),
    (["check", "builtin:slq2"], 2, "20/20 checks passed"),
], ids=["lorentz-flip-classify", "slq2-check"])
def test_check_saturation_stops_at_the_witness(monkeypatch, capsys, argv,
                                                most, expect):
    # a check's saturation stops at the element that witnesses its last
    # block, and its query forms the composites of the next round at the
    # queried space; running each round to its end took 931 and 38 adds,
    # stopping at the stored witness 624 and 17
    from cqtcheck import cli, presentation
    calls = []
    add = presentation.Saturation.add

    def counted(self, *args):
        calls.append(args)
        return add(self, *args)

    monkeypatch.setattr(presentation.Saturation, "add", counted)
    assert cli.main(argv) == 0
    assert expect in capsys.readouterr().out
    assert 0 < len(calls) <= most


def test_slq2_saturation_takes_no_gcd(monkeypatch, capsys):
    # every entry of the saturation is a Laurent polynomial over a power of
    # t; it made 1,701 gcd calls, every one trivial once t^k is factored out
    from cqtcheck import cli
    calls = _counted_gcds(monkeypatch)
    assert cli.main(["mor", "builtin:slq2", "w w w", "w w w", "--depth", "3"]) == 0
    assert "witnessed dimension 5" in capsys.readouterr().out
    assert calls == []


# str() of t-heavy and Laurent scalars, as printed before the valuation was
# kept apart from the fraction
PRINTED = [
    (lambda: S("(1+t)/t^2"), "(t+1)/t^2"),
    (lambda: S("t^-4+1"), "(t^4+1)/t^4"),
    (lambda: S("-i*t^3"), "-i*t^3"),
    (lambda: S("(t^2-1)/(t+2)"), "(t^2-1)/(t+2)"),
    (lambda: S("t^2*(3+t)/(2+t)"), "(t^3+3*t^2)/(t+2)"),
    (lambda: S("-t^-1"), "-1/t"),
    (lambda: S("2/3*t^-3*(t-1)"), "((2/3)*t-2/3)/t^3"),
    (lambda: S("(1/2+i/3)*t^5/(t^3+2)"), "((1/2+1/3*i)*t^5)/(t^3+2)"),
    (lambda: S("1/(t^3*(t+i))"), "1/(t^4+i*t^3)"),
    (lambda: S("i*t^2/(2*t^4+3*t)"), "((1/2*i)*t)/(t^3+3/2)"),
    (lambda: S("(q-q^-1)/(t-t^-1)"), "(t^2+1)/t"),
    (lambda: S("q^2-3/4*i"), "t^4-3/4*i"),
    (lambda: S("(3+i)*t^2/(t-2)").conjugate(ConjMode.UNIMODULAR),
     "((-3/2+1/2*i))/(t^2+(-1/2)*t)"),
    (lambda: S("(1+t)/t^2").conjugate(ConjMode.UNIMODULAR), "t^2+t"),
    (lambda: S("(2+i)*t^-4+1").conjugate(ConjMode.UNIMODULAR), "(2-i)*t^4+1"),
    (lambda: S("(1-i)*t^3/(t^2+i*t+2)").conjugate(ConjMode.UNIMODULAR),
     "((1/2+1/2*i))/(t^3+(-1/2*i)*t^2+(1/2)*t)"),
    (lambda: S("-i*t^3+1/t").conjugate(ConjMode.REAL), "(i*t^4+1)/t"),
    (lambda: S("4*t^-2").sqrt(), "2/t"),
    (lambda: S("(t^2+2*t+1)/t^4").sqrt(), "(t+1)/t^2"),
    (lambda: S("-q^3*(t+i)^2/(t-3)^2").sqrt(), "(i*t^4-t^3)/(t-3)"),
    (lambda: S("-(t+i)^2/((t-3)^2*t^2)").sqrt(), "(i*t-1)/(t^2-3*t)"),
    (lambda: S("9/4*t^6").sqrt(), "(3/2)*t^3"),
]


@pytest.mark.parametrize("make, text", PRINTED, ids=[p[1] for p in PRINTED])
def test_t_heavy_scalars_print_as_pinned(make, text):
    assert str(make()) == text
