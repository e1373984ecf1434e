"""Property tests for the exact scalar layer Q(i)(t).

Generated elements have Gaussian-rational coefficients with non-integer
parts and both monomial and general denominators.  The polynomial gcd and
division are played against a plain Euclid / long-division reference kept
here (over pairs of Fractions, so it shares no code with ``Gaussian``), and
the field operations against sympy's rational functions over QQ_I.
"""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from cqtcheck.errors import EvaluationPole  # noqa: E402
from cqtcheck.scalars import (ConjMode, G_ZERO, ONE, P_ONE,  # noqa: E402
                              T, ZERO, Gaussian, Scalar, gaussian_sqrt, padd,
                              parse_scalar, pdivmod, pgcd, pmul, pneg)

LAWS = settings(max_examples=50, deadline=None, database=None)
COEFFICIENT_LAWS = settings(max_examples=300, deadline=None, database=None)

fractions = st.one_of(st.integers(-4, 4),
                      st.fractions(min_value=-3, max_value=3,
                                   max_denominator=6))
gaussians = st.builds(Gaussian, fractions, fractions)
nonzero_gaussians = gaussians.filter(bool)


def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def pmonomial(k, c=Gaussian(1)):
    """c*t^k as a polynomial."""
    return (G_ZERO,) * k + (c,)


general_polys = st.lists(gaussians, min_size=0, max_size=3).map(_trim)
monomials = st.builds(lambda k, c: pmonomial(k, c),
                      st.integers(0, 3), nonzero_gaussians)
polys = st.one_of(general_polys, monomials)
nonzero_polys = polys.filter(bool)


@st.composite
def scalars(draw):
    return Scalar.normalize(draw(polys), draw(nonzero_polys))


modes = st.sampled_from([ConjMode.REAL, ConjMode.UNIMODULAR])


# -- Gaussian rationals ------------------------------------------------------

def _assert_canonical(g):
    assert g.d > 0
    assert gcd(g.a, g.b, g.d) == 1
    assert (g.re, g.im) == (Fraction(g.a, g.d), Fraction(g.b, g.d))


@COEFFICIENT_LAWS
@given(fractions, fractions, gaussians, nonzero_gaussians)
def test_gaussians_are_canonical(re, im, g, h):
    x = Gaussian(re, im)
    _assert_canonical(x)
    assert (x.re, x.im) == (Fraction(re), Fraction(im))
    for y in (x + g, x - g, x * g, -x, x.conj(), x / h, h.inverse(),
              (x + h) - h, (x * h) / h):
        _assert_canonical(y)
    # equal values reached along different paths: equal fields and hashes
    for y in ((x + h) - h, (x * h) / h, x.conj().conj(), -(-x)):
        assert y == x and (y.a, y.b, y.d) == (x.a, x.b, x.d)
        assert hash(y) == hash(x)
    assert bool(x) == bool(re or im)


@COEFFICIENT_LAWS
@given(gaussians)
def test_gaussian_sqrt_round_trips(g):
    root = gaussian_sqrt(g * g)
    assert root is not None and root in (g, -g)
    r = gaussian_sqrt(g)
    if r is not None:
        assert r * r == g


@COEFFICIENT_LAWS
@given(gaussians)
def test_gaussian_text_parses_back(g):
    assert parse_scalar(str(g)) == Scalar.from_gaussian(g)
    if not g.im:
        assert str(g) == str(g.re)


# -- polynomial gcd and division against a plain reference -------------------

ZERO_PAIR = (Fraction(0), Fraction(0))
ONE_PAIR = (Fraction(1), Fraction(0))


def _pairs(p):
    return tuple((c.re, c.im) for c in p)


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _strip(cs):
    cs = list(cs)
    while cs and cs[-1] == ZERO_PAIR:
        cs.pop()
    return tuple(cs)


def _ref_divmod(a, b):
    """Schoolbook long division over pairs of Fractions."""
    r = list(a)
    q = [ZERO_PAIR] * max(len(a) - len(b) + 1, 0)
    inv = _inv(b[-1])
    for k in range(len(a) - len(b), -1, -1):
        c = _mul(r[k + len(b) - 1], inv)
        q[k] = c
        for j, cb in enumerate(b):
            p = _mul(c, cb)
            r[k + j] = (r[k + j][0] - p[0], r[k + j][1] - p[1])
    return _strip(q), _strip(r[:len(b) - 1])


def _ref_monic(p):
    inv = _inv(p[-1])
    return tuple(_mul(c, inv) for c in p)


def _ref_gcd(a, b):
    """Monic gcd by the plain Euclidean algorithm."""
    a, b = _pairs(a), _pairs(b)
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return _ref_monic(a) if a else ()


def _ref_mul(a, b):
    out = [ZERO_PAIR] * (len(a) + len(b) - 1) if a and b else []
    for j, x in enumerate(a):
        for k, y in enumerate(b):
            p = _mul(x, y)
            out[j + k] = (out[j + k][0] + p[0], out[j + k][1] + p[1])
    return _strip(out)


@LAWS
@given(general_polys, monomials)
def test_monomial_gcd_matches_euclid(p, m):
    assert _pairs(pgcd(p, m)) == _ref_gcd(p, m)
    assert _pairs(pgcd(m, p)) == _ref_gcd(m, p)


@LAWS
@given(polys, nonzero_polys)
def test_gcd_matches_euclid(a, b):
    assert _pairs(pgcd(a, b)) == _ref_gcd(a, b)


@LAWS
@given(polys, nonzero_polys)
def test_divmod_matches_long_division(a, b):
    q, r = pdivmod(a, b)
    assert (_pairs(q), _pairs(r)) == _ref_divmod(_pairs(a), _pairs(b))


@LAWS
@given(general_polys, monomials)
def test_monomial_divmod_is_a_shift_and_a_scale(p, m):
    q, r = pdivmod(p, m)
    assert (_pairs(q), _pairs(r)) == _ref_divmod(_pairs(p), _pairs(m))
    assert pdivmod(pmul(p, m), m) == (p, ())


@LAWS
@given(polys, polys)
def test_mul_matches_schoolbook(a, b):
    assert _pairs(pmul(a, b)) == _ref_mul(_pairs(a), _pairs(b))
    assert pmul(a, b) == pmul(b, a)


def test_gcd_with_a_monomial_is_a_power_of_t():
    g = Gaussian
    p = (g(0), g(0), g(Fraction(1, 3), 2), g(5))       # t^2 (1/3 + 2i + 5t)
    assert pgcd(p, pmonomial(5, g(0, 7))) == pmonomial(2)
    assert pgcd(pmonomial(1, g(3)), p) == pmonomial(1)
    assert pgcd((g(1), g(1)), pmonomial(4)) == P_ONE


# -- the field -----------------------------------------------------------------

@LAWS
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert a - a == ZERO and a + (-a) == ZERO
    assert (a - b) + b == a
    if a:
        assert a * a.inverse() == ONE
        assert (b / a) * a == b


def _assert_canonical_scalar(a):
    """t^e*num/den with num and den prime to t, coprime as the reference
    gcd sees them, den monic; zero is () over 1 with e = 0."""
    assert type(a.e) is int
    if not a.num:
        assert (a.num, a.den, a.e) == ((), P_ONE, 0)
        return
    assert a.num[0] and a.den[0] and a.num[-1]
    assert a.den[-1] == Gaussian(1)
    assert _ref_gcd(a.num, a.den) == (ONE_PAIR,)
    # the full polynomials are the canonical fraction of the value
    num, den = a.polys()
    assert den[-1] == Gaussian(1)
    assert _ref_gcd(num, den) == (ONE_PAIR,)


@LAWS
@given(scalars())
def test_scalars_are_canonical(a):
    """Coprime parts and a monic denominator, as the reference gcd sees it."""
    _assert_canonical_scalar(a)
    assert Scalar.normalize(*a.polys()) == a
    assert hash(Scalar.normalize(*a.polys())) == hash(a)


# -- constants: the fast paths against the polynomial path ------------------

constants = st.builds(Scalar.from_gaussian, gaussians)


def _general_sum(a, b):
    (an, ad), (bn, bd) = a.polys(), b.polys()
    return Scalar.normalize(padd(pmul(an, bd), pmul(bn, ad)), pmul(ad, bd))


def _general_product(a, b):
    (an, ad), (bn, bd) = a.polys(), b.polys()
    return Scalar.normalize(pmul(an, bn), pmul(ad, bd))


def _general_inverse(a):
    num, den = a.polys()
    return Scalar.normalize(den, num)


def _neg(a):
    num, den = a.polys()
    return Scalar.normalize(pneg(num), den)


def _same(got, want):
    """Equal parts, field for field: a zero must be () over 1, not (0,)."""
    assert got.polys() == want.polys()
    assert (got.num, got.den, got.e) == (want.num, want.den, want.e)
    _assert_canonical_scalar(got)


@COEFFICIENT_LAWS
@given(constants, constants)
def test_constant_arithmetic_matches_the_polynomial_path(a, b):
    _same(a * b, _general_product(a, b))
    _same(a + b, _general_sum(a, b))
    _same(a - b, _general_sum(a, _neg(b)))
    # cancelled sums and differences are the canonical zero
    for zero in (a - a, a + (-a), (a + b) - (b + a), a * b - b * a):
        _same(zero, ZERO)
        assert zero.polys() == ((), P_ONE)
    for c in (a * b, a + b, a - b):
        num, den = c.polys()
        assert len(num) <= 1 and den == P_ONE
    if a:
        _same(a.inverse(), _general_inverse(a))
        _same(b / a, _general_product(b, _general_inverse(a)))
        assert a.inverse().polys()[1] == P_ONE


@LAWS
@given(constants, scalars())
def test_mixed_constant_arithmetic_matches_the_polynomial_path(c, a):
    for x, y in ((c, a), (a, c)):
        _same(x * y, _general_product(x, y))
        _same(x + y, _general_sum(x, y))
    _same(c - a, _general_sum(c, _neg(a)))
    _same(a - c, _general_sum(a, _neg(c)))
    _same((a + c) - a, _general_sum(c, ZERO))
    if a:
        _same(c / a, _general_product(c, _general_inverse(a)))


# -- Laurent monomials c*t^e: the direct paths against the polynomial path ----

def _laurent(c, e):
    """c*t^e built by normalize alone, so no arithmetic under test runs."""
    return Scalar.normalize(pmonomial(max(e, 0), c), pmonomial(max(-e, 0)))


exponents = st.integers(-4, 4)
laurents = st.builds(_laurent, nonzero_gaussians, exponents)


@st.composite
def t_heavy_scalars(draw):
    """n*t^j / (d*t^k): powers of t for the shift and scale to cancel."""
    n = pmul(draw(nonzero_polys), pmonomial(draw(st.integers(0, 3))))
    return Scalar.normalize(
        n, pmul(draw(nonzero_polys), pmonomial(draw(st.integers(0, 3)))))


def _is_laurent(a):
    """a = c*t^e: a monomial over 1, or a constant over a power of t."""
    num, den = a.polys()
    return (bool(num) and not any(num[:-1]) and not any(den[:-1])
            and 1 in (len(num), len(den)))


def _same_laurent(got, want):
    _same(got, want)
    assert _is_laurent(got)
    # c*t^e keeps its power of t in e alone: (c,) over (1,)
    assert len(got.num) == 1 == len(got.den)


@COEFFICIENT_LAWS
@given(laurents, laurents)
def test_laurent_arithmetic_matches_the_polynomial_path(a, b):
    _same_laurent(a * b, _general_product(a, b))
    _same_laurent(a.inverse(), _general_inverse(a))
    _same_laurent(a / b, _general_product(a, _general_inverse(b)))
    _same(a + b, _general_sum(a, b))
    _same(a - b, _general_sum(a, _neg(b)))
    for s in (a + b, a - b):
        _assert_canonical_scalar(s)


@COEFFICIENT_LAWS
@given(nonzero_gaussians, nonzero_gaussians, exponents)
def test_laurent_sums_at_one_exponent(c, d, e):
    a, b = _laurent(c, e), _laurent(d, e)
    _same(a + b, _general_sum(a, b))
    _same(a - b, _general_sum(a, _neg(b)))
    if c + d:
        _same_laurent(a + b, _general_sum(a, b))
    # cancelled sums and differences are the canonical zero
    for zero in (a - a, a + (-a), a + _laurent(-c, e), (a + b) - (b + a)):
        _same(zero, ZERO)
        assert zero.polys() == ((), P_ONE)


@LAWS
@given(laurents, st.one_of(scalars(), t_heavy_scalars()))
def test_mixed_laurent_arithmetic_matches_the_polynomial_path(c, a):
    for x, y in ((c, a), (a, c)):
        _same(x * y, _general_product(x, y))
        _same(x + y, _general_sum(x, y))
    _same(c - a, _general_sum(c, _neg(a)))
    _same(a - c, _general_sum(a, _neg(c)))
    _same(a / c, _general_product(a, _general_inverse(c)))
    if a:
        _same(c / a, _general_product(c, _general_inverse(a)))


def test_shift_and_scale_cancels_powers_of_t():
    g = Gaussian
    x = Scalar.normalize((g(1), g(1)), pmonomial(2))          # (1 + t)/t^2
    y = Scalar.normalize((g(0), g(0), g(3), g(1)), (g(2), g(1)))  # t^2(3+t)/(2+t)
    t_inv = Scalar.normalize(P_ONE, pmonomial(1))
    for c, a in ((T, x), (T * T * T, x), (t_inv, y), (t_inv * t_inv * t_inv, y)):
        for got in (c * a, a * c):
            _same(got, _general_product(c, a))
    assert (T * x).polys()[1] == pmonomial(1)
    assert (t_inv * y).polys()[0] == (g(0), g(3), g(1))


any_scalars = st.one_of(scalars(), t_heavy_scalars(), laurents,
                        st.builds(Scalar.from_gaussian, gaussians))


@LAWS
@given(any_scalars, any_scalars, gaussians)
def test_every_result_is_in_canonical_form(a, b, x):
    results = [a + b, a - b, b - a, a * b, -a, a.conjugate(ConjMode.REAL),
               a.conjugate(ConjMode.UNIMODULAR), (a * a).sqrt()]
    if a:
        results += [a.inverse(), b / a]
    if a.sqrt() is not None:
        results.append(a.sqrt())
    try:
        results.append(a.subs(x))
    except EvaluationPole:
        pass
    for r in results:
        _assert_canonical_scalar(r)


@LAWS
@given(any_scalars)
def test_a_product_by_one_is_the_other_operand(x):
    assert x * ONE is x
    assert ONE * x is x


@LAWS
@given(st.one_of(scalars(), t_heavy_scalars()))
def test_scalar_text_parses_back(s):
    assert parse_scalar(str(s)) == s


@LAWS
@given(scalars(), scalars(), modes)
def test_conjugation_is_an_involutive_ring_automorphism(a, b, mode):
    assert a.conjugate(mode).conjugate(mode) == a
    assert (a + b).conjugate(mode) == a.conjugate(mode) + b.conjugate(mode)
    assert (a * b).conjugate(mode) == a.conjugate(mode) * b.conjugate(mode)


@LAWS
@given(scalars(), scalars(), gaussians)
def test_eval_at_is_a_ring_homomorphism_away_from_poles(a, b, x):
    try:
        av, bv = a.eval_at(x), b.eval_at(x)
    except EvaluationPole:
        assume(False)
    assert (a + b).eval_at(x) == av + bv
    assert (a * b).eval_at(x) == av * bv
    assert (a - b).eval_at(x) == av - bv
    if bv:
        assert (a / b).eval_at(x) == av / bv


@LAWS
@given(scalars())
def test_sqrt_round_trips(a):
    root = (a * a).sqrt()
    assert root is not None and root in (a, -a)
    r = a.sqrt()
    if r is not None:
        assert r * r == a


# -- against sympy ------------------------------------------------------------

def _sympy():
    return pytest.importorskip("sympy")


def _to_poly(sp, p):
    t = sp.Symbol("t")
    coeffs = [sp.Rational(c.re.numerator, c.re.denominator)
              + sp.I * sp.Rational(c.im.numerator, c.im.denominator)
              for c in reversed(p)]
    return sp.Poly(coeffs or [0], t, domain="QQ_I")


def _canonical(sp, num, den):
    """sympy's reduced form of num/den with a monic denominator."""
    g = num.gcd(den)
    num, den = num.exquo(g), den.exquo(g)
    lead = den.LC()
    return num.quo_ground(lead), den.quo_ground(lead)


def _sym(sp, a):
    num, den = a.polys()
    return _to_poly(sp, num), _to_poly(sp, den)


@settings(max_examples=40, deadline=None, database=None)
@given(scalars(), scalars())
def test_arithmetic_matches_sympy(a, b):
    sp = _sympy()
    (an, ad), (bn, bd) = _sym(sp, a), _sym(sp, b)
    expect = {
        "add": _canonical(sp, an * bd + bn * ad, ad * bd),
        "sub": _canonical(sp, an * bd - bn * ad, ad * bd),
        "mul": _canonical(sp, an * bn, ad * bd),
    }
    got = {"add": a + b, "sub": a - b, "mul": a * b}
    if b:
        expect["div"] = _canonical(sp, an * bd, ad * bn)
        got["div"] = a / b
    for op, (num, den) in expect.items():
        assert _sym(sp, got[op]) == (num, den), op


# -- one unit object: a result equal to 1 is ONE itself ------------------------

unit_operands = st.one_of(scalars(), constants, laurents,
                          st.sampled_from([ONE, -ONE, ONE.conjugate(ConjMode.REAL)]))


def _no_stray_unit(*results):
    for r in results:
        assert r != ONE or r is ONE, r


@COEFFICIENT_LAWS
@given(unit_operands, unit_operands, gaussians, modes)
def test_every_result_equal_to_one_is_the_one_object(a, b, x, mode):
    _no_stray_unit(a + b, a - b, a * b, -a, -(-a), a.conjugate(mode),
                   a.conjugate(mode).conjugate(mode), Scalar.from_gaussian(x),
                   Scalar.normalize(*a.polys()), (a + ONE) - a,
                   b + (ONE - b), (b - ONE) * -ONE + b, a ** 0)
    if a:
        _no_stray_unit(a.inverse(), a / a, a * a.inverse(),
                       Scalar.normalize(a.polys()[0], a.polys()[0]))
    if b:
        _no_stray_unit(a / b, (a * b) / (b * a) if a else b / b)
    try:
        _no_stray_unit(a.subs(x), (a - a.subs(x) + ONE).subs(x))
    except EvaluationPole:
        pass
