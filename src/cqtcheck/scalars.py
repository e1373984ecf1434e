"""Exact arithmetic in the field F = Q(i)(t).

Elements are rational functions in one variable t whose coefficients are
Gaussian rationals.  The deformation parameter q is represented through its
square root, q = t^2, so candidate scale factors of the form q^(1/2) and
q^(-1/2) live in F without field extensions.

Canonical form: a nonzero element is t^e * num/den, where e is an integer
and num and den are coprime polynomials prime to t (nonzero constant
terms), den monic; zero is 0/1 with e = 0.  Keeping the valuation at t
apart from the reduced fraction is the standard normal form (von zur
Gathen and Gerhard, Modern Computer Algebra).  Equality and hashing work
on canonical forms, so every identity check in the package is a decidable
symbolic-zero test.

With powers of t kept out of num and den, each operation has one path and
needs a gcd only where a denominator other than 1 takes part.  A product
adds the exponents and multiplies the parts, cancelling each numerator
against the other denominator.  A sum factors out t^min(e, e'); only a sum
at equal exponents can leave a power of t in its numerator, which moves
into e.  An inverse swaps the parts and negates e.  So the constants c
and Laurent monomials c*t^e, which most data is made of, take no gcd.

Coefficients are integer-based: a Gaussian rational (a + b*i)/d is three
ints with d > 0 and gcd(a, b, d) = 1, so its arithmetic is integer
arithmetic and needs no gcd while d = 1.  Polynomials are tuples of these,
lowest degree first, with the Euclidean algorithm and schoolbook long
division.

Two conjugation modes are supported:

* real       -- t is fixed (q real), i goes to -i;
* unimodular -- t goes to 1/t (|q| = 1), i goes to -i.

Both are involutive ring automorphisms of F.
"""

from __future__ import annotations

import enum
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import (DivisionByZero, EvaluationPole, NumberTooLong, ParseError,
                     ZeroDivisionInText)

_new = object.__new__


def _g(a: int, b: int, d: int = 1) -> "Gaussian":
    """Raw constructor for parts already in canonical form."""
    g = _new(Gaussian)
    g.a = a
    g.b = b
    g.d = d
    return g


def _gred(a: int, b: int, d: int) -> "Gaussian":
    """(a + b*i)/d for d > 0, brought to lowest terms."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _g(a, b, d)


class Gaussian:
    """A Gaussian rational (a + b*i)/d held as three ints in lowest terms.

    d > 0 and gcd(a, b, d) = 1, so equal values have equal fields; zero is
    (0, 0, 1).  The constructor takes real and imaginary parts as ints or
    anything Fraction accepts.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        rd, idn = re.denominator, im.denominator
        d = rd * idn // gcd(rd, idn)
        # lcm of reduced denominators: no prime divides a, b and d at once
        self.a = re.numerator * (d // rd)
        self.b = im.numerator * (d // idn)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other):
        d = self.d
        if d == other.d:
            if d == 1:
                return _g(self.a + other.a, self.b + other.b)
            return _gred(self.a + other.a, self.b + other.b, d)
        e = other.d
        return _gred(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other):
        d = self.d
        if d == other.d:
            if d == 1:
                return _g(self.a - other.a, self.b - other.b)
            return _gred(self.a - other.a, self.b - other.b, d)
        e = other.d
        return _gred(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __neg__(self):
        return _g(-self.a, -self.b, self.d)

    def __mul__(self, other):
        a, b, c, e = self.a, self.b, other.a, other.b
        if e:
            a, b = a * c - b * e, a * e + b * c
        else:
            a, b = a * c, b * c
        d = self.d * other.d
        if d == 1:
            return _g(a, b)
        return _gred(a, b, d)

    def inverse(self):
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if not n:
            raise DivisionByZero("inverse of 0 in Q(i)")
        return _gred(d * a, -d * b, n)

    def __truediv__(self, other):
        return self * other.inverse()

    def conj(self):
        return _g(self.a, -self.b, self.d) if self.b else self

    def __eq__(self, other):
        return (
            isinstance(other, Gaussian)
            and self.a == other.a
            and self.b == other.b
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __repr__(self):
        return f"Gaussian({self.re!r}, {self.im!r})"

    def __str__(self):
        a, b, d = self.a, self.b, self.d
        if not b:
            return _ratio_str(a, d)
        if not a:
            if b == d:
                return "i"
            if b == -d:
                return "-i"
            return f"{_ratio_str(b, d)}*i"
        sign = "+" if b > 0 else "-"
        mag = abs(b)
        istr = "i" if mag == d else f"{_ratio_str(mag, d)}*i"
        return f"{_ratio_str(a, d)}{sign}{istr}"


G_ZERO = Gaussian(0)
G_ONE = Gaussian(1)
G_I = Gaussian(0, 1)


def _digits(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # over the interpreter's digit limit
        raise NumberTooLong(
            f"an integer of more than {sys.get_int_max_str_digits()} digits "
            "is too long to print") from None


def _ratio_str(n: int, d: int) -> str:
    """n/d in lowest terms, as Fraction prints it."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return _digits(n) if d == 1 else f"{_digits(n)}/{_digits(d)}"


def gaussian_sqrt(g: Gaussian):
    """A square root of g in Q(i), or None when none exists there.

    sqrt((a + b*i)/d) = sqrt(d*(a + b*i))/d, and a square root in Q(i) of a
    Gaussian integer lies in Z[i]: with n = |d*(a + b*i)|, it is x + y*i
    with x^2 = (d*a + n)/2 and y^2 = (n - d*a)/2.
    """
    if not g:
        return G_ZERO
    u, v = g.a * g.d, g.b * g.d
    n2 = u * u + v * v
    n = isqrt(n2)
    if n * n != n2 or (u + n) % 2:
        return None
    x2, y2 = (n + u) // 2, (n - u) // 2
    x, y = isqrt(x2), isqrt(y2)
    if x * x != x2 or y * y != y2:
        return None
    # fix the relative sign so that 2xy matches Im(g)
    if v < 0:
        y = -y
    root = _gred(x, y, g.d)
    return root if root * root == g else None


# ---------------------------------------------------------------------------
# Polynomials over Q(i): tuples of Gaussian coefficients, lowest degree first,
# trailing zeros stripped.  () is the zero polynomial.
# ---------------------------------------------------------------------------

P_ZERO = ()
P_ONE = (G_ONE,)


def _ptrim(cs):
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def padd(a, b):
    if len(a) == 1 == len(b):
        c = a[0] + b[0]
        return (c,) if c.a or c.b else P_ZERO  # not c, without a call
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] = out[k] + c
    return _ptrim(out)


def pneg(a):
    return tuple([-c for c in a])


def pmul(a, b):
    if not a or not b:
        return P_ZERO
    if len(b) == 1:
        return (a[0] * b[0],) if len(a) == 1 else pscale(a, b[0])
    if len(a) == 1:
        return pscale(b, a[0])
    out = [G_ZERO] * (len(a) + len(b) - 1)
    for j, cb in enumerate(b):
        if not cb:
            continue
        for k, ca in enumerate(a):
            if ca:
                out[j + k] = out[j + k] + ca * cb
    return _ptrim(out)


def pscale(a, g: Gaussian):
    """a times the nonzero constant g: a itself when g = 1."""
    if g.a == 1 and g.d == 1 and not g.b:
        return a
    return tuple([c * g for c in a])


def _valuation(a) -> int:
    """The lowest degree with a nonzero coefficient (a nonzero)."""
    k = 0
    while not a[k]:
        k += 1
    return k


def pdivmod(a, b):
    """Quotient and remainder of a by b (b nonzero), by long division."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    inv_lead = b[-1].inverse()
    q = [G_ZERO] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b):
        if not r[-1]:
            r.pop()
            continue
        k = len(r) - len(b)
        c = r[-1] * inv_lead
        q[k] = c
        for j, cb in enumerate(b):
            r[k + j] = r[k + j] - c * cb
        r.pop()
    return _ptrim(q), _ptrim(r)


def pgcd(a, b):
    """Monic gcd via the Euclidean algorithm."""
    while b:
        a, b = b, pdivmod(a, b)[1]
    if not a:
        return P_ZERO
    return pscale(a, a[-1].inverse())


def pconj(a):
    return tuple(c.conj() for c in a)


def peval(a, x: Gaussian) -> Gaussian:
    out = G_ZERO
    for c in reversed(a):
        out = out * x + c
    return out


def poly_sqrt(a):
    """Exact square root of a polynomial over Q(i), or None."""
    if not a:
        return P_ZERO
    if (len(a) - 1) % 2:
        return None
    lead = gaussian_sqrt(a[-1])
    if lead is None:
        return None
    half = (len(a) - 1) // 2
    out = [G_ZERO] * (half + 1)
    out[half] = lead
    inv2l = (lead + lead).inverse()
    # match coefficients from the top down
    for k in range(half - 1, -1, -1):
        acc = a[k + half] if k + half < len(a) else G_ZERO
        for j in range(k + 1, half):
            if 0 <= k + half - j <= half:
                acc = acc - out[j] * out[k + half - j]
        out[k] = acc * inv2l
    cand = _ptrim(out)
    return cand if pmul(cand, cand) == a else None


def _poly_str(a) -> str:
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        parts.append(_term_str(c, k, first=not parts))
    return "".join(parts)


def _term_str(c: Gaussian, k: int, first: bool) -> str:
    if k == 0:
        body = str(c)
        if ("+" in body[1:]) or ("-" in body[1:]):
            body = f"({body})"
        return body if first else (f"+{body}" if not body.startswith("-") else body)
    var = "t" if k == 1 else f"t^{k}"
    if c == G_ONE:
        body = var
    elif c == Gaussian(-1):
        body = f"-{var}"
    else:
        cs = str(c)
        if ("+" in cs[1:]) or ("-" in cs[1:]) or ("/" in cs) or ("*" in cs):
            cs = f"({cs})"
        body = f"{cs}*{var}"
    if first or body.startswith("-"):
        return body
    return f"+{body}"


class ConjMode(enum.Enum):
    """Conjugation semantics for the transcendental t."""

    REAL = "real"          # t fixed: q real
    UNIMODULAR = "unimodular"  # t -> 1/t: |q| = 1


def _scalar(num, den, e) -> "Scalar":
    """t^e*num/den from canonical parts: ONE itself when the value is 1."""
    if not e and len(num) == 1 and len(den) == 1:
        g = num[0]
        if g.a == 1 and g.d == 1 and not g.b:
            return ONE
    s = _new(Scalar)
    s.num = num
    s.den = den
    s.e = e
    s._hash = None
    return s


def _monic(num, den, e) -> "Scalar":
    """t^e*num/den over coprime t-free num and den, scaled so den is monic."""
    lead = den[-1]
    if lead.a != 1 or lead.d != 1 or lead.b:
        inv = lead.inverse()
        num, den = pscale(num, inv), pscale(den, inv) if len(den) > 1 else P_ONE
    return _scalar(num, den, e)


def _cancel(a, b):
    """a and b (nonzero, t-free) divided by their monic gcd; a constant
    has no factor to cancel."""
    if len(a) > 1 < len(b):
        g = pgcd(a, b)
        if len(g) > 1:
            return pdivmod(a, g)[0], pdivmod(b, g)[0]
    return a, b


class Scalar:
    """A rational function in t over Q(i): t^e * num/den in canonical form.

    e is an integer; num and den are polynomials prime to t (nonzero
    constant terms), coprime, with den monic.  Zero is () over (1,) with
    e = 0, so `num` is empty exactly for zero.  `polys` gives the value as
    one fraction of full polynomials.

    Construct through the classmethods, the arithmetic or the module
    constants; the raw constructor trusts its parts to be canonical already.

    There is one unit object: every Scalar this module returns with value 1
    is ONE itself, because every result is made by `_scalar`.  The tensor
    kernels rely on it to skip products by 1 with an `is ONE` test.
    """

    __slots__ = ("num", "den", "e", "_hash")

    def __init__(self, num, den, e=0):
        self.num = num
        self.den = den
        self.e = e
        self._hash = None

    @staticmethod
    def normalize(num, den) -> "Scalar":
        """Reduce the polynomial fraction num/den to canonical form."""
        if not den:
            raise DivisionByZero("scalar with zero denominator")
        if not num:
            return ZERO
        j, k = _valuation(num), _valuation(den)
        num, den = _cancel(num[j:], den[k:])
        return _monic(num, den, j - k)

    @classmethod
    def from_gaussian(cls, g: Gaussian) -> "Scalar":
        return _scalar((g,), P_ONE, 0) if g else ZERO

    @classmethod
    def from_int(cls, n) -> "Scalar":
        return cls.from_gaussian(Gaussian(n))

    def polys(self):
        """(numerator, denominator): t^max(e, 0)*num and t^max(-e, 0)*den,
        the value as a fraction of coprime polynomials, denominator monic."""
        e = self.e
        if e > 0:
            return (G_ZERO,) * e + self.num, self.den
        if e < 0:
            return self.num, (G_ZERO,) * -e + self.den
        return self.num, self.den

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = _coerce(other)
        if not self.num:
            return other
        if not other.num:
            return self
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1 != d2:
            n1, n2, d1 = pmul(n1, d2), pmul(n2, d1), pmul(d1, d2)
        # factor out t^min(e, e')
        e = self.e
        k = other.e - e
        if k > 0:
            n2 = (G_ZERO,) * k + n2
        elif k < 0:
            n1 = (G_ZERO,) * -k + n1
            e = other.e
        num = padd(n1, n2)
        if not num:
            return ZERO
        # only at equal exponents can a sum of terms lose its constant term
        if not k and len(num) > 1 and not num[0]:
            k = _valuation(num)
            num, e = num[k:], e + k
        if len(d1) > 1:
            num, d1 = _cancel(num, d1)
        return _scalar(num, d1, e)  # d1 over a monic gcd stays monic

    __radd__ = __add__

    def __neg__(self):
        return _scalar(pneg(self.num), self.den, self.e)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            other = _coerce(other)
        if self is ONE:
            return other
        if other is ONE:
            return self
        n1, n2 = self.num, other.num
        if not n1 or not n2:
            return ZERO
        # each numerator can share a factor only with the other denominator,
        # and a denominator of 1 has none; monic denominators stay monic
        d1, d2 = self.den, other.den
        if len(d2) > 1:
            n1, d2 = _cancel(n1, d2)
        if len(d1) > 1:
            n2, d1 = _cancel(n2, d1)
        den = d2 if len(d1) == 1 else d1 if len(d2) == 1 else pmul(d1, d2)
        return _scalar(pmul(n1, n2), den, self.e + other.e)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self.num:
            raise DivisionByZero("inverse of zero scalar")
        return _monic(self.den, self.num, -self.e)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("scalar exponents must be integers")
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates and structure ------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return not self.e and self.num == P_ONE and self.den == P_ONE

    def is_constant(self) -> bool:
        return not self.e and len(self.num) <= 1 and len(self.den) == 1

    def constant_value(self) -> Gaussian:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.num[0] if self.num else G_ZERO

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            if isinstance(other, (int, Fraction, Gaussian)):
                other = _coerce(other)
            else:
                return NotImplemented
        return (self.e == other.e and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den, self.e))
        return self._hash

    def __bool__(self):
        return bool(self.num)

    # -- conjugation, evaluation, substitution ------------------------------

    def conjugate(self, mode: ConjMode) -> "Scalar":
        if not self.num:
            return ZERO
        num, den = pconj(self.num), pconj(self.den)
        if mode is ConjMode.REAL:
            return _scalar(num, den, self.e)
        # t -> 1/t: p(1/t) = t^(-deg p) * reversed(p), and reversing a
        # polynomial prime to t leaves it prime to t and of the same degree
        return _monic(num[::-1], den[::-1], len(den) - len(num) - self.e)

    def eval_at(self, value) -> Gaussian:
        """Evaluate at t = value in Q(i); raises EvaluationPole at poles."""
        if not isinstance(value, Gaussian):
            value = Gaussian(value)
        num, den = self.polys()
        d = peval(den, value)
        if not d:
            raise EvaluationPole(f"pole of {self} at t={value}")
        return peval(num, value) / d

    def subs(self, value) -> "Scalar":
        """Substitute a constant for t, returning a constant Scalar."""
        return Scalar.from_gaussian(self.eval_at(value))

    def sqrt(self):
        """A square root in F, or None when none exists."""
        if not self.num:
            return ZERO
        if self.e % 2:
            return None
        lead = self.num[-1]
        rn = poly_sqrt(pscale(self.num, lead.inverse()))
        rd = poly_sqrt(self.den)
        rl = gaussian_sqrt(lead)
        if rn is None or rd is None or rl is None:
            return None
        # roots of polynomials prime to t are prime to t, and coprime; rd is
        # monic, as the root poly_sqrt takes of a monic polynomial
        return _scalar(pscale(rn, rl), rd, self.e // 2)

    def vanishes_at_sqrt(self, q0: Gaussian) -> bool:
        """Decide whether self(t0) = 0 for t0 a square root of q0 in C.

        Exact even when t0 lies outside Q(i): reduce modulo t^2 - q0 and use
        the Q(i)-linear independence of 1 and t0.  Raises EvaluationPole when
        the denominator vanishes at t0.
        """
        t0 = gaussian_sqrt(q0)
        if t0 is not None:
            return not self.eval_at(t0)
        # t0 is not 0, so the factor t^e neither vanishes nor has a pole there
        modulus = (-q0, G_ZERO, G_ONE)  # t^2 - q0
        dr = pdivmod(self.den, modulus)[1]
        if not dr:
            raise EvaluationPole(f"pole of {self} at t=sqrt({q0})")
        nr = pdivmod(self.num, modulus)[1]
        return not nr

    # -- presentation --------------------------------------------------------

    def __str__(self):
        num, den = self.polys()
        ns = _poly_str(num)
        if den == P_ONE:
            return ns
        ds = _poly_str(den)
        multi_n = sum(1 for c in num if c) > 1
        multi_d = sum(1 for c in den if c) > 1 or ("*" in ds)
        if multi_n or "*" in ns or "/" in ns:
            ns = f"({ns})"
        if multi_d or "/" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"Scalar({self})"


def _coerce(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, Gaussian):
        return Scalar.from_gaussian(x)
    if isinstance(x, (int, Fraction)):
        return Scalar.from_gaussian(Gaussian(x))
    raise TypeError(f"cannot coerce {x!r} to Scalar")


ZERO = Scalar(P_ZERO, P_ONE)
ONE = Scalar(P_ONE, P_ONE)
I = Scalar((G_I,), P_ONE)
T = Scalar(P_ONE, P_ONE, 1)
Q = T * T  # q = t^2


# ---------------------------------------------------------------------------
# Scalar literal expressions: integers, rationals p/q, i, t, q (= t^2) with
# + - * / ^ (integer exponents, negative allowed) and parentheses.  The one
# grammar runs over the token stream of the presentation DSL, so matrix
# entries, params, tensor coefficients and --eval values parse alike and
# errors carry the line and column of the offending token.
# ---------------------------------------------------------------------------

SYMBOLS = {"i": I, "t": T, "q": Q}

_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t]+)|(?P<comment>#[^\n]*)|(?P<nl>\n)|(?P<arrow>->)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)"
    r"|(?P<punct>[{}\[\]():;,=+\-*/^.])"
)


@dataclass
class Token:
    kind: str   # name | int | punct | arrow | eof
    text: str
    line: int
    col: int


def tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(lexeme)
        else:
            tokens.append(Token(kind, lexeme, line, col))
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class TokenParser:
    """Recursive descent over the tokens of a text; the scalar grammar.

        sum     = product (("+" | "-") product)*
        product = unary (("*" | "/") unary)*
        unary   = ("-" | "+") unary | power
        power   = atom ("^" ["-"] int)*
        atom    = int | i | t | q | "(" sum ")"
    """

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, msg: str, expected=()):
        tok = self.peek()
        raise ParseError(msg, tok.line, tok.col, expected)

    def expect(self, kind: str, text: str = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            self.error(f"expected {want!r}, found {tok.text!r}", (want,))
        return self.next()

    def expect_int(self) -> int:
        tok = self.expect("int")
        try:
            return int(tok.text)
        except ValueError:  # over the interpreter's digit limit
            raise ParseError(f"integer literal of {len(tok.text)} digits is too long",
                             tok.line, tok.col) from None

    def scalar_sum(self) -> Scalar:
        v = self.scalar_product()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            w = self.scalar_product()
            v = v + w if op == "+" else v - w
        return v

    def zero_division(self, op: Token, msg: str):
        raise ZeroDivisionInText(f"{msg} in scalar expression", op.line, op.col)

    def scalar_product(self) -> Scalar:
        v = self.scalar_unary()
        while self.peek().text in ("*", "/"):
            op = self.next()
            w = self.scalar_unary()
            if op.text == "*":
                v = v * w
            elif w.is_zero():
                self.zero_division(op, "division by zero")
            else:
                v = v / w
        return v

    def scalar_unary(self) -> Scalar:
        if self.peek().text == "-":
            self.next()
            return -self.scalar_unary()
        if self.peek().text == "+":
            self.next()
            return self.scalar_unary()
        return self.scalar_power()

    def scalar_power(self) -> Scalar:
        v = self.scalar_atom()
        while self.peek().text == "^":
            op = self.next()
            neg = self.peek().text == "-"
            if neg:
                self.next()
            k = self.expect_int()
            if neg and k and v.is_zero():
                self.zero_division(op, "zero to a negative power")
            v = v ** (-k if neg else k)
        return v

    def scalar_atom(self) -> Scalar:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            v = self.scalar_sum()
            self.expect("punct", ")")
            return v
        if tok.kind == "int":
            return Scalar.from_int(self.expect_int())
        if tok.kind == "name":
            if tok.text in SYMBOLS:
                self.next()
                return SYMBOLS[tok.text]
            self.error(f"unknown scalar symbol {tok.text!r}", tuple(SYMBOLS))
        self.error("expected a scalar atom", ("number", "i", "t", "q", "("))


def parse_scalar(text: str) -> Scalar:
    """Parse a scalar literal expression into canonical form."""
    parser = TokenParser(text)
    v = parser.scalar_sum()
    if parser.peek().kind != "eof":
        parser.error(f"unexpected {parser.peek().text!r} in scalar expression")
    return v
