"""Registry of built-in data addressable from the command line.

Built-ins are constructed symbolically over the exact field and may be
specialized at a numeric value of t afterwards.  Names accept one
parenthesized argument where noted:

    slq2                      one self-conjugate generator, generic q = t^2
    lorentz-flip              conjugate pair with X the swap map, beta = 1
    lorentz-beta-minus        an admissible X with beta = -1
    lorentz-user(<file>)      X (mat "X") and optional beta from a document
    poincare-classical        translations over lorentz-flip at q = 1
    poincare-abstract         abstract mode, R the swap on four dimensions
    poincare-twisted          abstract mode with a nonsymmetric involution
"""

from __future__ import annotations

from . import dsl, lorentz
from .errors import ForbiddenParameter
from .inhomogeneous import InhomDatum, abstract_datum, poincare_from_lorentz
from .scalars import I, ONE, Q, Scalar
from .tensor import Tensor, flip, kron


def make_slq2(value=None) -> lorentz.SL2Datum:
    q = Q if value is None else Q.subs(value)
    return lorentz.make_sl2(q, 1)


def make_lorentz_flip(value=None) -> lorentz.LorentzDatum:
    return lorentz.make_lorentz(make_slq2(value), flip(2, 2), ONE)


def make_lorentz_beta_minus(value=None) -> lorentz.LorentzDatum:
    a = Tensor.from_rows([[I, 0], [0, -I]])
    b = Tensor.from_rows([[-1, 0], [0, 1]])
    x = flip(2, 2) @ kron(a, b)
    return lorentz.make_lorentz(make_slq2(value), x, Scalar.from_int(-1))


def make_lorentz_user(path: str, value=None) -> lorentz.LorentzDatum:
    with open(path, encoding="utf-8") as fh:
        doc = dsl.parse_presentation(fh.read())
    if "X" not in doc.mats:
        raise ForbiddenParameter(f"{path}: a user Lorentz datum needs mat X")
    x = doc.mats["X"].matrix
    beta = doc.params.get("beta", ONE)
    base = make_slq2(value)
    if value is not None:
        x = x.subs(value)
        beta = beta.subs(value)
    return lorentz.make_lorentz(base, x, beta, doc.mode)


def make_poincare_classical(value=None) -> InhomDatum:
    if value is not None and Q.subs(value) != ONE:
        raise ForbiddenParameter("the classical datum lives at q = 1")
    return poincare_from_lorentz(make_lorentz_flip(1))


def make_poincare_abstract(value=None) -> InhomDatum:
    r = flip(4, 4)
    m = Tensor((4, 4), (), [ONE if i == j else Scalar.from_int(0)
                            for i in range(4) for j in range(4)])
    return abstract_datum(r, invariants=[m])


def make_poincare_twisted(value=None) -> InhomDatum:
    d = Tensor.from_rows([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    r = (flip(4, 4) @ kron(d, d.inverse())).with_legs((4, 4), (4, 4))
    return abstract_datum(r)


BUILTINS = {
    "slq2": make_slq2,
    "lorentz-flip": make_lorentz_flip,
    "lorentz-beta-minus": make_lorentz_beta_minus,
    "poincare-classical": make_poincare_classical,
    "poincare-abstract": make_poincare_abstract,
    "poincare-twisted": make_poincare_twisted,
}


def resolve(name: str, value=None):
    """Instantiate a built-in, handling the one-argument forms."""
    if name.startswith("lorentz-user(") and name.endswith(")"):
        return make_lorentz_user(name[len("lorentz-user("):-1], value)
    try:
        builder = BUILTINS[name]
    except KeyError:
        raise ForbiddenParameter(
            f"unknown builtin {name!r}; available: "
            f"{', '.join(sorted(BUILTINS))}, lorentz-user(<file>)") from None
    return builder(value)
