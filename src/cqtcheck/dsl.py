"""Text format for presentations and candidate blocks.

Grammar (UTF-8, line comments with #):

    field  { var = t ; conj = real | unimodular }
    gen    <name> : <dim> [ conj <name> ]
    mat    <name> : [<word>] -> [<word>] { <r>,<c> = <scalar-expr> ; ... }
    rel    <name>
    cand   <alpha> <beta> = <tensor-expr>
    param  <name> = <scalar-expr>

Words are space-separated generator names and [] is the empty word; matrix
entries use 1-based flat row/column indices into the word spaces and unset
entries are zero.  Tensor expressions combine mat names with kron(a,b),
flip(d1,d2), inv(a), tauconj(a), scalar coefficients via *, sums and the
composition operator `.`; scalar literals follow the shared syntax of the
scalars module (integers, rationals, i, t, q = t^2, ^ with integer
exponents).

Integers that size an allocation have a work budget: a generator
dimension is at most MAX_GEN_DIM (16) and each flip argument at most
MAX_FLIP_DIM (256); a larger one is a parse error at its token.  A mat word
spans at most MAX_WORD_DIM (256) indices, the product of its generators'
dimensions; a longer one is a parse error at the word.  A kron(a, b) has
at most MAX_KRON_NZ (65,536, the largest flip's) nonzeros, the product of
its factors' counts; more is a parse error at the kron, before any entry
is formed.  A composition a . b has at most as many entries, a's rows
times b's columns; more is a parse error at the `.`, before the product
is formed.

Parsing and printing round-trip: parse(dumps(doc)) reproduces doc.  dumps
prints a mat's nonzero cells from its matrix and a param from its value,
so an explicit zero cell is not printed; a cand line has no value form
and keeps its text.
"""

from __future__ import annotations

from math import isqrt, prod
from typing import NamedTuple

from .errors import (DuplicateName, NotInvertible, ParseError, ShapeError,
                     UnknownGenerator)
from .presentation import CandidateR, GeneratorSpec, Presentation, Relation
from .scalars import SYMBOLS, T, ConjMode, Scalar, TokenParser, tokenize
from .tensor import Tensor, flip, kron, tauconj

_KEYWORDS = {"field", "gen", "mat", "rel", "cand", "param", "conj", "var"}

# work budgets for the integers that size an allocation: a word of k
# generators spans up to MAX_GEN_DIM^k indices, flip(d1,d2) has d1*d2 entries,
# and a mat between two words of MAX_WORD_DIM indices has as many entries as
# flip(MAX_GEN_DIM, MAX_GEN_DIM)
MAX_GEN_DIM = 16
MAX_FLIP_DIM = MAX_GEN_DIM ** 2
MAX_WORD_DIM = MAX_GEN_DIM ** 2
# nonzeros of kron(a, b), a's times b's, and entries of a . b, a's rows
# times b's columns
MAX_KRON_NZ = MAX_FLIP_DIM ** 2


class Document(NamedTuple):
    """A parsed document: each mat as a `Relation`, whether or not a rel
    line puts it in the presentation, each param as its value, and each
    cand line as its blocks and its text, which has no value form."""

    mode: ConjMode
    presentation: Presentation
    mats: dict                  # name -> Relation
    candidate: CandidateR       # or None
    cand_exprs: dict            # (alpha, beta) -> source text
    params: dict                # name -> Scalar

    def subs(self, value) -> "Document":
        """The document with t specialized at a constant: its values, and
        its cand texts rewritten."""
        mats = {name: m._replace(matrix=m.matrix.subs(value))
                for name, m in self.mats.items()}
        cands = {} if self.candidate is None else {
            k: m.subs(value) for k, m in self.candidate.blocks.items()}
        text = _subs_text(value)
        return _assemble(
            self.mode,
            [self.presentation.generators[n] for n in self.presentation.non_unit()],
            mats, [r.name for r in self.presentation.relations], cands,
            {k: text(v) for k, v in self.cand_exprs.items()},
            {k: v.subs(value) for k, v in self.params.items()})


def _subs_text(value):
    """The rewrite of a space-joined expression text at t = value."""
    v = " ".join(tok.text for tok in tokenize(str(T.eval_at(value)))[:-1])
    spelled = {"t": f"( {v} )", "q": f"( {v} ) ^ 2"}
    return lambda text: " ".join(spelled.get(tok, tok) for tok in text.split(" "))


class _Parser(TokenParser):
    def __init__(self, text: str):
        super().__init__(text)
        self.mode = ConjMode.REAL
        self.gens = []
        self.mats = {}
        self.rels = []
        self.cands = {}
        self.cand_exprs = {}
        self.params = {}

    def expect_size(self, limit: int, what: str) -> int:
        """An integer literal that sizes an allocation, at most limit."""
        tok = self.peek()
        n = self.expect_int()
        if n > limit:
            raise ParseError(f"{what} {n} is over the limit of {limit}",
                             tok.line, tok.col)
        return n

    # -- statements ----------------------------------------------------------

    def parse(self) -> Document:
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "name":
                self.error("expected a statement keyword", sorted(_KEYWORDS))
            handler = {
                "field": self.stmt_field,
                "gen": self.stmt_gen,
                "mat": self.stmt_mat,
                "rel": self.stmt_rel,
                "cand": self.stmt_cand,
                "param": self.stmt_param,
            }.get(tok.text)
            if handler is None:
                self.error(f"unknown statement {tok.text!r}", sorted(_KEYWORDS))
            handler()
        return self.finish()

    def stmt_field(self):
        self.next()
        self.expect("punct", "{")
        while self.peek().text != "}":
            key = self.expect("name")
            self.expect("punct", "=")
            val = self.expect("name")
            if key.text == "var":
                if val.text != "t":
                    self.error("only t is supported as the field variable")
            elif key.text == "conj":
                try:
                    self.mode = ConjMode(val.text)
                except ValueError:
                    self.error("conj must be real or unimodular",
                               ("real", "unimodular"))
            else:
                self.error("field block takes var and conj", ("var", "conj"))
            if self.peek().text == ";":
                self.next()
        self.expect("punct", "}")

    def stmt_gen(self):
        self.next()
        name = self.expect("name").text
        self.expect("punct", ":")
        dim = self.expect_size(MAX_GEN_DIM, "generator dimension")
        conj = name
        if self.peek().text == "conj":
            self.next()
            conj = self.expect("name").text
        if any(g.name == name for g in self.gens):
            raise DuplicateName(f"generator {name!r}")
        self.gens.append(GeneratorSpec(name, dim, conj))

    def word(self) -> tuple:
        self.expect("punct", "[")
        out = []
        while self.peek().text != "]":
            out.append(self.expect("name").text)
        self.expect("punct", "]")
        return tuple(out)

    def mat_word(self, context):
        """A word and its generators' dimensions, spanning at most
        MAX_WORD_DIM indices."""
        tok = self.peek()
        word = self.word()
        dims = []
        table = {g.name: g.dim for g in self.gens}
        for name in word:
            if name not in table:
                raise UnknownGenerator(f"{context}: unknown generator {name!r}")
            dims.append(table[name])
        if prod(dims) > MAX_WORD_DIM:
            raise ParseError(f"mat word dimension {prod(dims)} is over the "
                             f"limit of {MAX_WORD_DIM}", tok.line, tok.col)
        return word, tuple(dims)

    def stmt_mat(self):
        self.next()
        name = self.expect("name").text
        if name in self.mats:
            raise DuplicateName(f"mat {name!r}")
        self.expect("punct", ":")
        source, sdims = self.mat_word(f"mat {name}")
        self.expect("arrow")
        target, tdims = self.mat_word(f"mat {name}")
        nrows, ncols = prod(tdims), prod(sdims)
        entries = {}  # the cells read, zeros too, so none is set twice
        self.expect("punct", "{")
        while self.peek().text != "}":
            r = self.expect_int()
            self.expect("punct", ",")
            c = self.expect_int()
            self.expect("punct", "=")
            value = self.scalar_sum()
            if not (1 <= r <= nrows and 1 <= c <= ncols):
                raise ShapeError(
                    f"mat {name!r}: entry ({r},{c}) outside {nrows}x{ncols}")
            if (r, c) in entries:
                raise DuplicateName(f"mat {name!r}: entry ({r},{c}) set twice")
            entries[(r, c)] = value
            if self.peek().text != "}":
                self.expect("punct", ";")
        self.expect("punct", "}")
        flat = {(r - 1) * ncols + (c - 1): v for (r, c), v in entries.items()}
        self.mats[name] = Relation(
            name, Tensor.from_nonzero(tdims or (), sdims or (), flat),
            source, target)

    def stmt_rel(self):
        self.next()
        tok = self.expect("name")
        name = tok.text
        if name not in self.mats:
            raise ParseError(f"rel {name!r} names no mat", tok.line, tok.col,
                             tuple(sorted(self.mats)))
        if name in self.rels:
            raise DuplicateName(f"relation {name!r}")
        self.rels.append(name)

    def stmt_cand(self):
        self.next()
        alpha = self.expect("name").text
        beta = self.expect("name").text
        self.expect("punct", "=")
        start = self.pos
        value = self.tensor_expr()
        text = " ".join(t.text for t in self.tokens[start:self.pos])
        if (alpha, beta) in self.cands:
            raise DuplicateName(f"cand {alpha} {beta}")
        self.cands[(alpha, beta)] = value
        self.cand_exprs[(alpha, beta)] = text

    def stmt_param(self):
        self.next()
        name = self.expect("name").text
        if name in self.params:
            raise DuplicateName(f"param {name!r}")
        self.expect("punct", "=")
        self.params[name] = self.scalar_sum()

    def _starts_scalar(self) -> bool:
        tok = self.peek()
        return tok.kind == "int" or tok.text in SYMBOLS

    # -- tensor expressions ---------------------------------------------------

    def tensor_expr(self) -> Tensor:
        v = self.tensor_term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            w = self.tensor_term()
            try:
                v = v + w if op == "+" else v - w
            except ShapeError as exc:
                self.error(f"tensor sum shape mismatch: {exc}")
        return v

    def tensor_term(self) -> Tensor:
        v = self.tensor_factor()
        while self.peek().text == ".":
            tok = self.next()
            w = self.tensor_factor()
            n = v.nrows * w.ncols
            if v.ncols == w.nrows and n > MAX_KRON_NZ:
                raise ParseError(f"composition entry count {n} is over the "
                                 f"limit of {MAX_KRON_NZ}", tok.line, tok.col)
            try:
                v = v @ w
            except ShapeError as exc:
                self.error(f"composition shape mismatch: {exc}")
        return v

    def tensor_factor(self) -> Tensor:
        # scalar coefficients: products of scalar atoms ending in '*'
        coeff = None
        while True:
            tok = self.peek()
            if tok.text == "-" and coeff is None:
                self.next()
                coeff = Scalar.from_int(-1)
                continue
            if self._starts_scalar() or (tok.text == "(" and
                                         self._paren_is_scalar()):
                s = self.scalar_power()
                # allow rationals like 1/2 before the '*'
                while self.peek().text == "/":
                    op = self.next()
                    w = self.scalar_power()
                    if w.is_zero():
                        self.zero_division(op, "division by zero")
                    s = s / w
                coeff = s if coeff is None else coeff * s
                self.expect("punct", "*")
                continue
            break
        atom = self.tensor_atom()
        return atom if coeff is None else atom * coeff

    def _paren_is_scalar(self) -> bool:
        # a parenthesized group is scalar when it contains no mat names or
        # tensor constructors before the matching close
        depth = 0
        k = self.pos
        while True:
            tok = self.tokens[k]
            if tok.kind == "eof":
                return False
            if tok.text == "(":
                depth += 1
            elif tok.text == ")":
                depth -= 1
                if depth == 0:
                    return True
            elif tok.kind == "name" and tok.text not in SYMBOLS:
                return False
            k += 1

    def tensor_atom(self) -> Tensor:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            v = self.tensor_expr()
            self.expect("punct", ")")
            return v
        if tok.kind != "name":
            self.error("expected a matrix name or constructor",
                       ("mat name", "kron", "flip", "inv", "tauconj"))
        if tok.text == "kron":
            self.next()
            self.expect("punct", "(")
            a = self.tensor_expr()
            self.expect("punct", ",")
            b = self.tensor_expr()
            self.expect("punct", ")")
            n = a.nnz() * b.nnz()
            if n > MAX_KRON_NZ:
                raise ParseError(f"kron nonzero count {n} is over the limit "
                                 f"of {MAX_KRON_NZ}", tok.line, tok.col)
            return kron(a, b)
        if tok.text == "flip":
            self.next()
            self.expect("punct", "(")
            d1 = self.expect_size(MAX_FLIP_DIM, "flip dimension")
            self.expect("punct", ",")
            d2 = self.expect_size(MAX_FLIP_DIM, "flip dimension")
            self.expect("punct", ")")
            return flip(d1, d2)
        if tok.text == "inv":
            self.next()
            self.expect("punct", "(")
            a = self.tensor_expr()
            self.expect("punct", ")")
            try:
                return a.inverse()
            except NotInvertible:
                self.error("inv() of a singular matrix")
        if tok.text == "tauconj":
            self.next()
            self.expect("punct", "(")
            a = self.tensor_expr()
            self.expect("punct", ")")
            if len(a.cod) != 2 or len(a.dom) != 2:
                n, m = isqrt(a.nrows), isqrt(a.ncols)
                if n * n != a.nrows or m * m != a.ncols:
                    self.error("tauconj needs two legs on each side")
                a = a.with_legs((n, n), (m, m))
            return tauconj(a, self.mode)
        if tok.text in self.mats:
            self.next()
            return self.mats[tok.text].matrix
        self.error(f"unknown matrix {tok.text!r}",
                   tuple(sorted(self.mats)) or ("a mat name",))

    def finish(self) -> Document:
        return _assemble(self.mode, self.gens, self.mats, self.rels,
                         self.cands, self.cand_exprs, self.params)


def _assemble(mode, gens, mats, rels, cands, cand_exprs, params) -> Document:
    p = Presentation(gens, [mats[n] for n in rels])
    candidate = CandidateR(p, cands) if cands else None
    return Document(mode, p, mats, candidate, cand_exprs, params)


def parse_presentation(text: str) -> Document:
    """Parse a document; errors carry line/column and expected tokens."""
    return _Parser(text).parse()


def dumps(doc: Document) -> str:
    """Canonical text for a document; parse(dumps(doc)) reproduces it."""
    lines = [f"field {{ var = t ; conj = {doc.mode.value} }}"]
    for g in doc.presentation.generators.values():
        if g.name == "1":
            continue
        suffix = f" conj {g.conj}" if g.conj != g.name else ""
        lines.append(f"gen {g.name} : {g.dim}{suffix}")
    for name, m in doc.mats.items():
        src = " ".join(m.source_word)
        tgt = " ".join(m.target_word)
        cells = m.matrix.with_legs((m.matrix.nrows,), (m.matrix.ncols,))
        body = " ; ".join(f"{r + 1},{c + 1} = {v}"
                          for (r, c), v in sorted(cells.items()))
        lines.append(f"mat {name} : [{src}] -> [{tgt}] {{ {body} }}")
    for r in doc.presentation.relations:
        lines.append(f"rel {r.name}")
    for (a, b), text in doc.cand_exprs.items():
        lines.append(f"cand {a} {b} = {text}")
    for name, value in doc.params.items():
        lines.append(f"param {name} = {value}")
    return "\n".join(lines) + "\n"
