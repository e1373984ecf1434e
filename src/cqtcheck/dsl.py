"""Text format for presentations, candidate blocks and datum tables.

Grammar (UTF-8, line comments with #):

    field  { var = t ; conj = real | unimodular }
    gen    <name> : <dim> [ conj <name> ]
    mat    <name> : [<word>] -> [<word>] { <r>,<c> = <scalar-expr> ; ... }
    rel    <name>
    cand   <alpha> <beta> = <tensor-expr>
    table  rep <name> { G = <tensor-expr> [ ; H = <tensor-expr> ] }
    param  <name> = <scalar-expr>

Words are space-separated generator names and [] is the empty word; matrix
entries use 1-based flat row/column indices into the word spaces and unset
entries are zero.  Tensor expressions combine mat names with kron(a,b),
flip(d1,d2), inv(a), tauconj(a), scalar coefficients via *, sums and the
composition operator `.`; scalar literals follow the shared syntax of the
scalars module (integers, rationals, i, t, q = t^2, ^ with integer
exponents).

Parsing and printing round-trip: parse(dumps(doc)) reproduces doc.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (DuplicateName, NotInvertible, ParseError, ShapeError,
                     UnknownGenerator)
from .presentation import CandidateR, GeneratorSpec, Presentation, Relation
from .scalars import SYMBOLS, ConjMode, Scalar, TokenParser
from .tensor import Tensor, flip, kron, tauconj

_KEYWORDS = {"field", "gen", "mat", "rel", "cand", "table", "param", "rep",
             "conj", "var"}


@dataclass
class MatDef:
    name: str
    source_word: tuple
    target_word: tuple
    matrix: Tensor
    entries: dict = field(default_factory=dict)  # (row, col) 1-based -> Scalar


@dataclass
class Document:
    mode: ConjMode
    presentation: Presentation
    mats: dict                  # name -> MatDef
    relation_names: list
    candidate: CandidateR       # or None
    cand_exprs: dict            # (alpha, beta) -> source text
    tables: dict                # rep name -> (G, H, gtext, htext)
    params: dict                # name -> Scalar
    param_texts: dict

    def subs(self, value) -> "Document":
        """The document with t specialized at a constant; texts are kept."""
        mats = {name: MatDef(name, m.source_word, m.target_word,
                             m.matrix.subs(value),
                             {k: v.subs(value) for k, v in m.entries.items()})
                for name, m in self.mats.items()}
        cands = {} if self.candidate is None else {
            k: m.subs(value) for k, m in self.candidate.blocks.items()}
        tables = {name: (g.subs(value), h.subs(value) if h is not None else None,
                         gt, ht)
                  for name, (g, h, gt, ht) in self.tables.items()}
        return _assemble(
            self.mode,
            [self.presentation.generators[n] for n in self.presentation.non_unit()],
            mats, self.relation_names, cands, dict(self.cand_exprs), tables,
            {k: v.subs(value) for k, v in self.params.items()},
            dict(self.param_texts))


class _Parser(TokenParser):
    def __init__(self, text: str):
        super().__init__(text)
        self.mode = ConjMode.REAL
        self.gens = []
        self.mats = {}
        self.rels = []
        self.cands = {}
        self.cand_exprs = {}
        self.tables = {}
        self.params = {}
        self.param_texts = {}

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
                "table": self.stmt_table,
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
        dim = self.expect_int()
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

    def _gen_dims(self, word, context):
        dims = []
        table = {g.name: g.dim for g in self.gens}
        for name in word:
            if name not in table:
                raise UnknownGenerator(f"{context}: unknown generator {name!r}")
            dims.append(table[name])
        return tuple(dims)

    def stmt_mat(self):
        self.next()
        name = self.expect("name").text
        if name in self.mats:
            raise DuplicateName(f"mat {name!r}")
        self.expect("punct", ":")
        source = self.word()
        self.expect("arrow")
        target = self.word()
        sdims = self._gen_dims(source, f"mat {name}")
        tdims = self._gen_dims(target, f"mat {name}")
        nrows = 1
        for d in tdims:
            nrows *= d
        ncols = 1
        for d in sdims:
            ncols *= d
        entries = {}
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
        self.mats[name] = MatDef(name, source, target,
                                 Tensor.from_nonzero(tdims or (), sdims or (), flat),
                                 entries)

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
        text = self._span_text(start, self.pos)
        if (alpha, beta) in self.cands:
            raise DuplicateName(f"cand {alpha} {beta}")
        self.cands[(alpha, beta)] = value
        self.cand_exprs[(alpha, beta)] = text

    def stmt_table(self):
        self.next()
        self.expect("name", "rep")
        name = self.expect("name").text
        if name in self.tables:
            raise DuplicateName(f"table rep {name!r}")
        self.expect("punct", "{")
        g = h = None
        gtext = htext = None
        while self.peek().text != "}":
            key = self.expect("name").text
            self.expect("punct", "=")
            start = self.pos
            value = self.tensor_expr()
            text = self._span_text(start, self.pos)
            if key == "G":
                g, gtext = value, text
            elif key == "H":
                h, htext = value, text
            else:
                self.error("table entries are G and H", ("G", "H"))
            if self.peek().text == ";":
                self.next()
        self.expect("punct", "}")
        if g is None:
            self.error(f"table rep {name!r} needs G")
        self.tables[name] = (g, h, gtext, htext)

    def stmt_param(self):
        self.next()
        name = self.expect("name").text
        if name in self.params:
            raise DuplicateName(f"param {name!r}")
        self.expect("punct", "=")
        start = self.pos
        value = self.scalar_sum()
        self.params[name] = value
        self.param_texts[name] = self._span_text(start, self.pos)

    def _span_text(self, start, end):
        return " ".join(t.text for t in self.tokens[start:end])

    def _starts_scalar(self, offset=0) -> bool:
        tok = self.tokens[self.pos + offset]
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
            self.next()
            w = self.tensor_factor()
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
                s = self.scalar_power() if tok.text != "(" else self.scalar_atom()
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
            return kron(a, b)
        if tok.text == "flip":
            self.next()
            self.expect("punct", "(")
            d1 = self.expect_int()
            self.expect("punct", ",")
            d2 = self.expect_int()
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
                from math import isqrt
                n = isqrt(a.nrows)
                m = isqrt(a.ncols)
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
                         self.cands, self.cand_exprs, self.tables, self.params,
                         self.param_texts)


def _assemble(mode, gens, mats, rels, cands, cand_exprs, tables, params,
              param_texts) -> Document:
    p = Presentation(
        gens,
        [Relation(n, mats[n].matrix, mats[n].source_word, mats[n].target_word)
         for n in rels],
    )
    candidate = None
    if cands:
        blocks = {}
        for (a, b), m in cands.items():
            da, db = p.dim(a), p.dim(b)
            blocks[(a, b)] = m.with_legs((db, da), (da, db))
        candidate = CandidateR(p, blocks)
    return Document(mode, p, mats, list(rels), candidate, cand_exprs, tables,
                    params, param_texts)


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
        cells = []
        for (r, c) in sorted(m.entries):
            cells.append(f"{r},{c} = {m.entries[(r, c)]}")
        body = " ; ".join(cells)
        lines.append(f"mat {name} : [{src}] -> [{tgt}] {{ {body} }}")
    for name in doc.relation_names:
        lines.append(f"rel {name}")
    for (a, b), text in doc.cand_exprs.items():
        lines.append(f"cand {a} {b} = {text}")
    for name, (_, _, gtext, htext) in doc.tables.items():
        inner = f"G = {gtext}" + (f" ; H = {htext}" if htext else "")
        lines.append(f"table rep {name} {{ {inner} }}")
    for name, text in doc.param_texts.items():
        lines.append(f"param {name} = {text}")
    return "\n".join(lines) + "\n"
