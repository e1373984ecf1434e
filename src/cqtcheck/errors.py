"""Exception types shared across the package."""

from __future__ import annotations


class CqtError(Exception):
    """Base class for all package errors."""


class DivisionByZero(CqtError):
    """Zero denominator in field arithmetic."""


class EvaluationPole(CqtError):
    """Evaluation point annihilates a denominator."""


class NumberTooLong(CqtError):
    """An integer has more digits than the interpreter converts to text."""


class ShapeError(CqtError):
    """Tensor legs or matrix dimensions do not match."""


class NotInvertible(CqtError):
    """Singular matrix; carries a nullspace witness vector when available."""

    def __init__(self, msg, witness):
        super().__init__(msg)
        self.witness = witness


class ParseError(CqtError):
    """Syntax error in the DSL, with its position (if any) and expected tokens."""

    def __init__(self, msg, line=None, col=None, expected=()):
        super().__init__(msg if line is None else f"{line}:{col}: {msg}")
        self.line = line
        self.col = col
        self.expected = tuple(expected)


class ZeroDivisionInText(ParseError, DivisionByZero):
    """A scalar text divides by zero; the position is the operator's."""


class UnknownGenerator(CqtError):
    """A word references a generator that was never declared."""


class DuplicateName(CqtError):
    """A generator, matrix or table name was declared twice."""


class MissingBlock(CqtError):
    """A candidate family lacks a block needed by a check."""


class MissingRep(CqtError):
    """A representation table entry needed by a check is absent."""


class ForbiddenParameter(CqtError):
    """A datum parameter lies outside its admissible domain."""


class AxiomViolation(CqtError):
    """A structural axiom of a datum fails; carries the axiom name and a witness."""

    def __init__(self, axiom, witness):
        super().__init__(f"axiom {axiom} violated")
        self.axiom = axiom
        self.witness = witness


class StructureViolation(CqtError):
    """An inhomogeneous datum fails its structure conditions."""


class AbstractLambdaMode(CqtError):
    """Operation needs spinor-level data absent in abstract mode."""
