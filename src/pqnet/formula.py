"""Expression language embedded in model specifications.

Component tables may be specified by a C-style formula instead of a
literal data vector, e.g. ``R <-> P -> Q ? 1 : 0`` or
``B == P + Q + R ? 1 : 0``.  This module parses such formulas,
evaluates them under discrete-state assignments, and translates
propositional formulas into polynomials -- either real polynomials
(truth values 0 and 1 inside the ordinary rationals) or polynomials
over the two-element field.  Arithmetic formulas over the model
parameters (table entries, shell expressions) evaluate to exact
quotients of polynomials through :func:`to_quotient`.

Operator precedence, loosest first:
    ?:   conditional
    <->  biconditional
    ->   implication (right associative)
    ||   disjunction
    ^    exclusive or
    &&   conjunction
    ==   equality test
    + -  additive
    * /  multiplicative
    ! -  unary
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .polynomial import (
    ONE,
    F2Polynomial,
    FractionalPolynomial,
    Polynomial,
    as_quotient,
)


# ---------------------------------------------------------------------------
# Syntax tree

@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Not:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of: <-> -> || ^ && nand nor == + - * /
    left: object
    right: object


@dataclass(frozen=True)
class Cond:
    test: object
    if_true: object
    if_false: object


# ---------------------------------------------------------------------------
# Parser

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*(?:\[\d+\])?)"
    r"|(?P<op><->|->|\|\||&&|==|[!^+\-*/?:()]))"
)


def tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise FormulaError(f"bad character in formula: {text[pos:]!r}")
            break
        tokens.append(m.group("num") or m.group("name") or m.group("op"))
        pos = m.end()
    return tokens


class FormulaError(ValueError):
    pass


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of formula")
        if expected is not None and tok != expected:
            raise FormulaError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        expr = self.conditional()
        if self.peek() is not None:
            raise FormulaError(f"trailing tokens at {self.peek()!r}")
        return expr

    def conditional(self):
        test = self.iff()
        if self.peek() == "?":
            self.take("?")
            yes = self.conditional()
            self.take(":")
            no = self.conditional()
            return Cond(test, yes, no)
        return test

    def iff(self):
        left = self.implies()
        while self.peek() == "<->":
            self.take("<->")
            left = BinOp("<->", left, self.implies())
        return left

    def implies(self):
        left = self.disjunct()
        if self.peek() == "->":
            self.take("->")
            return BinOp("->", left, self.implies())
        return left

    def disjunct(self):
        left = self.xor()
        while self.peek() == "||":
            self.take("||")
            left = BinOp("||", left, self.xor())
        return left

    def xor(self):
        left = self.conjunct()
        while self.peek() == "^":
            self.take("^")
            left = BinOp("^", left, self.conjunct())
        return left

    def conjunct(self):
        left = self.equality()
        while self.peek() in ("&&", "nand", "nor"):
            op = self.take()
            left = BinOp(op, left, self.equality())
        return left

    def equality(self):
        left = self.additive()
        while self.peek() == "==":
            self.take("==")
            left = BinOp("==", left, self.additive())
        return left

    def additive(self):
        left = self.multiplicative()
        while self.peek() in ("+", "-"):
            op = self.take()
            left = BinOp(op, left, self.multiplicative())
        return left

    def multiplicative(self):
        left = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            left = BinOp(op, left, self.unary())
        return left

    def unary(self):
        tok = self.peek()
        if tok == "!":
            self.take("!")
            return Not(self.unary())
        if tok == "-":
            self.take("-")
            return BinOp("-", Const(Fraction(0)), self.unary())
        return self.atom()

    def atom(self):
        tok = self.take()
        if tok == "(":
            expr = self.conditional()
            self.take(")")
            return expr
        if re.fullmatch(r"\d+(\.\d+)?", tok):
            # decimals are exact rationals: 0.75 means 3/4, not a float
            return Const(Fraction(tok))
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*(\[\d+\])?", tok):
            return Var(tok)
        raise FormulaError(f"unexpected token {tok!r}")


def parse_formula(text: str):
    """Parse formula text into a syntax tree."""
    return _Parser(tokenize(text)).parse()


def formula_variables(node) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Not):
        return formula_variables(node.operand)
    if isinstance(node, BinOp):
        return formula_variables(node.left) | formula_variables(node.right)
    if isinstance(node, Cond):
        return (
            formula_variables(node.test)
            | formula_variables(node.if_true)
            | formula_variables(node.if_false)
        )
    return set()


# ---------------------------------------------------------------------------
# Evaluation over discrete assignments

def eval_formula(node, assignment: dict) -> Fraction:
    """Evaluate under an assignment of numeric values to variables.

    Truth values and numbers are freely interchanged: 0 is false and
    any nonzero value is true; Boolean results are 1 or 0.
    """
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        try:
            return Fraction(assignment[node.name])
        except KeyError:
            raise FormulaError(f"unbound variable {node.name!r}") from None
    if isinstance(node, Not):
        return Fraction(0) if eval_formula(node.operand, assignment) else Fraction(1)
    if isinstance(node, Cond):
        if eval_formula(node.test, assignment):
            return eval_formula(node.if_true, assignment)
        return eval_formula(node.if_false, assignment)
    left = eval_formula(node.left, assignment)
    right = eval_formula(node.right, assignment)
    op = node.op
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    if op == "==":
        return Fraction(1 if left == right else 0)
    lt, rt = bool(left), bool(right)
    if op == "&&":
        return Fraction(1 if lt and rt else 0)
    if op == "||":
        return Fraction(1 if lt or rt else 0)
    if op == "^":
        return Fraction(1 if lt != rt else 0)
    if op == "->":
        return Fraction(1 if (not lt) or rt else 0)
    if op == "<->":
        return Fraction(1 if lt == rt else 0)
    if op == "nand":
        return Fraction(0 if lt and rt else 1)
    if op == "nor":
        return Fraction(1 if not (lt or rt) else 0)
    raise FormulaError(f"unknown operator {op!r}")


# ---------------------------------------------------------------------------
# Translation of propositional formulas into polynomials

def to_real_polynomial(node, env: dict[str, Polynomial]) -> Polynomial:
    """Translate a propositional formula into a real polynomial.

    Each variable maps (via ``env``) to a polynomial taking values in
    {0, 1}; connectives become the corresponding polynomial identities,
    e.g. negation is 1 - P and disjunction is P + Q - P*Q.
    """
    if isinstance(node, Const):
        if node.value not in (0, 1):
            raise FormulaError(f"non-Boolean constant {node.value}")
        return Polynomial.constant(node.value)
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise FormulaError(f"unbound variable {node.name!r}") from None
    if isinstance(node, Not):
        return Polynomial.constant(1) - to_real_polynomial(node.operand, env)
    if isinstance(node, BinOp):
        p = to_real_polynomial(node.left, env)
        q = to_real_polynomial(node.right, env)
        pq = (p * q).reduce_idempotent()
        op = node.op
        if op == "&&":
            return pq
        if op == "||":
            return p + q - pq
        if op == "^":
            return p + q - 2 * pq
        if op == "->":
            return 1 - p + pq
        if op == "<->":
            return 1 - p - q + 2 * pq
        if op == "nand":
            return 1 - pq
        if op == "nor":
            return 1 - p - q + pq
        raise FormulaError(f"operator {op!r} is not propositional")
    raise FormulaError(f"cannot translate {node!r}")


def to_f2_polynomial(node, env: dict[str, F2Polynomial]) -> F2Polynomial:
    """Translate a propositional formula into a polynomial over GF(2)."""
    if isinstance(node, Const):
        if node.value not in (0, 1):
            raise FormulaError(f"non-Boolean constant {node.value}")
        return F2Polynomial.constant(int(node.value))
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise FormulaError(f"unbound variable {node.name!r}") from None
    if isinstance(node, Not):
        return F2Polynomial.constant(1) + to_f2_polynomial(node.operand, env)
    if isinstance(node, BinOp):
        p = to_f2_polynomial(node.left, env)
        q = to_f2_polynomial(node.right, env)
        one = F2Polynomial.constant(1)
        op = node.op
        if op == "&&":
            return p * q
        if op == "||":
            return p + q + p * q
        if op == "^":
            return p + q
        if op == "->":
            return one + p + p * q
        if op == "<->":
            return one + p + q
        if op == "nand":
            return one + p * q
        if op == "nor":
            return one + p + q + p * q
        raise FormulaError(f"operator {op!r} is not propositional")
    raise FormulaError(f"cannot translate {node!r}")


def to_quotient(node, resolve) -> FractionalPolynomial:
    """Evaluate an arithmetic formula exactly over parameter polynomials.

    Identifiers are looked up through ``resolve(name) -> Polynomial``.
    Sums, differences and products stay unreduced quotients.  Division
    by a nonzero constant scales back to a polynomial; any other divisor,
    zero included, leaves an unreduced quotient.  In this context ``^``
    is exponentiation by a nonnegative integer, not exclusive or.
    """
    if isinstance(node, Const):
        return as_quotient(node.value)
    if isinstance(node, Var):
        return as_quotient(resolve(node.name))
    if isinstance(node, BinOp):
        left = to_quotient(node.left, resolve)
        right = to_quotient(node.right, resolve)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            numerator = left.numerator * right.denominator
            denominator = left.denominator * right.numerator
            if denominator.is_constant() and not denominator.is_zero():
                scale = Polynomial.constant(1 / denominator.constant_value())
                return as_quotient(numerator * scale)
            return FractionalPolynomial(numerator, denominator)
        if node.op == "^" and right.denominator == ONE and right.numerator.is_constant():
            exponent = right.numerator.constant_value()
            if exponent.denominator == 1 and exponent >= 0:
                n = int(exponent)
                return FractionalPolynomial(left.numerator**n, left.denominator**n)
    raise FormulaError(f"not an arithmetic expression: {node!r}")
