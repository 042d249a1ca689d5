"""Formula parsing, evaluation, and polynomial translation."""

import itertools
from fractions import Fraction

import pytest

from pqnet.formula import (
    BinOp,
    FormulaError,
    Not,
    Var,
    eval_formula,
    formula_variables,
    parse_formula,
    to_f2_polynomial,
    to_quotient,
    to_real_polynomial,
)
from pqnet.polynomial import F2Polynomial, Polynomial


def evaluate(text, **assignment):
    return eval_formula(parse_formula(text), assignment)


class TestParsing:
    def test_precedence(self):
        node = parse_formula("a || b && c")
        assert isinstance(node, BinOp) and node.op == "||"

    def test_implication_is_right_associative(self):
        node = parse_formula("a -> b -> c")
        assert node.op == "->" and isinstance(node.left, Var)

    def test_negation(self):
        node = parse_formula("!a && b")
        assert node.op == "&&" and isinstance(node.left, Not)

    def test_bracketed_names(self):
        node = parse_formula("t[1] + t[2]")
        assert formula_variables(node) == {"t[1]", "t[2]"}

    def test_variables(self):
        assert formula_variables(parse_formula("(K <-> A) <-> (K -> A)")) == {
            "K",
            "A",
        }

    def test_errors(self):
        with pytest.raises(FormulaError):
            parse_formula("a &&")
        with pytest.raises(FormulaError):
            parse_formula("(a || b")
        with pytest.raises(FormulaError):
            parse_formula("")


class TestEvaluation:
    def test_arithmetic(self):
        assert evaluate("1/2 + 0.25") == Fraction(3, 4)
        assert evaluate("2 * x - 1", x=Fraction(3, 4)) == Fraction(1, 2)

    def test_truth_tables(self):
        assert evaluate("p -> q", p=1, q=0) == 0
        assert evaluate("p -> q", p=0, q=0) == 1
        assert evaluate("p ^ q", p=1, q=1) == 0
        assert evaluate("p nand q", p=1, q=1) == 0
        assert evaluate("p nor q", p=0, q=0) == 1

    def test_nonzero_is_true(self):
        assert evaluate("p && q", p=Fraction(1, 2), q=3) == 1

    def test_conditional(self):
        assert evaluate("p ? 2 : 3", p=1) == 2
        assert evaluate("p ? 2 : 3", p=0) == 3

    def test_equality(self):
        assert evaluate("x == 1/2", x=Fraction(1, 2)) == 1
        assert evaluate("x == 1/2", x=Fraction(1, 3)) == 0


ALL_OPS = ["&&", "||", "^", "->", "<->", "nand", "nor"]


class TestTranslation:
    def test_known_forms(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        env = {"P": x, "Q": y}
        assert to_real_polynomial(parse_formula("!P"), env) == 1 - x
        assert to_real_polynomial(parse_formula("P && Q"), env) == x * y
        assert to_real_polynomial(parse_formula("P || Q"), env) == x + y - x * y
        assert to_real_polynomial(parse_formula("P -> Q"), env) == 1 - x + x * y
        assert (
            to_real_polynomial(parse_formula("P <-> Q"), env)
            == 1 - x - y + 2 * x * y
        )

    def test_idempotent_conjunction(self):
        x = Polynomial.variable("x")
        assert to_real_polynomial(parse_formula("P && P"), {"P": x}) == x

    def test_real_translation_matches_truth_tables(self):
        # On {0,1} inputs every connective's polynomial must agree with
        # its Boolean evaluation, including through nesting.
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        z = Polynomial.variable("z")
        env = {"P": x, "Q": y, "R": z}
        formulas = ["P " + op + " Q" for op in ALL_OPS]
        formulas += [
            "!(P && Q) <-> (!P || !Q)",
            "(P -> Q) -> R",
            "(P ^ Q) ^ R",
            "P nor (Q nand R)",
        ]
        for text in formulas:
            node = parse_formula(text)
            poly = to_real_polynomial(node, env)
            for p, q, r in itertools.product((0, 1), repeat=3):
                point = {"x": p, "y": q, "z": r}
                expected = eval_formula(node, {"P": p, "Q": q, "R": r})
                assert poly.evaluate(point) == expected, text

    def test_f2_translation_matches_truth_tables(self):
        env = {"P": F2Polynomial.variable("P"), "Q": F2Polynomial.variable("Q")}
        formulas = ["P " + op + " Q" for op in ALL_OPS]
        formulas += ["!(P && Q) <-> (!P || !Q)", "(K <-> A) <-> (K -> A)"]
        env["K"] = F2Polynomial.variable("K")
        env["A"] = F2Polynomial.variable("A")
        for text in formulas:
            node = parse_formula(text)
            poly = to_f2_polynomial(node, env)
            names = sorted(formula_variables(node))
            for values in itertools.product((0, 1), repeat=len(names)):
                point = dict(zip(names, values))
                expected = eval_formula(node, point)
                assert _f2_eval(poly, point) == expected, text

    def test_biconditional_chain_cancels(self):
        # (K <-> A) <-> K says the same thing as A: the two references to
        # K cancel over the binary field.
        env = {"K": F2Polynomial.variable("K"), "A": F2Polynomial.variable("A")}
        left = to_f2_polynomial(parse_formula("(K <-> A) <-> K"), env)
        assert left == env["A"]

    def test_parameter_polynomial(self):
        t = Polynomial.variable("t")
        node = parse_formula("1 - (t^2) + t/2")
        value = to_quotient(node, {"t": t}.__getitem__)
        assert value.numerator == 1 - t**2 + Fraction(1, 2) * t
        assert value.denominator == 1

    def test_caret_is_xor_in_propositional_context(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        env = {"P": x, "Q": y}
        assert (
            to_real_polynomial(parse_formula("P ^ Q"), env)
            == x + y - 2 * x * y
        )

    def test_unbound_variable_raises(self):
        with pytest.raises(FormulaError):
            to_real_polynomial(parse_formula("P && Q"), {"P": Polynomial.variable("x")})


def _f2_eval(poly: F2Polynomial, point: dict) -> int:
    """Brute-force evaluation of an F2 polynomial at a 0/1 point."""
    from pqnet.polynomial import var_name

    total = 0
    for monomial in poly.terms:
        value = 1
        for index in monomial:
            value *= point[var_name(index)]
        total ^= value
    return total
