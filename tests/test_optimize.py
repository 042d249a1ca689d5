"""Exact optimization: simplex, fractional lifting, branch and bound.

Frozen optima were verified independently: linear and fractional-linear
problems over box or simplex feasible sets attain their optima at
vertices, so every frozen value below can be checked by enumerating the
finitely many vertices by hand.  The property test at the bottom does
that enumeration mechanically for random fractional objectives.
"""

import random
from fractions import Fraction

import pytest

from conftest import model_path
from pqnet import optimize
from pqnet.dsl import load_model
from pqnet.inference import expectation
from pqnet.network import Constraint
from pqnet.optimize import (
    OptimizationProblem,
    build_program,
    charnes_cooper,
    classify,
    solve,
    solve_lp,
    solve_polynomial,
    strictify,
)
from pqnet.polynomial import Polynomial, as_quotient
from pqnet import linprog


def box(*names):
    out = []
    for n in names:
        v = Polynomial.variable(n)
        out.append(Constraint(v, ">=", Polynomial.constant(0)))
        out.append(Constraint(v, "<=", Polynomial.constant(1)))
    return out


def simplex(*names):
    total = Polynomial()
    out = []
    for n in names:
        v = Polynomial.variable(n)
        total = total + v
        out.append(Constraint(v, ">=", Polynomial.constant(0)))
    out.append(Constraint(total, "=", Polynomial.constant(1)))
    return out


class TestSimplex:
    def test_basic_lp(self):
        lp = linprog.LinearProgram(["a", "b"], {"a": Fraction(3), "b": Fraction(2)}, sense="max")
        lp.add_row({"a": Fraction(1), "b": Fraction(1)}, "<=", Fraction(4))
        lp.add_row({"a": Fraction(1)}, "<=", Fraction(2))
        result = linprog.solve(lp)
        assert result.status == "optimal"
        assert result.value == 10
        assert result.point == {"a": Fraction(2), "b": Fraction(2)}

    def test_infeasible(self):
        lp = linprog.LinearProgram(["a"], {"a": Fraction(1)}, sense="min")
        lp.add_row({"a": Fraction(1)}, "<=", Fraction(1))
        lp.add_row({"a": Fraction(1)}, ">=", Fraction(2))
        assert linprog.solve(lp).status == "infeasible"

    def test_unbounded(self):
        lp = linprog.LinearProgram(["a"], {"a": Fraction(1)}, sense="max")
        lp.add_row({"a": Fraction(1)}, ">=", Fraction(0))
        assert linprog.solve(lp).status == "unbounded"

    def test_exact_fractions(self):
        lp = linprog.LinearProgram(["a"], {"a": Fraction(1)}, sense="max")
        lp.add_row({"a": Fraction(3)}, "<=", Fraction(1))
        result = linprog.solve(lp)
        assert result.value == Fraction(1, 3)


class TestClassification:
    def test_linear(self):
        x = Polynomial.variable("x")
        p = OptimizationProblem("min", as_quotient(x), box("x"))
        assert classify(p) == "linear"

    def test_fractional_linear(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        p = OptimizationProblem("min", x / (x + y), box("x", "y"))
        assert classify(p) == "fractional_linear"

    def test_polynomial_objective(self):
        x = Polynomial.variable("x")
        p = OptimizationProblem("min", as_quotient(x * x), box("x"))
        assert classify(p) == "polynomial"

    def test_strict_constraint_forces_polynomial(self):
        x = Polynomial.variable("x")
        constraints = box("x") + [
            Constraint(x, ">", Polynomial.constant(0))
        ]
        p = OptimizationProblem("min", as_quotient(x), constraints)
        assert classify(p) == "polynomial"


class TestStrictify:
    def test_strict_becomes_weak(self):
        x = Polynomial.variable("x")
        c = strictify(Constraint(x, ">", Polynomial.constant(0)))
        assert c.relation == ">="
        assert c.satisfied({"x": Fraction(1, 1000)})
        assert not c.satisfied({"x": Fraction(1, 2000)})

    def test_weak_unchanged(self):
        x = Polynomial.variable("x")
        c = Constraint(x, ">=", Polynomial.constant(0))
        assert strictify(c) is c


class TestLinearSolve:
    def test_expectation_bounds(self):
        model = load_model(model_path("basic1.pql"))
        objective = expectation(model, "B")  # 1 + z + 2xy - xz: polynomial
        problem = build_program(model, "min", objective)
        solution = solve(problem)
        assert solution.status == "optimal"
        assert solution.lower == 1
        assert str(solution) == "1.000 1.000"

    def test_linear_probability_bounds(self):
        model = load_model(model_path("basic1.pql"))
        # Pr(P) = x is linear in the parameters
        problem = build_program(model, "max", Polynomial.variable("x"))
        solution = solve(problem)
        assert solution.exact_value() == 1
        assert solution.point["x"] == 1


class TestCharnesCooper:
    def test_conditional_extremes(self):
        # min and max of x1 / (x1 + x2) over the probability simplex,
        # avoiding the degenerate face x1 + x2 = 0
        constraints = simplex("x1", "x2", "x3") + [
            Constraint(
                Polynomial.variable("x1") + Polynomial.variable("x2"),
                ">=",
                Polynomial.constant(Fraction(1, 10)),
            )
        ]
        objective = Polynomial.variable("x1") / (
            Polynomial.variable("x1") + Polynomial.variable("x2")
        )
        low = charnes_cooper(
            OptimizationProblem("min", objective, constraints)
        )
        high = charnes_cooper(
            OptimizationProblem("max", objective, constraints)
        )
        assert low.exact_value() == 0
        assert high.exact_value() == 1

    def test_nonconstant_optimum(self):
        # min (x + 1) / (x + 2) for x in [0, 1] is 1/2 at x = 0
        x = Polynomial.variable("x")
        problem = OptimizationProblem(
            "min", (x + 1) / (x + 2), box("x")
        )
        solution = solve(problem)
        assert solution.exact_value() == Fraction(1, 2)
        assert solution.point["x"] == 0

    def test_recovers_original_point(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        problem = OptimizationProblem(
            "max", y / (x + y + 1), box("x", "y")
        )
        solution = solve(problem)
        assert solution.exact_value() == Fraction(1, 2)
        assert solution.point == {"x": Fraction(0), "y": Fraction(1)}


class TestBranchAndBound:
    def test_bilinear_min_is_exact(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        problem = OptimizationProblem("min", as_quotient(x * y), box("x", "y"))
        solution = solve_polynomial(problem)
        assert solution.status == "optimal"
        assert solution.lower == 0

    def test_multilinear_bounds_are_exact(self):
        # a multilinear objective attains its extrema at box vertices,
        # so bounding needs no subdivision at all
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        z = Polynomial.variable("z")
        objective = 1 + z + 2 * x * y - x * z
        for sense, value in (("min", 1), ("max", 3)):
            problem = OptimizationProblem(
                sense, as_quotient(objective), box("x", "y", "z")
            )
            solution = solve_polynomial(problem)
            assert solution.status == "optimal"
            assert solution.lower == solution.upper == value

    def test_nonlinear_enclosure(self):
        # min of x^2 - x on [0, 1] is -1/4 at x = 1/2
        x = Polynomial.variable("x")
        problem = OptimizationProblem(
            "min", as_quotient(x * x - x), box("x")
        )
        solution = solve_polynomial(problem)
        assert solution.lower <= Fraction(-1, 4) <= solution.upper
        assert solution.upper - solution.lower <= Fraction(1, 100)

    def test_enclosure_brackets_constrained_optimum(self):
        model = load_model(model_path("basic1.pql"))
        objective = expectation(model, "B")
        problem = build_program(model, "max", objective)
        solution = solve_polynomial(problem)
        # true max is 3 at x = y = 1, z = 1
        assert solution.lower <= 3 <= solution.upper
        assert solution.upper - solution.lower <= Fraction(1, 100)

    def test_budget_exhaustion_keeps_sound_bounds(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        objective = x * x * y - y * y * x
        problem = OptimizationProblem(
            "min", as_quotient(objective), box("x", "y")
        )
        solution = solve_polynomial(problem, budget=3)
        assert solution.lower is not None
        # true min is at x=1/2... whatever it is, -1/4 is attained at
        # (1/2, 1) boundary; the enclosure must contain every attained value
        attained = Fraction(-1, 4)
        assert solution.lower <= attained


class TestSolutionDisplay:
    def test_str_and_point_text(self):
        solution = optimize.Solution(
            "optimal", Fraction(1), Fraction(1), {"x": Fraction(1), "y": Fraction(1)}
        )
        assert str(solution) == "1.000 1.000"
        assert solution.point_text() == "{x = 1.000} {y = 1.000}"

    def test_infeasible_str(self):
        assert str(optimize.Solution("infeasible")) == "infeasible"


# ---------------------------------------------------------------------------
# Oracle: fractional-linear optima over the simplex occur at vertices.
# The vertices of {x >= 0, sum x = 1} are the unit vectors, so exhaustive
# vertex enumeration gives an independent exact optimum.

class TestFractionalOracle:
    def test_random_fractional_problems(self):
        rng = random.Random(11)
        names = ["x1", "x2", "x3", "x4"]
        variables = [Polynomial.variable(n) for n in names]
        constraints = simplex(*names)
        for trial in range(60):
            num = Polynomial()
            den = Polynomial()
            for v in variables:
                num = num + Fraction(rng.randint(0, 6)) * v
                den = den + Fraction(rng.randint(1, 6)) * v
            objective = num / den
            expected = []
            for i, n in enumerate(names):
                vertex = {m: Fraction(1 if m == n else 0) for m in names}
                expected.append(
                    num.evaluate(vertex) / den.evaluate(vertex)
                )
            for sense, best in (("min", min(expected)), ("max", max(expected))):
                problem = OptimizationProblem(
                    sense, objective, list(constraints)
                )
                solution = solve(problem)
                assert solution.status == "optimal", (trial, sense)
                assert solution.exact_value() == best, (trial, sense)
