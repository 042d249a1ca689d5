"""Exact optimization: simplex, fractional lifting, branch and bound.

Frozen optima were verified independently: linear and fractional-linear
problems over box or simplex feasible sets attain their optima at
vertices, so every frozen value below can be checked by enumerating the
finitely many vertices by hand.  The property test at the bottom does
that enumeration mechanically for random fractional objectives.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import model_path
from pqnet import optimize
from pqnet.dsl import load_model, parse_model
from pqnet.inference import expectation, query
from pqnet.network import Constraint, Parameter
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


# ---------------------------------------------------------------------------
# Frozen branch-and-bound results: exact Solutions, point key order
# included.  A change to the inner loop must visit the same boxes and
# return these same answers.

F = Fraction


def frozen(solution):
    point = None if solution.point is None else list(solution.point.items())
    return solution.status, solution.lower, solution.upper, point


# min over butter.pql with x + y <= k/16: (k, objective, lower, upper, x);
# the minimizer is always (x, 0, 0)
BUTTER_CUTS = [
    (6, "C_1", F(79, 128), F(5, 8), F(3, 8)),
    (6, "C_1 - C_2", F(-49, 128), F(-3, 8), F(3, 8)),
    (7, "C_1", F(71, 128), F(9, 16), F(7, 16)),
    (7, "C_1 - C_2", F(-57, 128), F(-7, 16), F(7, 16)),
    (8, "C_1", F(63, 128), F(1, 2), F(1, 2)),
    (8, "C_1 - C_2", F(-65, 128), F(-1, 2), F(1, 2)),
    (9, "C_1", F(55, 128), F(7, 16), F(9, 16)),
    (9, "C_1 - C_2", F(-73, 128), F(-9, 16), F(9, 16)),
    (10, "C_1", F(47, 128), F(3, 8), F(5, 8)),
    (10, "C_1 - C_2", F(-81, 128), F(-5, 8), F(5, 8)),
    (11, "C_1", F(39, 128), F(5, 16), F(11, 16)),
    (11, "C_1 - C_2", F(-89, 128), F(-11, 16), F(11, 16)),
    (12, "C_1", F(31, 128), F(1, 4), F(3, 4)),
    (12, "C_1 - C_2", F(-97, 128), F(-3, 4), F(3, 4)),
    (13, "C_1", F(23, 128), F(3, 16), F(13, 16)),
    (13, "C_1 - C_2", F(-105, 128), F(-13, 16), F(13, 16)),
    (14, "C_1", F(15, 128), F(1, 8), F(7, 8)),
    (14, "C_1 - C_2", F(-113, 128), F(-7, 8), F(7, 8)),
]


class TestFrozenBranchAndBound:
    @pytest.mark.parametrize("k, name, lower, upper, x", BUTTER_CUTS)
    def test_butter_cut(self, k, name, lower, upper, x):
        model = load_model(model_path("butter.pql"))
        c1 = query(model, ["C_1"]).values[0]
        objective = c1 if name == "C_1" else c1 - query(model, ["C_2"]).values[0]
        cut = Constraint(
            Polynomial.variable("x") + Polynomial.variable("y"),
            "<=",
            Polynomial.constant(F(k, 16)),
        )
        solution = solve_polynomial(build_program(model, "min", objective, [cut]))
        assert frozen(solution) == (
            "optimal", lower, upper, [("x", x), ("y", F(0)), ("z", F(0))]
        )

    def test_criterion_6(self):
        model = load_model(model_path("basic1.pql"))
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        constraints = [
            Constraint(x, "=", Polynomial.constant(1)),
            Constraint(x, "=", x * y),
        ]
        objective = query(model, ["Q"]).values[0]
        solution = solve(build_program(model, "min", objective, constraints))
        assert frozen(solution) == (
            "optimal", F(127, 128), F(1), [("x", F(1)), ("y", F(1)), ("z", F(0))]
        )

    def test_budget_spent(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        problem = OptimizationProblem(
            "min", as_quotient(x * x * y - y * y * x), box("x", "y")
        )
        solution = solve_polynomial(problem, budget=3)
        assert frozen(solution) == (
            "bounds-only", F(-23, 32), F(-1, 4), [("x", F(1, 2)), ("y", F(1))]
        )
        assert solution.stats == {
            "boxes": 3, "pruned": 0, "infeasible": 0, "stop": "budget"
        }

    def test_strict_inequality(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        problem = OptimizationProblem(
            "max", as_quotient(x + y), box("x", "y") + [Constraint(x, "<", y)]
        )
        solution = solve_polynomial(problem)
        assert frozen(solution) == (
            "optimal", F(255, 128), F(2), [("x", F(127, 128)), ("y", F(1))]
        )
        assert solution.stats["stop"] == "tolerance"

    def test_equality_with_negative_coefficient(self):
        # -y = -1/2 pins y to 1/2 in the box; the multilinear enclosure
        # over that box is exact, so the root meets the tolerance
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        problem = OptimizationProblem(
            "min",
            as_quotient(x * y - y),
            box("x", "y") + [Constraint(-y, "=", Polynomial.constant(F(-1, 2)))],
        )
        solution = solve_polynomial(problem)
        assert frozen(solution) == (
            "optimal", F(-1, 2), F(-1, 2), [("x", F(0)), ("y", F(1, 2))]
        )

    def test_empty_box(self):
        # contradictory bounds give an empty box, rejected before any
        # branching
        x = Polynomial.variable("x")
        problem = OptimizationProblem(
            "min",
            as_quotient(x * x),
            [
                Constraint(x, ">=", Polynomial.constant(F(1, 2))),
                Constraint(x, "<=", Polynomial.constant(F(1, 4))),
            ],
        )
        solution = solve_polynomial(problem, budget=50)
        assert frozen(solution) == ("infeasible", None, None, None)
        assert solution.stats == {
            "boxes": 0, "pruned": 0, "infeasible": 1, "stop": "exhausted"
        }

    def test_stats_do_not_change_equality_or_text(self):
        a = optimize.Solution("optimal", F(1), F(1), {"x": F(1)}, {"boxes": 3})
        b = optimize.Solution("optimal", F(1), F(1), {"x": F(1)})
        assert a == b
        assert str(a) == "1.000 1.000"
        assert a.point_text() == "{x = 1.000}"


# ---------------------------------------------------------------------------
# Frozen exact-solver results: (status, lower, upper) of the linear and
# linear-fractional problems of criteria 7 and 8, in the shapes the
# benchmark's analysis workload draws.  Witness points are checked for
# feasibility and value, not pinned: they may move to another optimal
# vertex.


def assert_attained(problem, solution, status_bounds):
    assert (solution.status, solution.lower, solution.upper) == status_bounds
    point = solution.point
    assert all(c.satisfied(point) for c in problem.constraints)
    objective = problem.objective
    value = objective.numerator.evaluate(point) / objective.denominator.evaluate(point)
    assert value == solution.lower


def optimal(value):
    return "optimal", value, value


@pytest.fixture
def amphibian():
    """The amphibian model with a threshold parameter, its belief
    formulas S_1..S_8 and three conditional entries."""
    model = load_model(model_path("amphibian.pql"))
    model.add_parameter(Parameter("threshold"))
    formulas = {
        f"S_{i}": query(model, [f"S_{i}"]).values[0] for i in range(1, 9)
    }
    conditionals = [
        query(model, [a], [b]).values[0]
        for a, b in (("S_4", "S_1"), ("S_5", "S_2"), ("S_6", "S_3"))
    ]
    return model, formulas, conditionals


EIGHTH = Polynomial.constant(F(1, 8))


class TestFrozenLinear:
    @pytest.mark.parametrize("beliefs, value", [
        (("S_1", "S_2", "S_3"), F(2, 3)),
        (("S_1", "S_2", "S_3", "S_4"), F(2, 3)),
        (("S_2", "S_4", "S_6", "S_7"), F(1, 2)),
        (("S_1", "S_5", "S_6", "S_7"), F(1, 2)),
    ])
    def test_amphibian_threshold(self, amphibian, beliefs, value):
        model, formulas, _ = amphibian
        threshold = Polynomial.variable("threshold")
        aims = [Constraint(formulas[b], ">=", threshold) for b in beliefs]
        problem = build_program(model, "max", threshold, aims)
        assert_attained(problem, solve(problem), optimal(value))

    @pytest.mark.parametrize("beliefs, target, sense, value", [
        (("S_1", "S_2", "S_3", "S_4"), "S_8", "max", F(0)),
        (("S_2", "S_3", "S_5", "S_7"), "S_1", "min", F(0)),
        (("S_4", "S_5", "S_6", "S_7"), "S_3", "max", F(7, 8)),
        (("S_1", "S_3", "S_6", "S_7"), "S_2", "min", F(0)),
    ])
    def test_amphibian_floor(self, amphibian, beliefs, target, sense, value):
        model, formulas, _ = amphibian
        floor = [Constraint(formulas[b], ">=", EIGHTH) for b in beliefs]
        problem = build_program(model, sense, formulas[target], floor)
        assert_attained(problem, solve(problem), optimal(value))

    @pytest.mark.parametrize("belief, index, sense, value", [
        ("S_1", 0, "min", F(0)),
        ("S_1", 0, "max", F(1)),
        ("S_4", 1, "min", F(0)),
        ("S_4", 1, "max", F(1)),
        ("S_7", 2, "min", F(1)),
        ("S_7", 2, "max", F(1)),
    ])
    def test_amphibian_conditional(self, amphibian, belief, index, sense, value):
        model, formulas, conditionals = amphibian
        floor = [Constraint(formulas[belief], ">=", EIGHTH)]
        problem = build_program(model, sense, conditionals[index], floor)
        assert_attained(problem, solve(problem), optimal(value))

    @pytest.mark.parametrize("cell, eighths, sense, value", [
        ("x3", 1, "min", F(0)),
        ("x3", 1, "max", F(1)),
        ("x3", 5, "min", F(0)),
        ("x3", 5, "max", F(1)),
        ("x4", 2, "min", F(0)),
        ("x4", 2, "max", F(1)),
        ("x4", 8, "min", F(0)),
        ("x4", 8, "max", F(1)),
    ])
    def test_ace_king_cut(self, cell, eighths, sense, value):
        model = load_model(model_path("ace-king.pql"))
        difference = (
            query(model, ["A"], ["P"]).values[0]
            - query(model, ["K"], ["P"]).values[0]
        )
        cut = Constraint(
            Polynomial.variable(cell), "<=", Polynomial.constant(F(eighths, 8))
        )
        problem = build_program(model, sense, difference, [cut])
        assert_attained(problem, solve(problem), optimal(value))

    def test_criterion_7(self):
        model = load_model(model_path("ace-king.pql"))
        difference = (
            query(model, ["A"], ["P"]).values[0]
            - query(model, ["K"], ["P"]).values[0]
        )
        x1, x2, x3 = (Polynomial.variable(f"x{i}") for i in (1, 2, 3))
        condition = [Constraint(x1 + x2, "=", Polynomial.constant(1))]
        for sense, value in (("min", F(0)), ("max", F(1))):
            for objective, extra in ((difference, []), (x2 - x3, condition)):
                problem = build_program(model, sense, objective, extra)
                assert_attained(problem, solve(problem), optimal(value))

    def test_criterion_8(self, amphibian):
        model, formulas, _ = amphibian
        threshold = Polynomial.variable("threshold")
        aims = [
            Constraint(formulas[b], ">=", threshold)
            for b in ("S_1", "S_2", "S_3")
        ]
        problem = build_program(model, "max", threshold, aims)
        assert_attained(problem, solve(problem), optimal(F(2, 3)))
        floor = [
            Constraint(formulas[b], ">=", Polynomial.constant(F(2, 3)))
            for b in ("S_1", "S_2", "S_3")
        ]
        zeta = {"S_4": F(2, 3), "S_5": F(1), "S_6": F(2, 3), "S_7": F(1, 3), "S_8": F(0)}
        for name, value in zeta.items():
            problem = build_program(model, "max", formulas[name], floor)
            assert_attained(problem, solve(problem), optimal(value))


# ---------------------------------------------------------------------------
# Parameter ranges are variable bounds of any sign, read from every
# one-variable linear constraint.


class TestBounds:
    def test_negative_range_linear(self):
        model = parse_model("parameter x { range = (-1, 1); }")
        solution = solve(build_program(model, "min", Polynomial.variable("x")))
        assert (solution.status, solution.lower, solution.upper) == optimal(F(-1))
        assert solution.point == {"x": F(-1)}

    def test_negative_range_fractional(self):
        model = parse_model("parameter x { range = (-1, 1); }")
        x = Polynomial.variable("x")
        solution = solve(build_program(model, "min", x / (x + 2)))
        assert (solution.status, solution.lower, solution.upper) == optimal(F(-1))
        assert solution.point == {"x": F(-1)}

    def test_missing_lower_bound_is_named(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        problem = OptimizationProblem(
            "max", as_quotient(x + y), box("x") + [Constraint(y, "<=", x)]
        )
        with pytest.raises(ValueError, match="'y'"):
            solve(problem)

    def test_contradictory_bounds_are_infeasible(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        constraints = box("x", "y") + [
            Constraint(-x, ">=", Polynomial.constant(F(-1, 4))),
            Constraint(2 * x, ">=", Polynomial.constant(F(1))),
        ]
        for objective in (as_quotient(x + y), (x + 1) / (y + 1)):
            problem = OptimizationProblem("min", objective, constraints)
            assert solve(problem).status == "infeasible"

    def test_empty_region_fractional(self):
        # the rows leave no feasible point, so the LP that checks the
        # denominator's sign is infeasible and so is the answer
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        constraints = box("x", "y") + [
            Constraint(x + y, ">=", Polynomial.constant(F(3, 2))),
            Constraint(x, "<=", Polynomial.constant(F(1, 4))),
            Constraint(y, "<=", Polynomial.constant(F(1, 2))),
        ]
        problem = OptimizationProblem("min", x / (x + y + 1), constraints)
        assert solve(problem).status == "infeasible"

    def test_empty_box_is_infeasible_before_branching(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        constraints = box("x") + [
            Constraint(y, ">=", Polynomial.constant(1)),
            Constraint(y, "<=", Polynomial.constant(0)),
        ]
        problem = OptimizationProblem("min", as_quotient(x * x + y), constraints)
        solution = solve_polynomial(problem, budget=5)
        assert solution.status == "infeasible"
        assert solution.stats["boxes"] == 0

    def test_negated_equality_pins_the_box(self):
        x = Polynomial.variable("x")
        problem = OptimizationProblem(
            "min",
            as_quotient(x * x),
            [Constraint(-x, "=", Polynomial.constant(F(-1, 2)))],
        )
        solution = solve_polynomial(problem)
        assert frozen(solution) == ("optimal", F(1, 4), F(1, 4), [("x", F(1, 2))])


# ---------------------------------------------------------------------------
# Oracle: LP and Charnes-Cooper optima against vertex enumeration over
# mixed-sign boxes.  A linear objective, or a linear-fractional one
# whose denominator is positive on the box, attains its optimum over a
# bounded polyhedron at a vertex; the vertices are the feasible
# solutions of the n-subsets of the constraints taken as equalities.


def solve_equalities(rows):
    """The unique solution of the square system sum_j a_j x_j = b over
    rows (a, b), by Gauss-Jordan elimination; None if it is singular."""
    n = len(rows)
    m = [list(a) + [b] for a, b in rows]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return [m[i][n] / m[i][i] for i in range(n)]


def feasible_vertices(names, constraints):
    rows = []
    for c in constraints:
        const, coeffs = (c.left - c.right).linear_coefficients()
        rows.append(([coeffs.get(name, F(0)) for name in names], -const))
    vertices = []
    for subset in combinations(rows, len(names)):
        values = solve_equalities(subset)
        if values is not None:
            point = dict(zip(names, values))
            if all(c.satisfied(point) for c in constraints):
                vertices.append(point)
    return vertices


def bound_constraint(v, k, relation, value):
    """k·v (relation) k·value, with the relation turned for k < 0."""
    if k < 0:
        relation = {"<=": ">=", ">=": "<=", "=": "="}[relation]
    return Constraint(k * v, relation, Polynomial.constant(k * value))


small = st.fractions(min_value=-2, max_value=2, max_denominator=2)


class TestLinearOracle:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_optimum_is_the_best_vertex(self, data):
        n = data.draw(st.integers(1, 3), label="n")
        names = ["x", "y", "z"][:n]
        vs = [Polynomial.variable(name) for name in names]
        constraints = []
        lows, highs = [], []
        for v in vs:
            low = data.draw(st.fractions(min_value=-1, max_value=F(1, 2), max_denominator=4))
            high = low + data.draw(st.fractions(min_value=0, max_value=F(3, 2), max_denominator=4))
            k = data.draw(st.sampled_from([-2, -1, 1, 2]))
            if low == high:
                constraints.append(bound_constraint(v, k, "=", low))
            else:
                constraints.append(bound_constraint(v, k, ">=", low))
                constraints.append(bound_constraint(v, k, "<=", high))
            lows.append(low)
            highs.append(high)
        for _ in range(data.draw(st.integers(0, 2), label="rows")):
            row = sum((data.draw(small) * v for v in vs), Polynomial())
            relation = data.draw(st.sampled_from(["<=", ">=", "="]))
            constraints.append(Constraint(row, relation, Polynomial.constant(data.draw(small))))
        num = data.draw(small) + sum((data.draw(small) * v for v in vs), Polynomial())
        if data.draw(st.booleans(), label="fractional"):
            ds = [data.draw(small) for _ in vs]
            # positive on the box: 1 + sum |d_j| max(|low_j|, |high_j|) > |d·x|
            d0 = 1 + sum(abs(d) * max(abs(a), abs(b)) for d, a, b in zip(ds, lows, highs))
            objective = num / (d0 + sum((d * v for d, v in zip(ds, vs)), Polynomial()))
        else:
            objective = as_quotient(num)
        sense = data.draw(st.sampled_from(["min", "max"]))
        problem = OptimizationProblem(sense, objective, constraints)
        solution = solve(problem)

        vertices = feasible_vertices(problem.variables, constraints)
        if not vertices:
            assert solution.status == "infeasible"
            return
        values = [
            objective.numerator.evaluate(p) / objective.denominator.evaluate(p)
            for p in vertices
        ]
        best = min(values) if sense == "min" else max(values)
        assert_attained(problem, solution, optimal(best))


# ---------------------------------------------------------------------------
# Oracle: the certified bound never exceeds the objective at a feasible
# point of the 1/8 grid, and the witness point attains the other bound.

GRID = [F(i, 8) for i in range(9)]
coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)


class TestBranchAndBoundOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bounds_are_sound(self, data):
        n = data.draw(st.integers(2, 3), label="n")
        names = ["x", "y", "z"][:n]
        vs = [Polynomial.variable(name) for name in names]
        monomials = [Polynomial.constant(1)] + vs + [
            vs[i] * vs[j] for i in range(n) for j in range(i, n)
        ]
        objective = Polynomial()
        for m in monomials:
            objective = objective + data.draw(coefficients) * m
        cut = Polynomial()
        for v in vs:
            cut = cut + data.draw(coefficients) * v
        relation = data.draw(st.sampled_from(["<=", ">=", "<", ">", "="]))
        rhs = Polynomial.constant(data.draw(coefficients))
        constraints = box(*names) + [Constraint(cut, relation, rhs)]
        sense = data.draw(st.sampled_from(["min", "max"]))
        problem = OptimizationProblem(sense, as_quotient(objective), constraints)
        solution = solve_polynomial(problem, budget=200)

        weak = [optimize.strictify(c) for c in constraints]
        feasible = [
            dict(zip(names, values))
            for values in product(GRID, repeat=n)
            if all(c.satisfied(dict(zip(names, values))) for c in weak)
        ]
        if solution.status == "infeasible":
            assert not feasible
            return
        for point in feasible:
            value = objective.evaluate(point)
            if sense == "min":
                assert solution.lower <= value
            else:
                assert value <= solution.upper
        if solution.point is not None:
            assert all(c.satisfied(solution.point) for c in weak)
            attained = solution.upper if sense == "min" else solution.lower
            assert objective.evaluate(solution.point) == attained


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
