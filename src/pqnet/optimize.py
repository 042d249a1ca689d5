"""Secondary analysis by optimization.

Query results are polynomials (or quotients of polynomials) in the
model parameters, so questions like "how large can this probability
be, given these extra conditions?" become optimization problems over
the constrained parameters.  Three solvers cover the cases:

* exact rational simplex for linear problems;
* the Charnes-Cooper lifting, which turns a linear-fractional
  objective over linear constraints into an ordinary linear program;
* interval branch-and-bound for general polynomial problems, which
  reports a certified enclosure of the global optimum rather than an
  exact value.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from . import linprog
from .network import Constraint, Model
from .polynomial import FractionalPolynomial, Polynomial, as_quotient, var_name

DEFAULT_EPSILON = Fraction(1, 1000)
DEFAULT_BUDGET = 20000


@dataclass
class OptimizationProblem:
    """min/max of a (fractional) polynomial objective under constraints."""

    sense: str  # "min" or "max"
    objective: FractionalPolynomial
    constraints: list[Constraint]
    variables: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be min or max, not {self.sense!r}")
        if not self.variables:
            names: set[str] = set()
            names |= self.objective.numerator.variables()
            names |= self.objective.denominator.variables()
            for c in self.constraints:
                names |= c.left.variables() | c.right.variables()
            self.variables = sorted(names)

    def __str__(self) -> str:
        obj = self.objective
        if obj.denominator == Polynomial.constant(1):
            obj_text = str(obj.numerator)
        else:
            obj_text = str(obj)
        lines = [f"{'minimize' if self.sense == 'min' else 'maximize'}: {obj_text}"]
        lines.append("subject to:")
        for c in self.constraints:
            lines.append(f"  {c}")
        return "\n".join(lines)


@dataclass
class Solution:
    """Solver output: an enclosure of the optimum and a witness point.

    For exact solves the interval endpoints coincide; the interval
    endpoints of branch-and-bound output are certified outer bounds.
    """

    status: str  # optimal | infeasible | unbounded | bounds-only
    lower: Fraction | None = None
    upper: Fraction | None = None
    point: dict[str, Fraction] | None = None

    def exact_value(self) -> Fraction:
        if self.lower is None or self.lower != self.upper:
            raise ValueError("solution is not exact")
        return self.lower

    def __str__(self) -> str:
        if self.status in ("infeasible", "unbounded"):
            return self.status
        return f"{float(self.lower):.3f} {float(self.upper):.3f}"

    def point_text(self) -> str:
        if not self.point:
            return ""
        return " ".join(
            f"{{{name} = {float(value):.3f}}}"
            for name, value in self.point.items()
        )


def build_program(
    model: Model,
    sense: str,
    objective,
    user_constraints: list[Constraint] | None = None,
) -> OptimizationProblem:
    """Assemble a problem from an objective expression and extra
    conditions, merging in the model's own parameter constraints."""
    constraints = model.constraints() + list(user_constraints or [])
    return OptimizationProblem(sense, as_quotient(objective), constraints)


# ---------------------------------------------------------------------------
# Classification

def _degree(c: Constraint) -> int:
    return max(c.left.total_degree(), c.right.total_degree())


def classify(problem: OptimizationProblem) -> str:
    """One of "linear", "fractional_linear", or "polynomial"."""
    if any(c.relation in ("<", ">") for c in problem.constraints):
        return "polynomial"  # strict inequalities need strictify first
    linear_constraints = all(_degree(c) <= 1 for c in problem.constraints)
    num = problem.objective.numerator
    den = problem.objective.denominator
    if linear_constraints and num.total_degree() <= 1:
        if den.is_constant():
            return "linear"
        if den.total_degree() <= 1:
            return "fractional_linear"
    return "polynomial"


def strictify(c: Constraint, epsilon: Fraction = DEFAULT_EPSILON) -> Constraint:
    """Replace a strict inequality by a weak one at distance epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    eps = Polynomial.constant(epsilon)
    if c.relation == ">":
        return Constraint(c.left, ">=", c.right + eps)
    if c.relation == "<":
        return Constraint(c.left, "<=", c.right - eps)
    return c


# ---------------------------------------------------------------------------
# Linear programming path

def _lp_from(problem: OptimizationProblem) -> linprog.LinearProgram:
    num = problem.objective.numerator
    den = problem.objective.denominator
    scale = Fraction(1) / den.constant_value()
    const, coeffs = num.linear_coefficients()
    lp = linprog.LinearProgram(
        variables=list(problem.variables),
        objective={k: v * scale for k, v in coeffs.items()},
        constant=const * scale,
        sense=problem.sense,
    )
    for c in problem.constraints:
        gap = c.left - c.right
        g0, gc = gap.linear_coefficients()
        lp.add_row(gc, c.relation, -g0)
    return lp


def solve_lp(problem: OptimizationProblem) -> Solution:
    """Exact simplex solve of a linear problem (variables nonnegative)."""
    result = linprog.solve(_lp_from(problem))
    if result.status != "optimal":
        return Solution(result.status)
    return Solution("optimal", result.value, result.value, result.point)


def charnes_cooper(problem: OptimizationProblem) -> Solution:
    """Solve a linear-fractional problem through the standard lifting.

    With yᵢ = xᵢ·s and s = 1/denominator, the quotient objective
    becomes linear and the normalization denominator·s = 1 is added;
    the recovered point divides each yᵢ by s.  The denominator must be
    positive somewhere on the feasible region; a denominator that is
    identically zero there is reported as infeasible.
    """
    num = problem.objective.numerator
    den = problem.objective.denominator
    n0, ncoef = num.linear_coefficients()
    d0, dcoef = den.linear_coefficients()

    # degeneracy check: the denominator must attain a positive value
    den_max = solve_lp(
        OptimizationProblem(
            "max", as_quotient(den), problem.constraints, list(problem.variables)
        )
    )
    if den_max.status != "optimal" or den_max.upper <= 0:
        return Solution("infeasible")

    names = list(problem.variables)
    lifted = [f"_y_{name}" for name in names]
    lp = linprog.LinearProgram(
        variables=lifted + ["_s"],
        objective={
            **{f"_y_{k}": v for k, v in ncoef.items()},
            "_s": n0,
        },
        sense=problem.sense,
    )
    # normalization: d0*s + sum d_i y_i = 1
    lp.add_row(
        {**{f"_y_{k}": v for k, v in dcoef.items()}, "_s": d0}, "=", 1
    )
    for c in problem.constraints:
        gap = c.left - c.right
        g0, gc = gap.linear_coefficients()
        row = {f"_y_{k}": v for k, v in gc.items()}
        row["_s"] = row.get("_s", Fraction(0)) + g0
        lp.add_row(row, c.relation, 0)
    result = linprog.solve(lp)
    if result.status != "optimal":
        return Solution(result.status)
    s = result.point["_s"]
    if s == 0:
        return Solution("infeasible")
    point = {name: result.point[f"_y_{name}"] / s for name in names}
    return Solution("optimal", result.value, result.value, point)


# ---------------------------------------------------------------------------
# Interval branch-and-bound for polynomial problems

Box = dict[str, tuple[Fraction, Fraction]]


def _is_multilinear(p: Polynomial) -> bool:
    return all(e <= 1 for key in p.terms for _, e in key)


def _interval_eval(p: Polynomial, box: Box) -> tuple[Fraction, Fraction]:
    """An enclosure of p's range over the box.

    Multilinear polynomials get the exact range via vertex enumeration
    (their extrema over a box lie at vertices); otherwise plain
    term-wise interval arithmetic.
    """
    names = sorted(p.variables())
    if _is_multilinear(p) and len(names) <= 12:
        lo = hi = None
        for corner in product(*((box[n][0], box[n][1]) for n in names)):
            value = p.evaluate(dict(zip(names, corner)))
            lo = value if lo is None or value < lo else lo
            hi = value if hi is None or value > hi else hi
        if lo is None:  # constant polynomial
            lo = hi = p.evaluate({})
        return lo, hi
    lo = hi = Fraction(0)
    for key, coeff in p.terms.items():
        tlo, thi = coeff, coeff
        for i, e in key:
            a, b = box[var_name(i)]
            plo, phi = _power_interval(a, b, e)
            candidates = [tlo * plo, tlo * phi, thi * plo, thi * phi]
            tlo, thi = min(candidates), max(candidates)
        lo += tlo
        hi += thi
    return lo, hi


def _power_interval(a: Fraction, b: Fraction, e: int) -> tuple[Fraction, Fraction]:
    if e % 2 == 1 or a >= 0:
        return a**e, b**e
    if b <= 0:
        return b**e, a**e
    return Fraction(0), max(a**e, b**e)


def _box_feasibility(constraints: list[Constraint], box: Box) -> str:
    """"infeasible", "feasible" (certainly), or "unknown" for a box."""
    verdict = "feasible"
    for c in constraints:
        lo, hi = _interval_eval(c.left - c.right, box)
        if c.relation in ("<=", "<"):
            if lo > 0:
                return "infeasible"
            if hi > 0:
                verdict = "unknown"
        elif c.relation in (">=", ">"):
            if hi < 0:
                return "infeasible"
            if lo < 0:
                verdict = "unknown"
        else:  # equality
            if lo > 0 or hi < 0:
                return "infeasible"
            if lo != 0 or hi != 0:
                verdict = "unknown"
    return verdict


def _sample_points(box: Box) -> list[dict[str, Fraction]]:
    names = list(box)
    points = []
    if len(names) <= 10:
        for corner in product(*((box[n][0], box[n][1]) for n in names)):
            points.append(dict(zip(names, corner)))
    points.append({n: (box[n][0] + box[n][1]) / 2 for n in names})
    return points


def _feasible(constraints: list[Constraint], point: dict[str, Fraction]) -> bool:
    return all(c.satisfied(point) for c in constraints)


def solve_polynomial(
    problem: OptimizationProblem,
    budget: int = DEFAULT_BUDGET,
    tolerance: Fraction = Fraction(1, 100),
) -> Solution:
    """Certified enclosure of the global optimum by branch-and-bound.

    Boxes from the parameter bounds are split on their widest side;
    interval evaluation prunes infeasible boxes and bounds the
    objective; exact evaluation at box corners and midpoints supplies
    feasible incumbents.  Stops when the enclosure is narrower than
    the tolerance or the box budget is spent.
    """
    constraints = [
        strictify(c) if c.relation in ("<", ">") else c
        for c in problem.constraints
    ]
    box = _bounds_box(problem, constraints)
    if problem.objective.denominator != Polynomial.constant(1):
        raise ValueError("polynomial solver requires a polynomial objective")
    objective = problem.objective.numerator
    sign = 1 if problem.sense == "min" else -1
    f = objective if sign == 1 else -objective

    best_value: Fraction | None = None  # upper bound on min f
    best_point = None

    def try_points(b: Box):
        nonlocal best_value, best_point
        for point in _sample_points(b):
            if _feasible(constraints, point):
                value = f.evaluate(point)
                if best_value is None or value < best_value:
                    best_value = value
                    best_point = point

    counter = 0
    heap: list[tuple[Fraction, int, Box]] = []
    if _box_feasibility(constraints, box) != "infeasible":
        lo, _ = _interval_eval(f, box)
        try_points(box)
        heapq.heappush(heap, (lo, counter, box))
    processed = 0
    exhausted_lb: Fraction | None = None  # lb of boxes we stopped splitting
    while heap and processed < budget:
        lb = heap[0][0]
        if best_value is not None and best_value - lb <= tolerance:
            break
        _, _, b = heapq.heappop(heap)
        processed += 1
        widest = max(b, key=lambda n: b[n][1] - b[n][0])
        a, c = b[widest]
        if c - a == 0:
            # a point box: its bound is final
            if exhausted_lb is None or lb < exhausted_lb:
                exhausted_lb = lb
            continue
        mid = (a + c) / 2
        for part in ((a, mid), (mid, c)):
            child = dict(b)
            child[widest] = part
            if _box_feasibility(constraints, child) == "infeasible":
                continue
            clo, _ = _interval_eval(f, child)
            if best_value is not None and clo > best_value:
                continue
            try_points(child)
            counter += 1
            heapq.heappush(heap, (clo, counter, child))

    # certified lower bound on the minimum of f over the feasible set
    candidates = [entry[0] for entry in heap]
    if exhausted_lb is not None:
        candidates.append(exhausted_lb)
    if best_value is None:
        if not candidates:
            return Solution("infeasible")
        lb = min(candidates)
        if sign == 1:
            return Solution("bounds-only", lb, None, None)
        return Solution("bounds-only", None, -lb, None)
    lb = min(candidates) if candidates else best_value
    lb = min(lb, best_value)
    status = "optimal" if best_value - lb <= tolerance else "bounds-only"
    if sign == 1:
        return Solution(status, lb, best_value, best_point)
    return Solution(status, -best_value, -lb, best_point)


def _bounds_box(problem: OptimizationProblem, constraints: list[Constraint]) -> Box:
    lows: dict[str, Fraction] = {}
    highs: dict[str, Fraction] = {}
    for c in constraints:
        gap = c.left - c.right
        if gap.total_degree() != 1:
            continue
        const, coeffs = gap.linear_coefficients()
        if len(coeffs) != 1:
            continue
        (name, coeff), = coeffs.items()
        bound = -const / coeff
        if c.relation in (">=", "=") and coeff > 0 or (
            c.relation in ("<=",) and coeff < 0
        ):
            if name not in lows or bound > lows[name]:
                lows[name] = bound
        if c.relation in ("<=", "=") and coeff > 0 or (
            c.relation in (">=",) and coeff < 0
        ):
            if name not in highs or bound < highs[name]:
                highs[name] = bound
    box = {}
    for name in problem.variables:
        if name not in lows or name not in highs:
            raise ValueError(f"parameter {name!r} is not box-bounded")
        box[name] = (lows[name], highs[name])
    return box


# ---------------------------------------------------------------------------
# Dispatch

def solve(problem: OptimizationProblem, budget: int = DEFAULT_BUDGET) -> Solution:
    """Solve by the cheapest applicable method."""
    kind = classify(problem)
    if kind == "linear":
        return solve_lp(problem)
    if kind == "fractional_linear":
        # sound only when the denominator cannot go negative
        den_min = solve_lp(
            OptimizationProblem(
                "min",
                as_quotient(problem.objective.denominator),
                problem.constraints,
                list(problem.variables),
            )
        )
        if den_min.status == "optimal" and den_min.lower >= 0:
            return charnes_cooper(problem)
        return solve_polynomial(problem, budget)
    return solve_polynomial(problem, budget)
