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
import math
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
    # branch-and-bound counters: boxes, pruned, infeasible, stop
    stats: dict = field(default_factory=dict, compare=False)

    def exact_value(self) -> Fraction:
        if self.lower is None or self.lower != self.upper:
            raise ValueError("solution is not exact")
        return self.lower

    def __str__(self) -> str:
        if self.status in ("infeasible", "unbounded"):
            return self.status
        # a one-sided bounds-only result prints its open side as -inf / inf
        lower = -math.inf if self.lower is None else self.lower
        upper = math.inf if self.upper is None else self.upper
        return f"{float(lower):.3f} {float(upper):.3f}"

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

def _read_bounds(
    gaps: list[tuple[Polynomial, str]]
) -> tuple[dict[str, Fraction], dict[str, Fraction], list[tuple[Polynomial, str]]]:
    """Per-variable lows and highs from the gaps (``left - right``) that
    are linear in one variable, with a coefficient of either sign and
    any of <=, >=, =; the other gaps are returned as they are."""
    lows: dict[str, Fraction] = {}
    highs: dict[str, Fraction] = {}
    rest = []
    for gap, relation in gaps:
        if gap.total_degree() == 1:
            const, coeffs = gap.linear_coefficients()
            if len(coeffs) == 1:
                (name, coeff), = coeffs.items()
                bound = -const / coeff
                # coeff·x + const >= 0 bounds x from below when coeff > 0
                if relation == "=" or (relation == ">=") == (coeff > 0):
                    if name not in lows or bound > lows[name]:
                        lows[name] = bound
                if relation == "=" or (relation == "<=") == (coeff > 0):
                    if name not in highs or bound < highs[name]:
                        highs[name] = bound
                continue
        rest.append((gap, relation))
    return lows, highs, rest


def _shifted_linear(
    p: Polynomial, lows: dict[str, Fraction]
) -> tuple[Fraction, dict[str, Fraction]]:
    """The constant and coefficients of linear p after x = low + x'."""
    const, coeffs = p.linear_coefficients()
    return const + sum(c * lows[k] for k, c in coeffs.items()), coeffs


def _shift(problem: OptimizationProblem):
    """Substitute x = low + x' >= 0 in a problem with linear constraints.

    Returns the lows, the bound high - low of each variable that has a
    high, and the constraints on several variables as rows
    (coefficients, relation, right-hand side) over x'; None when some
    variable's bounds are contradictory.
    """
    gaps = []
    for c in problem.constraints:
        if c.relation not in ("<=", ">=", "="):
            raise ValueError(f"strict constraint {c} needs strictify first")
        gaps.append((c.left - c.right, c.relation))
    lows, highs, rest = _read_bounds(gaps)
    for name in problem.variables:
        if name not in lows:
            raise ValueError(f"parameter {name!r} has no lower bound")
    if any(highs[name] < lows[name] for name in highs):
        return None
    upper = {name: high - lows[name] for name, high in highs.items()}
    rows = []
    for gap, relation in rest:
        g0, coeffs = _shifted_linear(gap, lows)
        rows.append((coeffs, relation, -g0))
    return lows, upper, rows


def solve_lp(problem: OptimizationProblem) -> Solution:
    """Exact simplex solve of a linear problem.

    Every variable needs a lower bound among the constraints, and
    ValueError names one that has none.  Constraints on one variable
    become its range [low, high]; the LP runs over x' = x - low >= 0
    with x' <= high - low as a variable bound, so only the constraints
    on several variables are rows, and the lows are added back to the
    point.  Contradictory bounds give "infeasible".
    """
    shifted = _shift(problem)
    if shifted is None:
        return Solution("infeasible")
    lows, upper, rows = shifted
    scale = Fraction(1) / problem.objective.denominator.constant_value()
    const, coeffs = _shifted_linear(problem.objective.numerator, lows)
    lp = linprog.LinearProgram(
        variables=list(problem.variables),
        objective={k: v * scale for k, v in coeffs.items()},
        constant=const * scale,
        sense=problem.sense,
        rows=rows,
        upper=upper,
    )
    result = linprog.solve(lp)
    if result.status != "optimal":
        return Solution(result.status)
    point = {name: v + lows[name] for name, v in result.point.items()}
    return Solution("optimal", result.value, result.value, point)


def charnes_cooper(problem: OptimizationProblem) -> Solution:
    """Solve a linear-fractional problem through the standard lifting.

    The problem is first shifted as in ``solve_lp`` (x = low + x', and
    ValueError for a variable without a lower bound).  With
    yᵢ = x'ᵢ·s and s = 1/denominator, the quotient objective becomes
    linear and the normalization denominator·s = 1 is added; y >= 0
    holds by construction, and x' <= high - low becomes the row
    y - (high - low)·s <= 0.  The recovered point is low + y/s.

    The lifted LP is infeasible exactly when no feasible point has a
    positive denominator, so that case, and an optimum at s = 0, are
    reported as infeasible.  ``solve`` calls this after one LP that
    checks the denominator's sign, so an op solves two LPs in all.
    """
    shifted = _shift(problem)
    if shifted is None:
        return Solution("infeasible")
    lows, upper, rows = shifted
    n0, ncoef = _shifted_linear(problem.objective.numerator, lows)
    d0, dcoef = _shifted_linear(problem.objective.denominator, lows)

    names = list(problem.variables)
    lifted = {name: f"_y_{name}" for name in names}
    lp = linprog.LinearProgram(
        variables=list(lifted.values()) + ["_s"],
        objective={**{lifted[k]: v for k, v in ncoef.items()}, "_s": n0},
        sense=problem.sense,
    )
    # normalization: d0*s + sum d_i y_i = 1
    lp.add_row({**{lifted[k]: v for k, v in dcoef.items()}, "_s": d0}, "=", 1)
    for name, width in upper.items():
        lp.add_row({lifted[name]: Fraction(1), "_s": -width}, "<=", 0)
    for coeffs, relation, rhs in rows:
        lp.add_row({**{lifted[k]: v for k, v in coeffs.items()}, "_s": -rhs}, relation, 0)
    result = linprog.solve(lp)
    if result.status != "optimal":
        return Solution(result.status)
    s = result.point["_s"]
    if s == 0:
        return Solution("infeasible")
    point = {
        name: lows[name] + result.point[lifted[name]] / s for name in names
    }
    return Solution("optimal", result.value, result.value, point)


# ---------------------------------------------------------------------------
# Interval branch-and-bound for polynomial problems

# A box is (lows, highs) and a point is a tuple of values, both indexed by
# slot: the position of the variable in ``problem.variables``.
Box = tuple[tuple[Fraction, ...], tuple[Fraction, ...]]


class _Compiled:
    """A polynomial over box slots: terms (coeff, ((slot, exp), ...))."""

    __slots__ = ("terms", "slots", "vertex")

    def __init__(self, p: Polynomial, slot: dict[str, int]):
        self.terms = tuple(
            (coeff, tuple((slot[var_name(i)], e) for i, e in key))
            for key, coeff in p.terms.items()
        ) or ((Fraction(0), ()),)
        self.slots = sorted({s for _, factors in self.terms for s, _ in factors})
        multilinear = all(e == 1 for _, factors in self.terms for _, e in factors)
        # a multilinear polynomial takes its extrema over a box at vertices
        self.vertex = multilinear and len(self.slots) <= 12

    def at(self, point) -> Fraction:
        total = None  # a zero start would cost one more Fraction addition
        for coeff, factors in self.terms:
            for s, e in factors:
                coeff = coeff * (point[s] if e == 1 else point[s] ** e)
            total = coeff if total is None else total + coeff
        return total

    def enclosure(self, lows, highs) -> tuple[Fraction, Fraction]:
        """An enclosure of the range over the box: exact by vertex
        enumeration when multilinear, term-wise interval arithmetic
        otherwise."""
        if self.vertex:
            point = list(lows)
            lo = hi = None
            for corner in product(*((lows[s], highs[s]) for s in self.slots)):
                for s, v in zip(self.slots, corner):
                    point[s] = v
                value = self.at(point)
                if lo is None or value < lo:
                    lo = value
                if hi is None or value > hi:
                    hi = value
            return lo, hi
        lo = hi = Fraction(0)
        for coeff, factors in self.terms:
            tlo = thi = coeff
            for s, e in factors:
                plo, phi = _power_interval(lows[s], highs[s], e)
                candidates = (tlo * plo, tlo * phi, thi * plo, thi * phi)
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


def _holds(value: Fraction, le: bool, ge: bool) -> bool:
    return (not le or value <= 0) and (not ge or value >= 0)


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

    Each constraint gap and the objective are compiled once per solve
    into terms over box slots.  A constraint whose enclosure over a
    non-empty starting box already satisfies it, such as a bound the
    box was built from, holds on every sub-box and point, so it is
    skipped.

    ``Solution.stats`` counts the boxes popped, pruned by bound and
    found infeasible, and names why the search stopped.
    """
    constraints = [
        strictify(c) if c.relation in ("<", ">") else c
        for c in problem.constraints
    ]
    gaps = [(c.left - c.right, c.relation) for c in constraints]
    lows, highs = _bounds_box(problem.variables, gaps)
    if problem.objective.denominator != Polynomial.constant(1):
        raise ValueError("polynomial solver requires a polynomial objective")
    if any(a > b for a, b in zip(lows, highs)):
        # contradictory bounds: the starting box is empty
        stats = {"boxes": 0, "pruned": 0, "infeasible": 1, "stop": "exhausted"}
        return Solution("infeasible", stats=stats)
    slot = {name: i for i, name in enumerate(problem.variables)}
    box = (lows, highs)
    # (gap, gap must be <= 0, gap must be >= 0); equalities need both
    checks = []
    for poly, rel in gaps:
        gap, le, ge = _Compiled(poly, slot), rel != ">=", rel != "<="
        lo, hi = gap.enclosure(lows, highs)
        # holds on the whole box (a bound the box was built from, say);
        # a sub-box's enclosure lies inside the box's, so it holds on
        # every sub-box and point
        if (not le or hi <= 0) and (not ge or lo >= 0):
            continue
        checks.append((gap, le, ge))
    objective = problem.objective.numerator
    sign = 1 if problem.sense == "min" else -1
    f = _Compiled(objective if sign == 1 else -objective, slot)
    stats = {"boxes": 0, "pruned": 0, "infeasible": 0}

    def infeasible(b: Box) -> bool:
        for gap, le, ge in checks:
            lo, hi = gap.enclosure(*b)
            if le and lo > 0 or ge and hi < 0:
                stats["infeasible"] += 1
                return True
        return False

    best_value: Fraction | None = None  # upper bound on min f
    best_point = None

    def try_points(b: Box):
        nonlocal best_value, best_point
        blo, bhi = b
        points = list(product(*zip(blo, bhi))) if len(blo) <= 10 else []
        points.append(tuple((a + c) / 2 for a, c in zip(blo, bhi)))
        for point in points:
            if all(_holds(gap.at(point), le, ge) for gap, le, ge in checks):
                value = f.at(point)
                if best_value is None or value < best_value:
                    best_value = value
                    best_point = point

    counter = 0
    heap: list[tuple[Fraction, int, Box]] = []
    if not infeasible(box):
        lo, _ = f.enclosure(lows, highs)
        try_points(box)
        heapq.heappush(heap, (lo, counter, box))
    exhausted_lb: Fraction | None = None  # lb of boxes we stopped splitting
    stats["stop"] = "exhausted"
    while heap:
        lb = heap[0][0]
        if best_value is not None and best_value - lb <= tolerance:
            stats["stop"] = "tolerance"
            break
        if stats["boxes"] >= budget:
            stats["stop"] = "budget"
            break
        _, _, (blo, bhi) = heapq.heappop(heap)
        stats["boxes"] += 1
        widest = max(range(len(blo)), key=lambda i: bhi[i] - blo[i])
        a, c = blo[widest], bhi[widest]
        if a == c:
            # a point box: its bound is final
            if exhausted_lb is None or lb < exhausted_lb:
                exhausted_lb = lb
            continue
        mid = (a + c) / 2
        for plo, phi in ((a, mid), (mid, c)):
            child = (
                blo[:widest] + (plo,) + blo[widest + 1:],
                bhi[:widest] + (phi,) + bhi[widest + 1:],
            )
            if infeasible(child):
                continue
            clo, _ = f.enclosure(*child)
            if best_value is not None and clo > best_value:
                stats["pruned"] += 1
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
            return Solution("infeasible", stats=stats)
        lb = min(candidates)
        if sign == 1:
            return Solution("bounds-only", lb, None, None, stats)
        return Solution("bounds-only", None, -lb, None, stats)
    lb = min(candidates) if candidates else best_value
    lb = min(lb, best_value)
    status = "optimal" if best_value - lb <= tolerance else "bounds-only"
    point = dict(zip(problem.variables, best_point))
    if sign == 1:
        return Solution(status, lb, best_value, point, stats)
    return Solution(status, -best_value, -lb, point, stats)


def _bounds_box(variables: list[str], gaps: list[tuple[Polynomial, str]]) -> Box:
    lows, highs, _ = _read_bounds(gaps)
    for name in variables:
        if name not in lows or name not in highs:
            raise ValueError(f"parameter {name!r} is not box-bounded")
    return tuple(lows[n] for n in variables), tuple(highs[n] for n in variables)


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
        if den_min.status == "infeasible":
            return den_min
        if den_min.status == "optimal" and den_min.lower >= 0:
            return charnes_cooper(problem)
        return solve_polynomial(problem, budget)
    return solve_polynomial(problem, budget)
