"""Answer checks that do not rely on the code they check.

Polynomials are evaluated here from their raw term dictionaries, the
joint distribution is enumerated here from the models' table entries,
and search verdicts are re-derived by evaluation at random points.  Each
check returns a list of problems; an empty list means the answer passed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product


def eval_poly(poly, point: dict[str, Fraction], var_name) -> Fraction:
    """Evaluate a pqnet polynomial from its term dictionary.

    ``var_name`` maps a registry slot to its variable name.
    """
    total = Fraction(0)
    for key, coeff in poly.terms.items():
        term = coeff
        for index, exponent in key:
            term *= point[var_name(index)] ** exponent
        total += term
    return total


def poly_variables(poly, var_name) -> set[str]:
    return {var_name(index) for key in poly.terms for index, _ in key}


def random_point(names, rng: random.Random, denominator: int = 97) -> dict[str, Fraction]:
    """Rational values in [0, 1] for the given names, in sorted order."""
    return {name: Fraction(rng.randint(0, denominator), denominator) for name in sorted(names)}


# ---------------------------------------------------------------------------
# Inference: numeric enumeration of the joint

def numeric_joint(model, point, var_name) -> dict[tuple[int, ...], Fraction]:
    """Nonzero joint weights, keyed by state indices in variable order.

    Each component table contributes its entry as soon as all of its
    variables are assigned, so zero partial weights prune the
    enumeration (deterministic tables zero out most assignments).
    """
    variables = model.variable_order()
    position = {v.name: i for i, v in enumerate(variables)}
    ready: list[list] = [[] for _ in variables]
    for table in model.tables:
        members = table.given + table.targets
        last = max(position[v.name] for v in members)
        strides = []
        stride = 1
        for v in reversed(members):
            strides.append((position[v.name], stride))
            stride *= v.arity()
        values = [eval_poly(entry, point, var_name) for entry in table.entries]
        ready[last].append((strides, values))
    weights: dict[tuple[int, ...], Fraction] = {}
    assignment = [0] * len(variables)

    def descend(depth: int, weight: Fraction) -> None:
        if depth == len(variables):
            weights[tuple(assignment)] = weight
            return
        for state in range(variables[depth].arity()):
            assignment[depth] = state
            w = weight
            for strides, values in ready[depth]:
                w *= values[sum(assignment[p] * s for p, s in strides)]
                if w == 0:
                    break
            if w != 0:
                descend(depth + 1, w)

    descend(0, Fraction(1))
    return weights


def marginal(weights, model, names: list[str]) -> dict[tuple[int, ...], Fraction]:
    positions = [[v.name for v in model.variable_order()].index(n) for n in names]
    out: dict[tuple[int, ...], Fraction] = {}
    for key, weight in weights.items():
        sub = tuple(key[p] for p in positions)
        out[sub] = out.get(sub, Fraction(0)) + weight
    return out


def check_table(model, table, points, var_name, joints=None) -> list[str]:
    """Compare an inferred table against the enumerated joint.

    Every numerator and denominator must match the enumeration at each
    point, and each denominator must equal, term by term, the sum of the
    numerators of its block, so quotients stay unreduced and 0/0 stays
    0/0.  ``joints`` caches enumerations per point across tables of the
    same model.
    """
    problems = []
    names = [v.name for v in table.variables]
    cond = names[: table.conditioning_count]
    arities = [v.arity() for v in table.variables]
    combos = list(product(*(range(a) for a in arities)))
    if len(combos) != len(table.values):
        return [f"{table.header}: {len(table.values)} rows, expected {len(combos)}"]
    conditional = bool(cond)
    for i, point in enumerate(points):
        if joints is not None and i in joints:
            weights = joints[i]
        else:
            weights = numeric_joint(model, point, var_name)
            if joints is not None:
                joints[i] = weights
        num = marginal(weights, model, names)
        den = marginal(weights, model, cond) if conditional else None
        for row, (combo, value) in enumerate(zip(combos, table.values), start=1):
            want_num = num.get(combo, Fraction(0))
            got_num = eval_poly(value.numerator if conditional else value, point, var_name)
            if got_num != want_num:
                problems.append(f"{table.header} row {row}: numerator {got_num} != {want_num}")
            if conditional:
                want_den = den.get(combo[: len(cond)], Fraction(0))
                got_den = eval_poly(value.denominator, point, var_name)
                if got_den != want_den:
                    problems.append(f"{table.header} row {row}: denominator {got_den} != {want_den}")
    if conditional:
        block = len(combos) // math.prod(arities[: len(cond)])
        for start in range(0, len(table.values), block):
            entries = table.values[start : start + block]
            total: dict = {}
            for entry in entries:
                for key, coeff in entry.numerator.terms.items():
                    total[key] = total.get(key, Fraction(0)) + coeff
            total = {k: c for k, c in total.items() if c != 0}
            for entry in entries:
                if entry.denominator.terms != total:
                    problems.append(
                        f"{table.header} rows {start + 1}..{start + block}: "
                        "denominator is not the sum of the block's numerators"
                    )
                    break
    return problems


# ---------------------------------------------------------------------------
# Optimization

_RELATIONS = {
    "<=": lambda gap: gap <= 0,
    ">=": lambda gap: gap >= 0,
    "=": lambda gap: gap == 0,
    "<": lambda gap: gap < 0,
    ">": lambda gap: gap > 0,
}


def check_solution(problem, solution, exact: bool, var_name) -> list[str]:
    """A solver answer: optimal, feasible point, consistent value.

    Exact solvers (LP, Charnes-Cooper) must report lower == upper ==
    objective(point); branch-and-bound must bracket objective(point).
    """
    if solution.status != "optimal":
        return [f"status {solution.status}, expected optimal"]
    point = solution.point or {}
    problems = []
    missing = [name for name in problem.variables if name not in point]
    if missing:
        return [f"point lacks {missing}"]
    for c in problem.constraints:
        gap = eval_poly(c.left, point, var_name) - eval_poly(c.right, point, var_name)
        if not _RELATIONS[c.relation](gap):
            problems.append(f"point violates {c}")
    den = eval_poly(problem.objective.denominator, point, var_name)
    if den == 0:
        return problems + ["objective denominator is zero at the point"]
    value = eval_poly(problem.objective.numerator, point, var_name) / den
    if exact:
        if not solution.lower == solution.upper == value:
            problems.append(f"reported [{solution.lower}, {solution.upper}], objective at point {value}")
    elif not solution.lower <= value <= solution.upper:
        problems.append(f"objective at point {value} outside [{solution.lower}, {solution.upper}]")
    return problems


# ---------------------------------------------------------------------------
# Search

def criterion_holds(tree, zero: dict[str, bool]) -> bool:
    """Evaluate a criterion tree given each target's is-zero verdict.

    Trees are ("zero", name), ("not", t), ("and", a, b), ("or", a, b)
    and ("one", [t, ...]).
    """
    op = tree[0]
    if op == "zero":
        return zero[tree[1]]
    if op == "not":
        return not criterion_holds(tree[1], zero)
    if op == "and":
        return criterion_holds(tree[1], zero) and criterion_holds(tree[2], zero)
    if op == "or":
        return criterion_holds(tree[1], zero) or criterion_holds(tree[2], zero)
    if op == "one":
        return sum(criterion_holds(t, zero) for t in tree[1]) == 1
    raise ValueError(f"unknown criterion {op!r}")


def check_search(spec, tree, table, matches, rng: random.Random, var_name, trials: int = 2) -> list[str]:
    """Row count, Schwartz-Zippel zero verdicts, and the matching rows.

    A target is zero on a row exactly when the original polynomial,
    with the row's assignment and random values for every other
    variable, evaluates to zero at each of ``trials`` points (a nonzero
    polynomial of low degree vanishes at a random point from a large
    set with negligible probability).
    """
    problems = []
    expected_rows = math.prod(len(values) for _, values in spec.discrete)
    if len(table.rows) != expected_rows:
        return [f"{len(table.rows)} rows, expected {expected_rows}"]
    discrete = [name for name, _ in spec.discrete]
    free: set[str] = set()
    for poly in spec.targets.values():
        free |= poly_variables(poly, var_name)
    free -= set(discrete)
    want = []
    for row, combo in enumerate(product(*(values for _, values in spec.discrete)), start=1):
        assignment = dict(zip(discrete, (Fraction(v) for v in combo)))
        substituted = table.rows[row - 1][1]
        if table.rows[row - 1][0] != assignment:
            problems.append(f"row {row}: assignment {table.rows[row - 1][0]} != {assignment}")
        zero = {}
        for name, poly in spec.targets.items():
            points = [{**random_point(free, rng, 1_000_003), **assignment} for _ in range(trials)]
            zero[name] = all(eval_poly(poly, p, var_name) == 0 for p in points)
            if zero[name] != substituted[name].is_zero():
                problems.append(f"row {row}: target {name} zero={substituted[name].is_zero()}, evaluation says {zero[name]}")
        if criterion_holds(tree, zero):
            want.append(row)
    if matches != want:
        problems.append(f"matching rows {matches}, expected {want}")
    return problems
