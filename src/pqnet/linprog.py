"""Exact linear programming over the rationals.

A small two-phase primal simplex using Bland's rule, with every number
a Fraction, so optima like 2/3 come out exactly rather than as 0.667.

Every decision variable is nonnegative and may have a finite upper
bound.  Upper bounds are not rows: the simplex uses the upper-bounding
technique (Dantzig 1955), where a nonbasic variable sits at 0 or at its
bound.  A variable at its bound is held as its complement x̄ = u - x,
so every nonbasic column reads 0 and the tableau keeps one form.  The
reduced costs live in a cost row that each pivot and bound flip
updates along with the constraint rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}


@dataclass
class LinearProgram:
    """min or max of c·x + c0 subject to rows of A x (<=|>=|=) b and
    0 <= x <= upper (a variable missing from ``upper`` has no bound)."""

    variables: list[str]
    objective: dict[str, Fraction]
    constant: Fraction = Fraction(0)
    sense: str = "min"
    rows: list[tuple[dict[str, Fraction], str, Fraction]] = field(default_factory=list)
    upper: dict[str, Fraction] = field(default_factory=dict)

    def add_row(self, coeffs: dict[str, Fraction], relation: str, rhs) -> None:
        if relation not in ("<=", ">=", "="):
            raise ValueError(f"bad relation {relation!r}")
        self.rows.append((dict(coeffs), relation, Fraction(rhs)))


@dataclass
class LPResult:
    status: str  # optimal | infeasible | unbounded
    value: Fraction | None = None
    point: dict[str, Fraction] | None = None


def solve(lp: LinearProgram) -> LPResult:
    n = len(lp.variables)
    col = {name: j for j, name in enumerate(lp.variables)}
    if any(u < 0 for u in lp.upper.values()):
        return LPResult("infeasible")

    # standard form rows: A x + slack = b with b >= 0; a row with b = 0
    # is written as <= so that its slack starts basic at 0
    rows = []
    for coeffs, rel, rhs in lp.rows:
        a = [Fraction(0)] * n
        for name, c in coeffs.items():
            a[col[name]] += c
        if rhs < 0 or rhs == 0 and rel == ">=":
            a = [-x for x in a]
            rhs = -rhs
            rel = _FLIPPED[rel]
        rows.append((a, rel, rhs))

    m = len(rows)
    slack_count = sum(1 for _, rel, _ in rows if rel != "=")
    art_start = n + slack_count
    art_count = sum(1 for _, rel, _ in rows if rel != "<=")
    total = art_start + art_count  # structural + slack + artificial
    # the upper bound of each column; None for none
    bound = [lp.upper.get(name) for name in lp.variables] + [None] * (total - n)
    # tableau rows: x_B(i) + sum t_ij x_j = beta_i, beta_i in the last entry
    tableau = []
    basis = []
    slack_at = n
    art_at = art_start
    for a, rel, rhs in rows:
        row = a + [Fraction(0)] * (total - n) + [rhs]
        if rel != "=":
            row[slack_at] = Fraction(1) if rel == "<=" else Fraction(-1)
            if rel == "<=":
                basis.append(slack_at)
            slack_at += 1
        if rel != "<=":
            row[art_at] = Fraction(1)
            basis.append(art_at)
            art_at += 1
        tableau.append(row)
    is_basic = [False] * total
    for b in basis:
        is_basic[b] = True
    # complemented[j]: column j stands for u_j - x_j rather than x_j
    complemented = [False] * total
    # the phase 2 cost row; slacks and artificials cost 0, so it is
    # priced for the starting basis.  Phase 1 adds its own row.
    sign = 1 if lp.sense == "min" else -1
    cost = [Fraction(0)] * (total + 1)
    for name, c in lp.objective.items():
        cost[col[name]] += sign * c
    cost_rows = [cost]

    def pivot(r: int, c: int) -> None:
        prow = tableau[r]
        piv = prow[c]
        if piv != 1:
            prow = tableau[r] = [x / piv for x in prow]
        nonzero = [k for k, x in enumerate(prow) if x]
        for row in tableau + cost_rows:
            factor = row[c]
            if factor and row is not prow:
                for k in nonzero:
                    row[k] -= factor * prow[k]
        is_basic[basis[r]] = False
        is_basic[c] = True
        basis[r] = c

    def complement(j: int) -> None:
        # a nonbasic column moves to its other bound: x_j -> u_j - x_j
        u = bound[j]
        for row in tableau + cost_rows:
            t = row[j]
            if t:
                row[-1] -= t * u
                row[j] = -t
        complemented[j] = not complemented[j]

    def optimize(cost: list[Fraction], phase1: bool) -> str:
        # cost[j] is the reduced cost of column j and cost[-1] minus the
        # objective value.  Bland's rule: the lowest improving column
        # enters, and the lowest-numbered blocking variable leaves.
        # Artificial columns never enter, nor do fixed ones (bound 0).
        while True:
            if phase1 and cost[-1] == 0:
                return "optimal"  # the artificial variables sum to zero
            entering = None
            for j in range(art_start):
                if cost[j] < 0 and not is_basic[j] and bound[j] != 0:
                    entering = j
                    break
            if entering is None:
                return "optimal"
            # the entering variable flips to its own bound unless a
            # basic variable first falls to 0 or reaches its bound
            best = bound[entering]
            leaving = None  # (row, leaves at its upper bound)
            for i in range(m):
                t = tableau[i][entering]
                if t > 0:
                    ratio = tableau[i][-1] / t
                    to_upper = False
                elif t < 0 and bound[basis[i]] is not None:
                    ratio = (bound[basis[i]] - tableau[i][-1]) / -t
                    to_upper = True
                else:
                    continue
                if best is None or ratio < best or ratio == best and basis[i] < (
                    entering if leaving is None else basis[leaving[0]]
                ):
                    best = ratio
                    leaving = (i, to_upper)
            if best is None:
                return "unbounded"
            if leaving is None:
                complement(entering)
                continue
            r, to_upper = leaving
            if to_upper:
                # the leaving variable is complemented so it leaves at 0
                b = basis[r]
                row = tableau[r] = [-x for x in tableau[r]]
                row[b] = Fraction(1)
                row[-1] += bound[b]
                complemented[b] = not complemented[b]
            pivot(r, entering)

    # phase 1: drive artificial variables to zero
    if art_count:
        phase1 = [Fraction(0)] * (total + 1)
        for i, b in enumerate(basis):
            if b >= art_start:
                for k, x in enumerate(tableau[i]):
                    phase1[k] -= x
        for j in range(art_start, total):
            phase1[j] = Fraction(0)
        cost_rows.append(phase1)
        optimize(phase1, True)
        if phase1[-1] != 0:
            return LPResult("infeasible")
        # pivot any artificial variables out of the basis; a row left
        # with an artificial has no other entries and stays at 0
        for i, b in enumerate(basis):
            if b >= art_start:
                for j in range(art_start):
                    if tableau[i][j] != 0:
                        pivot(i, j)
                        break
        cost_rows.pop()

    # phase 2
    if optimize(cost, False) == "unbounded":
        return LPResult("unbounded")

    values = [Fraction(0)] * total
    for i, b in enumerate(basis):
        values[b] = tableau[i][-1]
    point = {
        name: bound[j] - values[j] if complemented[j] else values[j]
        for j, name in enumerate(lp.variables)
    }
    value = lp.constant + sum(
        c * point[name] for name, c in lp.objective.items()
    )
    return LPResult("optimal", value, point)
