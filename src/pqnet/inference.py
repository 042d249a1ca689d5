"""Symbolic probability inference over parametric network models.

A query is answered by variable elimination: each component table is a
factor over its variables, every variable outside the query is summed
out of the product of the factors that mention it, and the remaining
factors multiply into the numerator table of the query.  Each
conditional denominator is the sum of its block of numerator rows (the
rows that share one assignment of the conditioning variables), and the
quotient is formed entrywise without reduction.  An impossible
condition shows up as the indeterminate entry 0/0 rather than as an
error.  :func:`full_joint` and :func:`marginalize` build and aggregate
the full-joint table itself; they are the brute-force reference the
elimination is tested against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

from .network import Constraint, Model, Variable
from .polynomial import (
    FractionalPolynomial,
    ONE,
    Polynomial,
    UnlessForm,
    exact_divide,
    simplify_quotient,
)

# Variable elimination refuses a query whose largest intermediate
# factor would hold more cells than this.
FACTOR_CAP = 2**20


class Query:
    """A probability-table query: principal and conditioning variable sets.

    The remaining primaries form the marginal set and are summed out.
    """

    def __init__(self, model: Model, principal: list[str], conditioning: list[str]):
        names = set(model.variables)
        for v in principal + conditioning:
            if v not in names:
                raise ValueError(f"unknown variable {v!r}")
        overlap = set(principal) & set(conditioning)
        if overlap:
            raise ValueError(f"principal and conditioning overlap: {overlap}")
        for group in (principal, conditioning):
            if len(set(group)) != len(group):
                raise ValueError(f"variable repeated in {group}")
        # column order follows the query as asked, not declaration order
        self.principal = list(principal)
        self.conditioning = list(conditioning)

    def __str__(self) -> str:
        head = "{" + ", ".join(self.principal) + "}"
        if self.conditioning:
            return f"Pr( {head} | {{{', '.join(self.conditioning)}}} )"
        return f"Pr( {head} )"


def valid_queries(model: Model):
    """Every principal/conditioning/marginal partition of the primaries.

    Each variable may go to any of the three sets, so a model with m
    primaries admits 3^m distinct probability-table queries.
    """
    names = list(model.variables)
    for assignment in product((0, 1, 2), repeat=len(names)):
        principal = [n for n, a in zip(names, assignment) if a == 0]
        conditioning = [n for n, a in zip(names, assignment) if a == 1]
        yield Query(model, principal, conditioning)


class ResultTable:
    """The result of a query: rows of symbolic probability values.

    Columns are the conditioning variables then the principal
    variables, each group in the order the query asked for them, with
    the last column varying fastest down the rows.  Entries are
    polynomials for unconditional queries and unreduced fractional
    polynomials otherwise.  The model's parameter constraints travel
    with the table; they are part of the result.
    """

    def __init__(
        self,
        variables: list[Variable],
        values: list,
        constraints: list[Constraint],
        header: str,
        conditioning_count: int = 0,
    ):
        self.variables = variables
        self.values = values
        self.constraints = constraints
        self.header = header
        self.conditioning_count = conditioning_count

    def __len__(self) -> int:
        return len(self.values)

    def row_labels(self) -> list[tuple[str, ...]]:
        combos = product(*(range(v.arity()) for v in self.variables))
        return [
            tuple(v.states[i].label for v, i in zip(self.variables, combo))
            for combo in combos
        ]

    def item(self, index: int):
        """The value in the given row (rows are numbered from 1)."""
        if not 1 <= index <= len(self.values):
            raise IndexError(f"row {index} out of range 1..{len(self.values)}")
        return self.values[index - 1]

    def is_indeterminate(self, index: int) -> bool:
        value = self.values[index - 1]
        return isinstance(value, FractionalPolynomial) and value.is_indeterminate()

    # -- display -----------------------------------------------------------

    def format(
        self,
        index: bool = False,
        show_all: bool = False,
        unless: bool = False,
    ) -> str:
        """Render in the tab-separated transcript format.

        Indeterminate rows are hidden unless ``show_all`` is set (such
        exceptional elements are not displayed by default); ``unless``
        rewrites entries through the quotient simplifier.
        """
        ncols = len(self.variables) + 1 + (1 if index else 0)
        lines = []
        head = []
        if index:
            head.append("Index")
        for pos, v in enumerate(self.variables):
            head.append(("| " if pos == 0 else "") + v.name)
        head.append(f"| {self.header}")
        lines.append("\t".join(head) + "\t")
        lines.append("\t".join(["-------"] * ncols))
        for i, labels in enumerate(self.row_labels(), start=1):
            value = self.values[i - 1]
            if (
                not show_all
                and isinstance(value, FractionalPolynomial)
                and value.is_indeterminate()
            ):
                continue
            cells = []
            if index:
                cells.append(str(i))
            for pos, label in enumerate(labels):
                cells.append(("| " if pos == 0 else "") + label)
            cells.append("| " + (str(display_entry(value)) if unless else str(value)))
            lines.append("\t".join(cells) + "\t")
        return "\n".join(lines)

    def pivot(self, col_var: str) -> str:
        """Render with one row per condition and one value column per
        state of ``col_var``; original row indices are merged into
        labels like "1, 2".  Rows whose entries are all indeterminate
        are dropped.
        """
        try:
            pos = [v.name for v in self.variables].index(col_var)
        except ValueError:
            raise ValueError(f"{col_var!r} is not a column of this table") from None
        if pos != len(self.variables) - 1:
            raise ValueError("can only pivot the innermost column")
        other = self.variables[:-1]
        pivoted = self.variables[-1]
        block = pivoted.arity()
        lines = []
        head = ["Index"]
        for p, v in enumerate(other):
            head.append(("| " if p == 0 else "") + v.name)
        for j, state in enumerate(pivoted.states):
            head.append(("| " if j == 0 else "") + f"{pivoted.name}={state.label}")
        lines.append("\t".join(head) + "\t")
        lines.append("\t".join(["-------"] * len(head)))
        combos = list(product(*(range(v.arity()) for v in other)))
        for r, combo in enumerate(combos):
            base = r * block
            values = self.values[base : base + block]
            if all(
                isinstance(v, FractionalPolynomial) and v.is_indeterminate()
                for v in values
            ):
                continue
            cells = [", ".join(str(base + j + 1) for j in range(block))]
            for p, (v, i) in enumerate(zip(other, combo)):
                cells.append(("| " if p == 0 else "") + v.states[i].label)
            for j, value in enumerate(values):
                cells.append(("| " if j == 0 else "") + str(value))
            lines.append("\t".join(cells) + "\t")
        return "\n".join(lines)


def display_entry(value) -> UnlessForm | Polynomial | FractionalPolynomial | str:
    """Entry display with quotient simplification, as the tables print it.

    A quotient is rewritten to "q unless den = 0" only when the exact
    quotient is a single term; multi-term quotients are left alone
    (polynomial factoring is out of scope, so displays like
    (1 - x - z + x*z) / (1 - x) stay unreduced).  The indeterminate
    0/0 prints literally.
    """
    if not isinstance(value, FractionalPolynomial):
        return value
    if value.is_indeterminate():
        return value
    if value.denominator.is_constant():
        return simplify_quotient(value).value
    quotient = exact_divide(value.numerator, value.denominator)
    if quotient is not None and len(quotient.terms) <= 1:
        return UnlessForm(quotient, value.denominator)
    return value


# ---------------------------------------------------------------------------
# Inference proper

def full_joint(model: Model) -> ResultTable:
    """Join every component table into the full-joint probability table."""
    variables = model.variable_order()
    values = []
    for combo in product(*(range(v.arity()) for v in variables)):
        assignment = {v.name: i for v, i in zip(variables, combo)}
        cell = Polynomial.constant(1)
        for table in model.tables:
            cell = cell * table.entry(assignment)
        values.append(cell)
    header = "Pr( {" + ", ".join(v.name for v in variables) + "} )"
    return ResultTable(variables, values, model.constraints(), header)


def marginalize(table: ResultTable, keep: list[str]) -> ResultTable:
    """Aggregate an unconditional table down to the kept variables."""
    if table.conditioning_count:
        raise ValueError("can only marginalize an unconditional table")
    keep_set = set(keep)
    kept = [v for v in table.variables if v.name in keep_set]
    positions = [i for i, v in enumerate(table.variables) if v.name in keep_set]
    sums: dict[tuple[int, ...], Polynomial] = {}
    combos = product(*(range(v.arity()) for v in table.variables))
    for combo, value in zip(combos, table.values):
        key = tuple(combo[i] for i in positions)
        sums[key] = sums.get(key, Polynomial()) + value
    values = [
        sums.get(combo, Polynomial())
        for combo in product(*(range(v.arity()) for v in kept))
    ]
    header = "Pr( {" + ", ".join(v.name for v in kept) + "} )"
    return ResultTable(kept, values, table.constraints, header)


def query(model: Model, principal: list[str], conditioning: list[str] | None = None) -> ResultTable:
    """Answer a probability-table query by variable elimination.

    Each component table is a factor over its given and target
    variables.  Every variable outside the query is summed out in turn:
    the factors that mention it are multiplied and the variable is
    summed away, in the order :func:`_elimination_order` plans.  The
    remaining factors are multiplied into the numerator, whose columns
    are the conditioning then the principal variables in the order
    asked.  Its rows come in blocks, one block per conditioning
    assignment, and each entry's denominator is the sum of its block;
    entries are unreduced quotients.  Unconditional queries skip the
    division entirely.
    """
    q = Query(model, principal, conditioning or [])
    keep = q.conditioning + q.principal
    order = _elimination_order(model, keep)
    arity = {name: v.arity() for name, v in model.variables.items()}
    factors = [_table_factor(table) for table in model.tables]
    for name in order:
        mentioning = [f for f in factors if name in f[0]]
        factors = [f for f in factors if name not in f[0]]
        scope = []
        for names, _ in mentioning:
            scope.extend(n for n in names if n != name and n not in scope)
        cells = _product(scope + [name], mentioning, arity)
        k = arity[name]
        summed = [sum(cells[i : i + k], Polynomial()) for i in range(0, len(cells), k)]
        factors.append((scope, summed))
    numerator = _product(keep, factors, arity)
    ordered = [model.variables[n] for n in keep]
    if not q.conditioning:
        return ResultTable(ordered, numerator, model.constraints(), str(q))
    block = 1
    for n in q.principal:
        block *= arity[n]
    values = []
    for start in range(0, len(numerator), block):
        rows = numerator[start : start + block]
        denominator = sum(rows, Polynomial())
        values.extend(FractionalPolynomial(num, denominator) for num in rows)
    return ResultTable(
        ordered,
        values,
        model.constraints(),
        str(q),
        conditioning_count=len(q.conditioning),
    )


# A factor is (variable names, cells): one cell per joint state of the
# variables, in row order with the last variable varying fastest.
Factor = tuple[list[str], list[Polynomial]]


def _elimination_order(model: Model, keep: list[str]) -> list[str]:
    """Plan which variables to sum out, and in what order.

    Greedy: next comes the variable whose elimination leaves the
    smallest factor, ties broken by declaration order.  A variable in
    no table leaves a one-cell factor, its arity.  Planning looks only
    at variable scopes, so a query whose largest factor would exceed
    FACTOR_CAP cells fails here, before any arithmetic.
    """
    scopes = [
        {v.name for v in table.given + table.targets} for table in model.tables
    ]

    def cells(names) -> int:
        return prod(model.variables[name].arity() for name in names)

    def check(names) -> None:
        count = cells(names)
        if count > FACTOR_CAP:
            listed = ", ".join(n for n in model.variables if n in names)
            raise ValueError(
                f"query needs a factor of {count} cells over {{{listed}}}, "
                f"more than the cap of {FACTOR_CAP}"
            )

    remaining = [n for n in model.variables if n not in keep]
    order = []
    while remaining:
        merged = {
            n: set().union(*(s for s in scopes if n in s)) | {n} for n in remaining
        }
        name = min(remaining, key=lambda n: cells(merged[n] - {n}))
        check(merged[name])
        scopes = [s for s in scopes if name not in s] + [merged[name] - {name}]
        remaining.remove(name)
        order.append(name)
    check(keep)
    return order


def _table_factor(table) -> Factor:
    variables = table.given + table.targets
    cells = [
        table.entry({v.name: i for v, i in zip(variables, combo)})
        for combo in product(*(range(v.arity()) for v in variables))
    ]
    return [v.name for v in variables], cells


def _product(scope: list[str], factors: list[Factor], arity: dict[str, int]) -> list[Polynomial]:
    """The cells of the product of ``factors`` over ``scope``.

    Every variable of every factor must be in ``scope``.  A cell's
    product stops at the first zero; with no factors every cell is 1.
    """
    columns = []
    for names, cells in factors or [([], [ONE])]:
        strides = [0] * len(scope)
        stride = 1
        for name in reversed(names):
            strides[scope.index(name)] += stride
            stride *= arity[name]
        offsets = [0]
        for name, s in zip(scope, strides):
            offsets = [o + i * s for o in offsets for i in range(arity[name])]
        columns.append([cells[o] for o in offsets])
    out = []
    for values in zip(*columns):
        cell = values[0]
        for value in values[1:]:
            if cell.is_zero():
                break
            cell = cell * value
        out.append(cell)
    return out


def expectation(model: Model, variable: str) -> Polynomial:
    """The expected value of a numeric-domain variable, symbolically."""
    table = query(model, [variable])
    v = model.variables[variable]
    total = Polynomial()
    for state, value in zip(v.states, table.values):
        total = total + Polynomial.constant(state.value) * value
    return total


def nonzero_rows(table: ResultTable) -> list[int]:
    """1-based indices of rows whose value is not identically zero."""
    out = []
    for i, value in enumerate(table.values, start=1):
        poly = value.numerator if isinstance(value, FractionalPolynomial) else value
        if not poly.is_zero():
            out.append(i)
    return out
