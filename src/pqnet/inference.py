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

from itertools import product
from math import prod

from .network import Constraint, Model, Variable
from .polynomial import (
    FractionalPolynomial,
    ONE,
    Polynomial,
    UnlessForm,
    exact_divide,  # noqa: F401 -- perfbench/spans.py patches inference.exact_divide
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
        return _indeterminate(self.values[index - 1])

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
        rewrites entries through :func:`display_entry`.
        """
        names = [v.name for v in self.variables]
        lines = [[["Index"] if index else [], names, [self.header]]]
        rows = zip(self.row_labels(), self.values)
        for i, (labels, value) in enumerate(rows, start=1):
            if not show_all and _indeterminate(value):
                continue
            shown = display_entry(value) if unless else value
            lines.append([[str(i)] if index else [], labels, [str(shown)]])
        return transcript(lines)

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
        lines = [[
            ["Index"],
            [v.name for v in other],
            [f"{pivoted.name}={state.label}" for state in pivoted.states],
        ]]
        for r, combo in enumerate(product(*(range(v.arity()) for v in other))):
            base = r * block
            values = self.values[base : base + block]
            if all(_indeterminate(v) for v in values):
                continue
            lines.append([
                [", ".join(str(base + j + 1) for j in range(block))],
                [v.states[i].label for v, i in zip(other, combo)],
                [str(v) for v in values],
            ])
        return transcript(lines)


def _indeterminate(value) -> bool:
    return isinstance(value, FractionalPolynomial) and value.is_indeterminate()


def transcript(lines) -> str:
    """Lay out lines of cell groups as a tab-separated transcript table.

    The first line is the header.  Every cell group after the first of
    its line opens with "| ", the header and each row end with a tab,
    and under the header runs a "-------" rule as wide as the header.
    """
    rendered = []
    for groups in lines:
        cells = list(groups[0])
        for group in groups[1:]:
            if group:
                cells.append("| " + group[0])
                cells.extend(group[1:])
        rendered.append("\t".join(cells) + "\t")
    width = sum(len(group) for group in lines[0])
    rendered.insert(1, "\t".join(["-------"] * width))
    return "\n".join(rendered)


def display_entry(value) -> UnlessForm | Polynomial | FractionalPolynomial:
    """Entry display with quotient simplification, as the tables print it.

    A quotient goes through :func:`simplify_quotient`, and its "q unless
    den = 0" form is kept only when q is a single term; multi-term
    quotients are left alone (polynomial factoring is out of scope, so
    displays like (1 - x - z + x*z) / (1 - x) stay unreduced).  Over a
    constant denominator the plain polynomial is shown, and the
    indeterminate 0/0 prints literally.
    """
    if not isinstance(value, FractionalPolynomial) or value.is_indeterminate():
        return value
    form = simplify_quotient(value)
    if form.guard is None:
        return form.value
    if isinstance(form.value, Polynomial) and len(form.value.terms) <= 1:
        return form
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
