"""Parametric probability network models.

A model contains discrete primary variables with component probability
tables whose entries are polynomials in the model parameters, plus the
algebraic constraints those parameters must satisfy (zero-one bounds
and, for fully parametric joint tables, a normalization equation).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import formula as fm
from .polynomial import Polynomial


@dataclass(frozen=True)
class State:
    """One state of a discrete variable: display label and numeric value."""

    label: str
    value: Fraction


def binary_states() -> list[State]:
    return [State("T", Fraction(1)), State("F", Fraction(0))]


def range_states(low: int, high: int) -> list[State]:
    return [State(str(v), Fraction(v)) for v in range(low, high + 1)]


def value_states(values) -> list[State]:
    return [State(str(f), f) for f in map(Fraction, values)]


@dataclass
class Variable:
    """A discrete network variable (primary or decision)."""

    name: str
    states: list[State]
    label: str = ""
    kind: str = "primary"  # or "decision"
    deterministic: bool = False

    def arity(self) -> int:
        return len(self.states)

    def state_index(self, label: str) -> int:
        for i, s in enumerate(self.states):
            if s.label == label:
                return i
        raise KeyError(f"{self.name} has no state {label!r}")


@dataclass
class Parameter:
    """A continuous model parameter with an interval of allowed values."""

    name: str
    low: Fraction = Fraction(0)
    high: Fraction = Fraction(1)
    label: str = ""


@dataclass(frozen=True)
class Constraint:
    """Polynomial constraint: left <rel> right, rel in <=, >=, =, <, >."""

    left: Polynomial
    relation: str
    right: Polynomial

    def __str__(self) -> str:
        return f"{self.left} {self.relation} {self.right}"

    def satisfied(self, point: dict, strict_tolerance: Fraction = Fraction(0)) -> bool:
        gap = (self.left - self.right).evaluate(point)
        if self.relation == "<=":
            return gap <= 0
        if self.relation == ">=":
            return gap >= 0
        if self.relation == "=":
            return gap == 0
        if self.relation == "<":
            return gap < -strict_tolerance if strict_tolerance else gap < 0
        if self.relation == ">":
            return gap > strict_tolerance if strict_tolerance else gap > 0
        raise ValueError(f"bad relation {self.relation!r}")


class ComponentTable:
    """Probability entries attached to target variables.

    For a conditional table the targets hold the child variable and the
    entries run over parent combinations (outer, declaration order,
    last varying fastest) then child states (inner).  For a joint
    (clique) table there are several targets and the entries run over
    their joint state combinations.
    """

    def __init__(
        self,
        targets: list[Variable],
        given: list[Variable],
        entries: list[Polynomial],
        joint: bool = False,
        verify: bool = True,
        source: str = "",
    ):
        self.targets = targets
        self.given = given
        self.entries = entries
        self.joint = joint
        self.verify = verify
        self.source = source
        expected = 1
        for v in given + targets:
            expected *= v.arity()
        if len(entries) != expected:
            raise ValueError(
                f"table over {[v.name for v in targets]} needs {expected} "
                f"entries, got {len(entries)}"
            )

    def target_block(self) -> int:
        block = 1
        for v in self.targets:
            block *= v.arity()
        return block

    def rows(self) -> list[list[Polynomial]]:
        block = self.target_block()
        return [
            self.entries[i : i + block] for i in range(0, len(self.entries), block)
        ]

    def entry(self, assignment: dict[str, int]) -> Polynomial:
        """Look up the entry for state indices of given+target variables."""
        index = 0
        for v in self.given + self.targets:
            index = index * v.arity() + assignment[v.name]
        return self.entries[index]

    def check_rows(self) -> list[str]:
        """Row-sum diagnostics (skipped for tables declared noverify)."""
        problems = []
        if not self.verify:
            return problems
        if self.joint:
            return problems  # normalization is a constraint, not an identity
        for i, row in enumerate(self.rows()):
            total = Polynomial()
            for cell in row:
                total = total + cell
            if total != Polynomial.constant(1):
                target = " ".join(v.name for v in self.targets)
                problems.append(
                    f"row {i + 1} of table for {target} sums to {total}, not 1"
                )
        return problems


class Model:
    """A parametric probability network under construction or in use."""

    def __init__(self, name: str = ""):
        self.name = name
        self.variables: dict[str, Variable] = {}
        self.parameters: dict[str, Parameter] = {}
        self.tables: list[ComponentTable] = []
        self.extra_constraints: list[Constraint] = []
        self.utilities: dict[str, Polynomial] = {}
        self.graph_hints: list[str] = []
        self.clique_names: list[str] = []
        self.clique_members: dict[str, list[str]] = {}
        # parameters with declared finite value sets (search scaffolding)
        self.discrete_values: dict[str, list[Fraction]] = {}
        # statement list the model was built from, for serialization
        self.source_statements: list = []

    # -- construction ------------------------------------------------------

    def add_variable(self, variable: Variable) -> Variable:
        if variable.name in self.variables:
            raise ValueError(f"duplicate variable {variable.name!r}")
        self.variables[variable.name] = variable
        return variable

    def add_parameter(self, parameter: Parameter) -> Parameter:
        if parameter.name not in self.parameters:
            self.parameters[parameter.name] = parameter
            Polynomial.variable(parameter.name)  # claim a registry slot
        return parameter

    def add_table(self, table: ComponentTable) -> ComponentTable:
        self.tables.append(table)
        return table

    def parametric_conditional(
        self, child: Variable, parents: list[Variable], prefix: str
    ) -> ComponentTable:
        """Build a CPT with one fresh parameter family per parent row.

        Row i gets parameters ``<prefix>i`` for all but the last child
        state, whose entry is one minus the rest of the row.
        """
        rows = 1
        for p in parents:
            rows *= p.arity()
        entries = []
        per_row = child.arity() - 1
        counter = 0
        for _ in range(rows):
            row_params = []
            for _ in range(per_row):
                counter += 1
                name = f"{prefix}{counter}"
                self.add_parameter(Parameter(name))
                row_params.append(Polynomial.variable(name))
            rest = Polynomial.constant(1)
            for p in row_params:
                rest = rest - p
            entries.extend(row_params + [rest])
        return self.add_table(
            ComponentTable([child], parents, entries, verify=False)
        )

    def parametric_joint(
        self, clique: str, members: list[Variable], prefix: str
    ) -> ComponentTable:
        """Build a fully parametric joint table over the member variables.

        Every cell gets its own parameter ``<prefix>1`` .. ``<prefix>n``
        in row order; normalization becomes an algebraic constraint.
        """
        cells = 1
        for v in members:
            cells *= v.arity()
        entries = []
        for i in range(1, cells + 1):
            name = f"{prefix}{i}"
            self.add_parameter(Parameter(name))
            entries.append(Polynomial.variable(name))
        self.clique_names.append(clique)
        self.clique_members[clique] = [v.name for v in members]
        return self.add_table(
            ComponentTable(members, [], entries, joint=True, verify=False)
        )

    def table_from_function(
        self, child: Variable, parents: list[Variable], text: str
    ) -> ComponentTable:
        """Build a deterministic CPT by evaluating a formula.

        The formula is evaluated at every full assignment of parent and
        child state values; each result must be a number and each row
        must sum to one.
        """
        ast = fm.parse_formula(text)
        entries = []
        for combo in product(*(range(p.arity()) for p in parents)):
            assignment = {
                p.name: p.states[i].value for p, i in zip(parents, combo)
            }
            row = []
            for j in range(child.arity()):
                assignment[child.name] = child.states[j].value
                row.append(Polynomial.constant(fm.eval_formula(ast, assignment)))
            total = sum((cell.constant_value() for cell in row), Fraction(0))
            if total != 1:
                raise ValueError(
                    f"function table for {child.name} row "
                    f"{tuple(combo)} sums to {total}, not 1"
                )
            entries.extend(row)
        child.deterministic = True
        return self.add_table(
            ComponentTable([child], parents, entries, source=text)
        )

    def add_constraint(self, constraint: Constraint) -> None:
        self.extra_constraints.append(constraint)

    # -- constraints and validation ----------------------------------------

    def constraints(self) -> list[Constraint]:
        """All algebraic constraints on the parameters.

        Interval bounds for every parameter, a normalization equation
        for each fully parametric joint table, and any explicitly added
        constraints.
        """
        out = []
        for p in self.parameters.values():
            v = Polynomial.variable(p.name)
            out.append(Constraint(v, ">=", Polynomial.constant(p.low)))
            out.append(Constraint(v, "<=", Polynomial.constant(p.high)))
        for table in self.tables:
            if table.joint:
                total = Polynomial()
                for cell in table.entries:
                    total = total + cell
                out.append(Constraint(total, "=", Polynomial.constant(1)))
        out.extend(self.extra_constraints)
        return out

    def validate(self) -> list[str]:
        """Structural diagnostics; empty list means the model is sound."""
        problems = []
        covered: set[str] = set()
        for table in self.tables:
            for t in table.targets:
                if t.name in covered:
                    problems.append(f"{t.name} appears in more than one table")
                covered.add(t.name)
            problems.extend(table.check_rows())
        for v in self.variables.values():
            if v.name not in covered:
                problems.append(f"{v.name} has no probability table")
        return problems

    def variable_order(self) -> list[Variable]:
        return list(self.variables.values())

    def substitute(self, bindings: dict) -> "Model":
        """A copy of the model with parameter values substituted."""
        clone = Model(self.name)
        clone.variables = {
            name: Variable(v.name, list(v.states), v.label, v.kind, v.deterministic)
            for name, v in self.variables.items()
        }
        for p in self.parameters.values():
            if p.name not in bindings:
                clone.parameters[p.name] = p
        for table in self.tables:
            clone.tables.append(
                ComponentTable(
                    [clone.variables[t.name] for t in table.targets],
                    [clone.variables[g.name] for g in table.given],
                    [cell.substitute(bindings) for cell in table.entries],
                    joint=table.joint,
                    verify=table.verify,
                    source=table.source,
                )
            )
        for c in self.extra_constraints:
            clone.extra_constraints.append(
                Constraint(
                    c.left.substitute(bindings),
                    c.relation,
                    c.right.substitute(bindings),
                )
            )
        clone.utilities = {
            name: u.substitute(bindings) for name, u in self.utilities.items()
        }
        clone.graph_hints = list(self.graph_hints)
        clone.clique_names = list(self.clique_names)
        clone.clique_members = dict(self.clique_members)
        clone.discrete_values = {
            name: values
            for name, values in self.discrete_values.items()
            if name not in bindings
        }
        clone.source_statements = list(self.source_statements)
        return clone

    # -- graph export ------------------------------------------------------

    def export_dot(self) -> str:
        """Render the network structure in Graphviz dot format.

        Primaries are ovals (doubled outline when deterministic),
        parameters are parallelograms, and clique nodes are diamonds
        joining their member variables.
        """
        lines = ["digraph model {"]
        for v in self.variables.values():
            attrs = ['shape=oval']
            if v.deterministic:
                attrs.append("peripheries=2")
            lines.append(f'  "{v.name}" [{", ".join(attrs)}];')
        table_params: dict[int, list[str]] = {}
        for i, table in enumerate(self.tables):
            names = set()
            for cell in table.entries:
                names |= cell.variables()
            table_params[i] = sorted(names, key=_param_sort_key)
        for name in {p for ps in table_params.values() for p in ps}:
            lines.append(f'  "{name}" [shape=parallelogram];')
        for clique in self.clique_names:
            lines.append(f'  "{clique}" [shape=diamond];')
        for i, table in enumerate(self.tables):
            if table.joint:
                clique = self._clique_of(table)
                for t in table.targets:
                    lines.append(f'  "{clique}" -> "{t.name}";')
                for p in table_params[i]:
                    lines.append(f'  "{p}" -> "{clique}";')
            else:
                child = table.targets[0].name
                for g in table.given:
                    lines.append(f'  "{g.name}" -> "{child}";')
                for p in table_params[i]:
                    lines.append(f'  "{p}" -> "{child}";')
        for hint in self.graph_hints:
            lines.append(f"  {hint}")
        lines.append("}")
        return "\n".join(lines)

    def _clique_of(self, table: ComponentTable) -> str:
        members = [t.name for t in table.targets]
        for name, mem in self.clique_members.items():
            if mem == members:
                return name
        return "_".join(members)


def _param_sort_key(name: str):
    import re

    m = re.fullmatch(r"([A-Za-z_]+)(\d+)", name)
    if m:
        return (m.group(1), int(m.group(2)))
    return (name, 0)
