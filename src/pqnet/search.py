"""Secondary analysis by exhaustive search.

Some model parameters range over small finite sets (typically {0, 1},
encoding an unknown logical function).  Enumerating every assignment
of those parameters, substituting into selected query-result
polynomials, and filtering by zero/nonzero criteria answers questions
like "which question should I ask so that these two outcomes become
impossible?".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .inference import transcript
from .network import Constraint, Model
from .optimize import OptimizationProblem, solve_polynomial
from .polynomial import Polynomial, as_quotient

ENUMERATION_CAP = 2**20


@dataclass
class SearchSpec:
    """What to enumerate and what to examine.

    ``discrete`` lists (parameter name, allowed values) in order; the
    last parameter varies fastest.  ``targets`` are named polynomials
    taken from query results; criteria refer to them by name.
    """

    discrete: list[tuple[str, list[Fraction]]]
    targets: dict[str, Polynomial]
    constraints: list[Constraint] = field(default_factory=list)


@dataclass
class InstantiationTable:
    spec: SearchSpec
    rows: list[tuple[dict[str, Fraction], dict[str, Polynomial]]]

    def __len__(self) -> int:
        return len(self.rows)

    def assignment(self, index: int) -> dict[str, Fraction]:
        return self.rows[index - 1][0]

    def format(self, target_names: list[str] | None = None) -> str:
        names = [name for name, _ in self.spec.discrete]
        shown = target_names or list(self.spec.targets)
        lines = [[["Index"], names, shown]]
        for i, (assignment, values) in enumerate(self.rows, start=1):
            lines.append([
                [str(i)],
                [str(assignment[name]) for name in names],
                [str(values[name]) for name in shown],
            ])
        return transcript(lines)


def enumerate_spec(spec: SearchSpec) -> InstantiationTable:
    """Substitute every assignment of the discrete parameters into the
    target polynomials, one table row per assignment (last parameter
    fastest, rows numbered from 1)."""
    count = 1
    for _, values in spec.discrete:
        count *= len(values)
        if count > ENUMERATION_CAP:
            raise ValueError(f"enumeration exceeds cap of {ENUMERATION_CAP} rows")
    names = [name for name, _ in spec.discrete]
    rows = []
    for combo in product(*(values for _, values in spec.discrete)):
        assignment = dict(zip(names, (Fraction(v) for v in combo)))
        substituted = {
            name: poly.substitute(assignment)
            for name, poly in spec.targets.items()
        }
        rows.append((assignment, substituted))
    return InstantiationTable(spec, rows)


# ---------------------------------------------------------------------------
# Criteria

class Criterion:
    """A predicate over one row of an instantiation table."""

    def holds(self, values: dict[str, Polynomial], spec: SearchSpec) -> bool:
        raise NotImplementedError

    def __and__(self, other: "Criterion") -> "Criterion":
        return _All([self, other])

    def __or__(self, other: "Criterion") -> "Criterion":
        return _Any([self, other])

    def __invert__(self) -> "Criterion":
        return _Negate(self)


@dataclass
class IsZero(Criterion):
    """The named target is identically zero as a polynomial."""

    target: str

    def holds(self, values, spec) -> bool:
        return values[self.target].is_zero()


@dataclass
class IsNonzero(Criterion):
    """The named target attains a strictly positive value somewhere
    on the feasible continuous-parameter region.

    A polynomial with some term and only nonnegative coefficients is
    positive at the all-ones point of a [0,1] box, so that common case
    short-circuits; otherwise the optimizer certifies attainability.
    """

    target: str

    def holds(self, values, spec) -> bool:
        poly = values[self.target]
        if poly.is_zero():
            return False
        if all(c > 0 for c in poly.terms.values()):
            return True
        maximized = solve_polynomial(
            OptimizationProblem(
                "max", as_quotient(poly), list(spec.constraints)
            ),
            tolerance=Fraction(1, 1000),
        )
        return maximized.lower is not None and maximized.lower > 0


@dataclass
class _All(Criterion):
    parts: list[Criterion]

    def holds(self, values, spec) -> bool:
        return all(p.holds(values, spec) for p in self.parts)


@dataclass
class _Any(Criterion):
    parts: list[Criterion]

    def holds(self, values, spec) -> bool:
        return any(p.holds(values, spec) for p in self.parts)


@dataclass
class _Negate(Criterion):
    part: Criterion

    def holds(self, values, spec) -> bool:
        return not self.part.holds(values, spec)


class ExactlyOne(Criterion):
    """Exactly one of the component criteria holds."""

    def __init__(self, parts: list[Criterion]):
        self.parts = parts

    def holds(self, values, spec) -> bool:
        return sum(1 for p in self.parts if p.holds(values, spec)) == 1


def filter_rows(table: InstantiationTable, criterion: Criterion) -> list[int]:
    """1-based row indices of the assignments satisfying the criterion."""
    return [
        i
        for i, (_, values) in enumerate(table.rows, start=1)
        if criterion.holds(values, table.spec)
    ]


def instantiate_model(model: Model, assignment: dict[str, Fraction]) -> Model:
    """Fix parameter values throughout the model's tables and constraints."""
    for name, value in assignment.items():
        if name not in model.parameters:
            raise ValueError(f"unknown parameter {name!r}")
        p = model.parameters[name]
        if not p.low <= Fraction(value) <= p.high:
            raise ValueError(
                f"value {value} outside range [{p.low}, {p.high}] of {name!r}"
            )
    return model.substitute(assignment)
