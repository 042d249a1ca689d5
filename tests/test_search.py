"""Combinatorial search over discrete parameter assignments.

The zombie interrogation model drives most of these tests: four switch
parameters t1..t4 in {0, 1} select which question is asked, and the
search looks for questions that make certain response/humanity
combinations impossible.  The expected surviving assignments were
verified by re-running inference on each instantiated model.
"""

import itertools
from fractions import Fraction

import pytest

from conftest import model_path
from pqnet.dsl import load_model
from pqnet.inference import query
from pqnet.network import Constraint
from pqnet.polynomial import Polynomial
from pqnet.search import (
    ExactlyOne,
    InstantiationTable,
    IsNonzero,
    IsZero,
    SearchSpec,
    enumerate_spec,
    filter_rows,
    instantiate_model,
)


def zombie_spec():
    model = load_model(model_path("zombie1.pql"))
    table = query(model, ["R", "H"])
    labels = table.row_labels()
    targets = {
        f"Pr(R={r},H={h})": value
        for (r, h), value in zip(labels, table.values)
    }
    discrete = [(f"t{i}", [Fraction(0), Fraction(1)]) for i in range(1, 5)]
    return model, SearchSpec(discrete, targets, model.constraints())


class TestEnumeration:
    def test_row_count_and_order(self):
        _, spec = zombie_spec()
        table = enumerate_spec(spec)
        assert len(table) == 16
        # last parameter varies fastest
        assert table.assignment(1) == {
            "t1": 0, "t2": 0, "t3": 0, "t4": 0
        }
        assert table.assignment(2)["t4"] == 1
        assert table.assignment(16) == {
            "t1": 1, "t2": 1, "t3": 1, "t4": 1
        }

    def test_substitution_is_complete(self):
        _, spec = zombie_spec()
        table = enumerate_spec(spec)
        for _, values in table.rows:
            for poly in values.values():
                assert not poly.variables() & {"t1", "t2", "t3", "t4"}

    def test_cap(self):
        discrete = [(f"d{i}", [Fraction(0), Fraction(1)]) for i in range(25)]
        with pytest.raises(ValueError):
            enumerate_spec(SearchSpec(discrete, {}))

    def test_format(self):
        _, spec = zombie_spec()
        table = enumerate_spec(spec)
        lines = table.format().splitlines()
        assert lines[0].startswith("Index\t| t1\tt2\tt3\tt4\t| ")
        assert lines[2].startswith("1\t| 0\t0\t0\t0\t| ")
        # a fractional assignment prints as a fraction
        x = Polynomial.variable("x")
        spec = SearchSpec([("x", [Fraction(1, 2), Fraction(1)])], {"p": 1 - x})
        lines = enumerate_spec(spec).format().splitlines()
        assert lines == ["Index\t| x\t| p\t", "-------\t-------\t-------",
                         "1\t| 1/2\t| 1/2\t", "2\t| 1\t| 0\t"]


class TestCriteria:
    def test_zombie_search(self):
        # A yes/no question that settles humanity regardless of what
        # "Bal" means: responses must never co-occur with the wrong
        # humanity value.
        _, spec = zombie_spec()
        table = enumerate_spec(spec)
        criterion = (IsZero("Pr(R=T,H=F)") & IsZero("Pr(R=F,H=T)")) | (
            IsZero("Pr(R=T,H=T)") & IsZero("Pr(R=F,H=F)")
        )
        assert filter_rows(table, criterion) == [6, 11]
        assert table.assignment(6) == {"t1": 0, "t2": 1, "t3": 0, "t4": 1}
        assert table.assignment(11) == {"t1": 1, "t2": 0, "t3": 1, "t4": 0}

    def test_is_nonzero_with_positive_coefficients(self):
        _, spec = zombie_spec()
        table = enumerate_spec(spec)
        rows = filter_rows(table, IsNonzero("Pr(R=T,H=T)"))
        # Pr(R=T,H=T) = x2 + t1*x1 - t2*x2 vanishes only when t1=0, t2=1
        assert rows == [
            i for i in range(1, 17)
            if not (table.assignment(i)["t1"] == 0
                    and table.assignment(i)["t2"] == 1)
        ]

    def test_is_nonzero_uses_optimizer_for_mixed_signs(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        constraints = []
        for v, n in ((x, "x"), (y, "y")):
            constraints.append(Constraint(v, ">=", Polynomial.constant(0)))
            constraints.append(Constraint(v, "<=", Polynomial.constant(1)))
        spec = SearchSpec([], {"d": x - x * y}, constraints)
        table = InstantiationTable(spec, [({}, {"d": x - x * y})])
        assert filter_rows(table, IsNonzero("d")) == [1]
        # identically-zero target can never be attained
        table2 = InstantiationTable(spec, [({}, {"d": Polynomial()})])
        assert filter_rows(table2, IsNonzero("d")) == []

    def test_combinators(self):
        _, spec = zombie_spec()
        table = enumerate_spec(spec)
        zero_tf = IsZero("Pr(R=T,H=F)")
        zero_ft = IsZero("Pr(R=F,H=T)")
        both = filter_rows(table, zero_tf & zero_ft)
        either = filter_rows(table, zero_tf | zero_ft)
        neither = filter_rows(table, ~(zero_tf | zero_ft))
        exactly = filter_rows(table, ExactlyOne([zero_tf, zero_ft]))
        assert set(both) <= set(either)
        assert set(neither) == set(range(1, 17)) - set(either)
        assert sorted(both + exactly) == sorted(either)


class TestOracle:
    def test_filter_matches_reinference(self):
        # Re-running inference on each instantiated model must agree
        # with substitution into the symbolic query results.
        model, spec = zombie_spec()
        table = enumerate_spec(spec)
        criterion = IsZero("Pr(R=T,H=F)") & IsZero("Pr(R=F,H=T)")
        expected = []
        for i in range(1, 17):
            assignment = table.assignment(i)
            inst = instantiate_model(model, assignment)
            result = query(inst, ["R", "H"])
            labels = result.row_labels()
            cells = dict(zip(labels, result.values))
            if cells[("T", "F")].is_zero() and cells[("F", "T")].is_zero():
                expected.append(i)
        assert filter_rows(table, criterion) == expected

    def test_substitution_commutes_with_inference(self):
        model, spec = zombie_spec()
        table = enumerate_spec(spec)
        for i in range(1, 17):
            assignment = table.assignment(i)
            inst = instantiate_model(model, assignment)
            result = query(inst, ["R", "H"])
            for (r, h), value in zip(result.row_labels(), result.values):
                assert value == table.rows[i - 1][1][f"Pr(R={r},H={h})"]


class TestInstantiation:
    def test_instantiated_model_values(self):
        model, spec = zombie_spec()
        table = enumerate_spec(spec)
        inst = instantiate_model(model, table.assignment(11))
        result = query(inst, ["R", "H"])
        assert [str(v) for v in result.values] == [
            "x1 + x2",
            "0",
            "0",
            "x3 + x4",
        ]

    def test_range_check(self):
        model, _ = zombie_spec()
        with pytest.raises(ValueError):
            instantiate_model(model, {"t1": Fraction(2)})
        with pytest.raises(ValueError):
            instantiate_model(model, {"nope": Fraction(0)})

    def test_original_model_unchanged(self):
        model, _ = zombie_spec()
        before = sorted(model.parameters)
        instantiate_model(model, {"t1": Fraction(1)})
        assert sorted(model.parameters) == before
