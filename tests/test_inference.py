"""Symbolic inference: joints, marginals, conditional queries, displays.

The frozen expectations here were computed by hand from the chain model
Pr(P)=x, Pr(Q|P)=y, Pr(R|P)=z (with Q and R impossible given not-P) and
are cross-checked against a brute-force numeric reference implementation
at random rational parameter points.
"""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import model_path
from pqnet.dsl import load_model
from pqnet.inference import (
    expectation,
    full_joint,
    marginalize,
    nonzero_rows,
    query,
    valid_queries,
)
from pqnet.polynomial import FractionalPolynomial, Polynomial


@pytest.fixture
def basic():
    return load_model(model_path("basic1.pql"))


class TestFullJoint:
    def test_nonzero_cells(self, basic):
        table = query(basic, ["P", "Q", "R"])
        assert [str(v) for v in table.values] == [
            "x*y",
            "0",
            "0",
            "x - x*y",
            "z - x*z",
            "0",
            "1 - x - z + x*z",
            "0",
        ]
        assert nonzero_rows(table) == [1, 4, 5, 7]

    def test_cells_sum_to_one(self, basic):
        total = sum(full_joint(basic).values, Polynomial())
        assert total == 1


class TestMarginals:
    def test_single_variable(self, basic):
        table = query(basic, ["Q"])
        assert [str(v) for v in table.values] == [
            "z + x*y - x*z",
            "1 - z - x*y + x*z",
        ]

    def test_pair(self, basic):
        table = query(basic, ["P", "Q"])
        assert [str(v) for v in table.values] == [
            "x*y",
            "x - x*y",
            "z - x*z",
            "1 - x - z + x*z",
        ]

    def test_marginalize_function(self, basic):
        joint = full_joint(basic)
        table = marginalize(joint, ["P"])
        x = Polynomial.variable("x")
        assert table.values == [x, 1 - x]


class TestConditionals:
    def test_simple_conditional(self, basic):
        table = query(basic, ["Q"], ["P"])
        assert [str(v) for v in table.values] == [
            "(x*y) / (x)",
            "(x - x*y) / (x)",
            "(z - x*z) / (1 - x)",
            "(1 - x - z + x*z) / (1 - x)",
        ]

    def test_conditional_with_impossible_condition(self, basic):
        table = query(basic, ["Q"], ["P", "R"])
        assert [str(v) for v in table.values] == [
            "(x*y) / (x*y)",
            "(0) / (x*y)",
            "(0) / (x - x*y)",
            "(x - x*y) / (x - x*y)",
            "(z - x*z) / (1 - x)",
            "(1 - x - z + x*z) / (1 - x)",
            "0/0",
            "0/0",
        ]

    def test_column_order_follows_query(self, basic):
        table = query(basic, ["R"], ["Q"])
        assert [v.name for v in table.variables] == ["Q", "R"]
        table = query(basic, ["Q", "P"])
        assert [v.name for v in table.variables] == ["Q", "P"]

    def test_item_and_indeterminate(self, basic):
        table = query(basic, ["Q"], ["P", "R"])
        assert str(table.item(7)) == "0/0"
        assert table.is_indeterminate(7)
        assert not table.is_indeterminate(1)
        with pytest.raises(IndexError):
            table.item(9)

    def test_indeterminate_rows_hidden(self, basic):
        table = query(basic, ["Q"], ["P", "R"])
        text = table.format(index=True)
        assert "0/0" not in text
        assert len(text.splitlines()) == 8  # header, rule, six shown rows
        assert "0/0" in table.format(index=True, show_all=True)

    def test_format_header(self, basic):
        table = query(basic, ["Q"], ["P"])
        lines = table.format(index=True).splitlines()
        assert lines[0] == "Index\t| P\tQ\t| Pr( {Q} | {P} )\t"
        assert lines[1] == "-------\t-------\t-------\t-------"
        assert lines[2] == "1\t| T\tT\t| (x*y) / (x)\t"

    def test_unless_display(self, basic):
        table = query(basic, ["Q"], ["P", "R"])
        lines = table.format(index=True, unless=True).splitlines()
        assert lines[2] == "1\t| T\tT\tT\t| 1 unless x*y = 0\t"
        assert lines[5] == "4\t| T\tF\tF\t| 1 unless x*y = x\t"
        assert lines[6] == "5\t| F\tT\tT\t| z unless x = 1\t"
        # multi-term quotients stay unreduced: no factoring
        assert lines[7] == "6\t| F\tT\tF\t| (1 - x - z + x*z) / (1 - x)\t"

    def test_pivot(self, basic):
        table = query(basic, ["Q"], ["P", "R"])
        lines = table.pivot("Q").splitlines()
        assert lines[0] == "Index\t| P\tR\t| Q=T\tQ=F\t"
        assert lines[2].startswith("1, 2\t| T\tT\t| (x*y) / (x*y)\t")
        # the all-indeterminate (F, F) condition is dropped
        assert len(lines) == 5

    def test_pivot_requires_innermost(self, basic):
        table = query(basic, ["Q"], ["P"])
        with pytest.raises(ValueError):
            table.pivot("P")

    def test_conditioning_order_does_not_change_answers(self):
        # Each denominator must pair with its own rows whatever order the
        # conditioning variables are asked in, not only declaration order.
        knight = load_model(model_path("knight2.pql"))
        asked = query(knight, ["Q"], ["R", "A"])
        declared = query(knight, ["Q"], ["A", "R"])
        by_labels = dict(zip(declared.row_labels(), declared.values))
        for (r, a, q), value in zip(asked.row_labels(), asked.values):
            assert value == by_labels[(a, r, q)]
        for value in asked.values:
            assert value.numerator.is_zero() or not value.denominator.is_zero()
        asked.format(unless=True)


class TestQueryEnumeration:
    def test_count_is_power_of_three(self, basic):
        queries = list(valid_queries(basic))
        assert len(queries) == 3 ** len(basic.variables)

    def test_all_distinct(self, basic):
        seen = {
            (tuple(q.principal), tuple(q.conditioning))
            for q in valid_queries(basic)
        }
        assert len(seen) == 3 ** len(basic.variables)

    def test_overlap_rejected(self, basic):
        from pqnet.inference import Query

        with pytest.raises(ValueError):
            Query(basic, ["P"], ["P"])
        with pytest.raises(ValueError):
            Query(basic, ["Nope"], [])


class TestExpectation:
    def test_sum_variable(self, basic):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        z = Polynomial.variable("z")
        assert expectation(basic, "B") == 1 + z + 2 * x * y - x * z
        assert expectation(basic, "C") == 2 - z - 2 * x * y + x * z
        assert expectation(basic, "A") == 3


class TestNonzeroRows:
    def test_joint_support(self, basic):
        # the full joint over all six variables has exactly four
        # possible worlds, one per (P, Q) combination
        assert nonzero_rows(full_joint(basic)) == [13, 55, 74, 103]


# ---------------------------------------------------------------------------
# Numeric cross-check against a brute-force reference implementation

def reference_distribution(model, point):
    """Numeric full joint computed independently of the Polynomial class."""
    variables = model.variable_order()
    dist = {}
    for combo in itertools.product(*(range(v.arity()) for v in variables)):
        assignment = {v.name: i for v, i in zip(variables, combo)}
        prob = Fraction(1)
        for table in model.tables:
            prob *= table.entry(assignment).evaluate(point)
        dist[combo] = prob
    return variables, dist


def random_point(model, rng):
    point = {}
    for name, param in model.parameters.items():
        low, high = Fraction(param.low), Fraction(param.high)
        point[name] = low + (high - low) * Fraction(rng.randint(1, 15), 16)
    # cells of a fully parametric joint table must sum to one
    for table in model.tables:
        if not table.joint:
            continue
        names = [sorted(cell.variables())[0] for cell in table.entries]
        weights = [Fraction(rng.randint(1, 9)) for _ in names]
        total = sum(weights)
        for name, w in zip(names, weights):
            point[name] = w / total
    return point


def satisfies(model, point):
    return all(c.satisfied(point) for c in model.constraints())


MODEL_FILES = ["basic1.pql", "butter.pql", "zombie1.pql", "knight2.pql"]


class TestNumericOracle:
    @pytest.mark.parametrize("filename", MODEL_FILES)
    def test_symbolic_matches_numeric(self, filename):
        model = load_model(model_path(filename))
        rng = random.Random(hash(filename) & 0xFFFF)
        checked = 0
        attempts = 0
        while checked < 10 and attempts < 400:
            attempts += 1
            point = random_point(model, rng)
            if not satisfies(model, point):
                continue
            checked += 1
            variables, dist = reference_distribution(model, point)
            names = [v.name for v in variables]
            # unconditional marginals
            for keep in range(1, len(names) + 1):
                principal = names[:keep]
                table = query(model, principal)
                labels = list(
                    itertools.product(
                        *(range(v.arity()) for v in variables[:keep])
                    )
                )
                for label, value in zip(labels, table.values):
                    expected = sum(
                        (
                            p
                            for combo, p in dist.items()
                            if combo[:keep] == label
                        ),
                        Fraction(0),
                    )
                    assert value.evaluate(point) == expected
            # one conditional query per point
            table = query(model, [names[0]], [names[-1]])
            for i, value in enumerate(table.values, start=1):
                if table.is_indeterminate(i):
                    continue
                num = value.numerator.evaluate(point)
                den = value.denominator.evaluate(point)
                if den == 0:
                    assert num == 0
                    continue
                assert 0 <= num / den <= 1
        assert checked == 10, f"only found {checked} feasible points"

    def test_normalized_joint_for_clique_model(self):
        # In a fully parametric clique model the joint cells are exactly
        # the clique parameters; any normalized assignment must make the
        # symbolic joint sum to one.
        model = load_model(model_path("zombie1.pql"))
        rng = random.Random(7)
        for _ in range(5):
            weights = [Fraction(rng.randint(1, 9)) for _ in range(4)]
            total = sum(weights)
            point = {
                f"x{i + 1}": w / total for i, w in enumerate(weights)
            }
            for name in model.parameters:
                point.setdefault(name, Fraction(rng.randint(0, 16), 16))
            joint = full_joint(model)
            assert (
                sum((v.evaluate(point) for v in joint.values), Fraction(0))
                == 1
            )

    def test_degree_bound_on_clique_marginals(self):
        # Marginals of a single clique are linear forms in its cell
        # parameters.
        model = load_model(model_path("zombie1.pql"))
        table = query(model, ["R"])
        for value in table.values:
            assert value.total_degree() <= 2  # cell times switch parameter
