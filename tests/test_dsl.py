"""Model language: parsing, assembly, serialization, command lines."""

import random
import re
from fractions import Fraction

import pytest

from conftest import model_path
from pqnet.dsl import (
    ParseError,
    canonical_param,
    build_model,
    load_model,
    parse_command,
    parse_model,
    parse_polynomial,
    parse_statements,
    serialize,
)
from pqnet.inference import query
from pqnet.polynomial import Polynomial, reset_registry

ALL_MODELS = [
    "ace-king.pql",
    "amphibian.pql",
    "basic1.pql",
    "butter.pql",
    "knight2.pql",
    "zombie1.pql",
    "zombie1-search.pql",
]


class TestParsing:
    @pytest.mark.parametrize("filename", ALL_MODELS)
    def test_corpus_parses_and_validates(self, filename):
        model = load_model(model_path(filename))
        assert model.validate() == []

    def test_parameter_attributes(self):
        model = parse_model(
            'parameter t { label = "switch"; range = (1/4, 3/4); }'
        )
        p = model.parameters["t"]
        assert p.label == "switch"
        assert (p.low, p.high) == (Fraction(1, 4), Fraction(3, 4))

    def test_primary_states(self):
        model = parse_model(
            "primary P { states = binary; }\n"
            "probability ( P ) { data = (1, 0); }\n"
            "primary B { states = range(0, 2); }\n"
            "probability ( B | P ) { function = \"B == P + 1 ? 1 : 0\"; }\n"
            "primary V { states = values(0, 1/2, 1); }\n"
            "probability ( V | P ) { function = \"V == P / 2 ? 1 : 0\"; }\n"
        )
        assert [s.label for s in model.variables["P"].states] == ["T", "F"]
        assert [s.label for s in model.variables["B"].states] == ["0", "1", "2"]
        assert [s.label for s in model.variables["V"].states] == ["0", "1/2", "1"]

    def test_comments_and_quotes(self):
        model = parse_model(
            "// a line comment\n"
            "primary P { label = \"has a ; and a } inside\"; states = binary; }\n"
            "probability ( P ) { data = (1/2, 1/2); }\n"
        )
        assert model.variables["P"].label == "has a ; and a } inside"

    def test_data_row_verification(self):
        with pytest.raises(ValueError):
            parse_model(
                "primary P { states = binary; }\n"
                "probability ( P ) { data = (1/2, 1/4); }\n"
            )

    def test_noverify_suppresses_row_check(self):
        model = parse_model(
            "parameter x {}\n"
            "parameter y {}\n"
            "primary P { states = binary; }\n"
            "probability ( P ) { data = (x, y); noverify; }\n"
        )
        assert model.validate() == []

    def test_unterminated_statement(self):
        with pytest.raises(ParseError):
            parse_statements("primary P { states = binary; ")

    @pytest.mark.parametrize(
        "text",
        [
            "parameter x { range = (0); }",
            "parameter x { range = (0, a); }",
            "primary V { states = range(0); }",
            "primary V { states = values(1, b); }",
            "set x = q;",
            "primary V { states = range(0.5, 2); }",
            "primary V { states = range(2, 0); }",
            "primary V { states = values(1, 1); }",
        ],
    )
    def test_malformed_number(self, text):
        with pytest.raises(ParseError, match="^line 2: "):
            parse_model("// one line before\n" + text + "\n")

    @pytest.mark.parametrize(
        "table, message",
        [
            ("probability ( V ) { data = (1); }", "needs 2 entries, got 1"),
            ("probability ( V | W ) { data = (1, 0); }",
             "table for 'V' names undeclared variable 'W'"),
            ("clique _C; probability ( _C : V A ) { parametric(x); }",
             "table for '_C' names undeclared variable 'A'"),
            ("probability ( W ) { data = (1, 0); }", "undeclared variable 'W'"),
            ("probability ( V ) { data = (q, 1-q); }", "unknown identifier 'q'"),
            ('probability ( V ) { function = "0"; }', "sums to 0, not 1"),
            ('probability ( V ) { function = "V +"; }', "end of formula"),
        ],
    )
    def test_table_error_names_line(self, table, message):
        with pytest.raises(ParseError, match="^line 2: .*" + re.escape(message)):
            parse_model("primary V { states = binary; }\n" + table + "\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('utility U { range = (0, 1); }\n'
             'probability ( U ) { function = "q"; }',
             "^line 2: unknown identifier 'q'"),
            ("primary V { states = binary; }\n"
             "probability ( V ) { data = (1, 0); }\n"
             "probability ( V ) { data = (1, 0); }",
             "^line 3: V appears in more than one table"),
            ("primary V { states = binary; }\n"
             "probability ( V ) { data = (1, 0); }\n"
             "set q = 1;",
             "^line 3: set 'q': not a parameter of the model"),
        ],
    )
    def test_late_error_names_line(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_model(text)

    def test_unknown_identifier_in_data(self):
        with pytest.raises(ParseError):
            parse_model(
                "primary P { states = binary; }\n"
                "probability ( P ) { data = (q, 1-q); noverify; }\n"
            )


class TestDecisionsAndSets:
    def test_decision_becomes_discrete_parameter(self):
        model = load_model(model_path("zombie1-search.pql"))
        # set statements have already fixed the switches
        assert "t1" not in model.parameters
        assert sorted(model.parameters) == ["x1", "x2", "x3", "x4"]

    def test_utilities_resolved(self):
        model = load_model(model_path("zombie1-search.pql"))
        x1 = Polynomial.variable("x1")
        x2 = Polynomial.variable("x2")
        x3 = Polynomial.variable("x3")
        x4 = Polynomial.variable("x4")
        assert model.utilities["U_1"] == x1 + x2
        assert model.utilities["U_2"] == Polynomial()
        assert model.utilities["U_3"] == Polynomial()
        assert model.utilities["U_4"] == x3 + x4

    def test_discrete_values_without_set(self):
        model = parse_model(
            "decision d { states = values(0,1); }\n"
            "parameter x {}\n"
            "primary P { states = binary; }\n"
            "probability ( P ) { data = (d*x, 1 - d*x); noverify; }\n"
        )
        assert model.discrete_values["d"] == [Fraction(0), Fraction(1)]
        assert "d" in model.parameters


class TestParametricDeclarations:
    def test_parametric_conditional(self):
        model = parse_model(
            "primary P { states = binary; }\n"
            "probability ( P ) { data = (1/2, 1/2); }\n"
            "primary Q { states = binary; }\n"
            "probability ( Q | P ) { parametric(t); }\n"
        )
        assert sorted(model.parameters) == ["t1", "t2"]

    def test_parametric_clique(self):
        model = parse_model(
            "primary A { states = binary; }\n"
            "primary B { states = binary; }\n"
            "clique _C; probability ( _C : A B ) { parametric(x); }\n"
        )
        assert sorted(model.parameters) == ["x1", "x2", "x3", "x4"]
        assert model.clique_members["_C"] == ["A", "B"]
        table = query(model, ["A", "B"])
        assert [str(v) for v in table.values] == ["x1", "x2", "x3", "x4"]


class TestCanonicalNames:
    def test_spellings_collapse(self):
        assert canonical_param("t[1]") == "t1"
        assert canonical_param("t_1") == "t1"
        assert canonical_param("t1") == "t1"
        assert canonical_param("x") == "x"
        assert canonical_param("U_1") == "U1"

    def test_bracketed_parameters_in_functions(self):
        model = load_model(model_path("zombie1.pql"))
        # the parametric(t) table registered t1..t4; queries mention them
        assert sorted(
            n for n in model.parameters if n.startswith("t")
        ) == ["t1", "t2", "t3", "t4"]


class TestParsePolynomial:
    def test_examples(self):
        Polynomial.variable("x")
        Polynomial.variable("y")
        p = parse_polynomial("1 - x + x*y")
        assert str(p) == "1 - x + x*y"
        assert parse_polynomial("0.25 + 1/4") == Fraction(1, 2)

    def test_canonical_resolution(self):
        Polynomial.variable("t1")
        assert parse_polynomial("t[1]") == Polynomial.variable("t1")

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_polynomial("nope + 1")

    def test_division_by_zero(self):
        Polynomial.variable("x")
        for text in ("1/0", "x/(x-x)"):
            with pytest.raises(ParseError, match="division by zero"):
                parse_polynomial(text)
        with pytest.raises(ParseError, match="division by zero"):
            parse_model(
                "primary P { states = binary; }\n"
                "probability ( P ) { data = (1/0, 1); }\n"
            )

    def test_differential_against_direct_arithmetic(self):
        # random expression trees evaluated two ways: parsed symbolically
        # then evaluated, versus evaluated directly with Fractions
        rng = random.Random(3)
        names = ["x", "y", "z"]
        for n in names:
            Polynomial.variable(n)
        point = {n: Fraction(rng.randint(1, 9), 10) for n in names}

        def build(depth):
            if depth == 0 or rng.random() < 0.3:
                if rng.random() < 0.5:
                    n = rng.choice(names)
                    return n, point[n]
                k = Fraction(rng.randint(0, 9))
                return str(k), k
            left_text, left_val = build(depth - 1)
            right_text, right_val = build(depth - 1)
            op = rng.choice(["+", "-", "*"])
            text = f"({left_text} {op} {right_text})"
            if op == "+":
                return text, left_val + right_val
            if op == "-":
                return text, left_val - right_val
            return text, left_val * right_val

        for _ in range(200):
            text, expected = build(3)
            assert parse_polynomial(text).evaluate(point) == expected


class TestSerialization:
    @pytest.mark.parametrize("filename", ALL_MODELS)
    def test_round_trip(self, filename):
        model = load_model(model_path(filename))
        text = serialize(model)
        reset_registry()
        again = parse_model(text, name=model.name)
        assert again.validate() == []
        assert sorted(again.parameters) == sorted(model.parameters)
        assert list(again.variables) == list(model.variables)
        for a, b in zip(model.tables, again.tables):
            assert [str(e) for e in a.entries] == [str(e) for e in b.entries]

    def test_round_trip_preserves_queries(self):
        model = load_model(model_path("basic1.pql"))
        first = [str(v) for v in query(model, ["Q"], ["P"]).values]
        text = serialize(model)
        reset_registry()
        again = parse_model(text)
        second = [str(v) for v in query(again, ["Q"], ["P"]).values]
        assert first == second


class TestCommands:
    def test_basic(self):
        cmd = parse_command("table Q | P")
        assert cmd.name == "table"
        assert cmd.args == ["Q", "|", "P"]

    def test_flags_split(self):
        cmd = parse_command("print -index -unless")
        assert cmd.flags == ["-index", "-unless"]
        assert cmd.args == []

    def test_negative_numbers_are_args(self):
        cmd = parse_command("item -1")
        assert cmd.args == ["-1"]
        assert cmd.flags == []

    def test_blank_line(self):
        assert parse_command("   ") is None

    def test_unknown_command(self):
        with pytest.raises(ParseError):
            parse_command("frobnicate")

    def test_quoted_argument(self):
        cmd = parse_command('load "my model.pql"')
        assert cmd.args == ["my model.pql"]
