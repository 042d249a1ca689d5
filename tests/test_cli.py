"""The command shell and batch processor."""

from fractions import Fraction

import pytest

from conftest import model_path
from pqnet.cli import (
    CommandError,
    Session,
    evaluate_expression,
    main,
    parse_constraint,
    run_script,
)
from pqnet.polynomial import Polynomial


@pytest.fixture
def session():
    s = Session()
    s.execute(f'load "{model_path("basic1.pql")}"')
    return s


class TestSessionBasics:
    def test_load_required(self):
        s = Session()
        with pytest.raises(CommandError):
            s.execute("table Q | P")

    def test_table_then_infer_then_print(self, session):
        session.execute("table Q | P")
        session.execute("infer")
        lines = session.execute("print -index").splitlines()
        assert lines[0] == "Index\t| P\tQ\t| Pr( {Q} | {P} )\t"
        assert lines[2] == "1\t| T\tT\t| (x*y) / (x)\t"

    def test_print_requires_infer(self, session):
        session.execute("table Q | P")
        with pytest.raises(CommandError):
            session.execute("print")

    def test_item(self, session):
        session.execute("table Q | P")
        session.execute("infer")
        assert session.execute("item 1") == "(x*y) / (x)"

    def test_unless_and_show_all(self, session):
        session.execute("table Q | P R")
        session.execute("infer")
        plain = session.execute("print -index")
        assert "0/0" not in plain
        everything = session.execute("print -index -all")
        assert "0/0" in everything
        pretty = session.execute("print -index -unless")
        assert "1 unless x*y = 0" in pretty

    def test_pivot(self, session):
        session.execute("table Q | P R")
        session.execute("infer")
        lines = session.execute("print -pivot").splitlines()
        assert lines[0] == "Index\t| P\tR\t| Q=T\tQ=F\t"
        assert lines[2].startswith("1, 2\t")
        # a one-variable table has no condition columns
        session.execute("table Q")
        session.execute("infer")
        lines = session.execute("print -pivot").splitlines()
        assert lines[0] == "Index\t| Q=T\tQ=F\t"
        assert lines[1] == "-------\t-------\t-------"

    def test_constraints(self, session):
        session.execute("table Q | P")
        session.execute("infer")
        text = session.execute("constraints")
        assert "x >= 0" in text
        assert "x <= 1" in text

    def test_expr(self, session):
        assert session.execute('expr "1 - x + x*y"') == "1 - x + x*y"
        assert (
            session.execute('expr "(1 - x + x*y) - (x*y)/(x)"')
            == "(x - x^2 - x*y + x^2*y) / (x)"
        )
        assert session.execute('expr "1/0"') == "(1) / (0)"

    def test_dot(self, session):
        assert session.execute("dot").startswith("digraph")

    def test_help(self):
        assert Session().execute("help")

    def test_quit(self):
        with pytest.raises(EOFError):
            Session().execute("quit")


class TestOptimizationCommands:
    def test_solve_expectation(self, session):
        session.execute('pprog -min "1 + z + 2*x*y - x*z"')
        session.execute("solve")
        assert session.execute("solution") == "1.000 1.000"
        assert "=" in session.execute("point")

    def test_constrained_problem(self, session):
        session.execute('pprog -max "x" "x <= 1/2"')
        session.execute("solve")
        assert session.execute("solution") == "0.500 0.500"
        assert session.execute("point").startswith("{x = 0.500}")

    def test_one_sided_bounds_only_solution(self):
        # no incumbent satisfies both equalities within the budget, so
        # only the upper bound of the maximum is certified
        s = Session(budget=50)
        s.execute(f'load "{model_path("basic1.pql")}"')
        s.execute('pprog -max "x*y" "x + y = 1/3" "x = y"')
        s.execute("solve")
        assert s.execute("solution") == "-inf 0.062"

    def test_solution_requires_solve(self, session):
        session.execute('pprog -min "x"')
        with pytest.raises(CommandError):
            session.execute("solution")


class TestExpressionEvaluation:
    def test_quotient_power(self, session):
        value = evaluate_expression("((x)/(1 - x))^2")
        assert str(value) == "(x^2) / (1 - 2*x + x^2)"

    def test_unknown_identifier(self):
        with pytest.raises(CommandError):
            evaluate_expression("mystery + 1")

    def test_parse_constraint(self, session):
        c = parse_constraint("x + y <= 1")
        assert c.relation == "<="
        assert c.satisfied({"x": Fraction(1, 2), "y": Fraction(1, 2)})
        c = parse_constraint("x == y")
        assert c.relation == "="
        with pytest.raises(CommandError):
            parse_constraint("x + y")
        with pytest.raises(CommandError):
            parse_constraint("(x)/(y) <= 1")


class TestBatch:
    def test_script_reproduces_shell(self, tmp_path, capsys):
        script = tmp_path / "session.cmd"
        script.write_text(
            "// transcript of an interactive session\n"
            f'load "{model_path("basic1.pql")}"\n'
            "table Q | P\n"
            "infer\n"
            "print -index\n"
            "item 1\n"
        )
        assert run_script(str(script)) == 0
        batch_output = capsys.readouterr().out

        interactive = Session()
        collected = []
        for line in [
            f'load "{model_path("basic1.pql")}"',
            "table Q | P",
            "infer",
            "print -index",
            "item 1",
        ]:
            output = interactive.execute(line)
            if output:
                collected.append(output)
        assert batch_output == "\n".join(collected) + "\n"

    def test_script_stops_on_error(self, tmp_path, capsys):
        script = tmp_path / "bad.cmd"
        script.write_text("table Q\nitem 1\n")
        assert run_script(str(script)) == 1
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_missing_script(self, capsys):
        assert run_script("/no/such/file.cmd") == 1

    def test_quit_ends_script(self, tmp_path):
        script = tmp_path / "q.cmd"
        script.write_text("quit\nitem 1\n")
        assert run_script(str(script)) == 0


class TestMain:
    def test_run_mode(self, tmp_path, capsys):
        script = tmp_path / "s.cmd"
        script.write_text(
            f'load "{model_path("basic1.pql")}"\n'
            "table P\n"
            "infer\n"
            "print\n"
        )
        assert main(["run", str(script)]) == 0
        assert "Pr( {P} )" in capsys.readouterr().out

    def test_dot_mode(self, capsys):
        assert main(["dot", model_path("butter.pql")]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_budget_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PQNET_BUDGET", "123")
        script = tmp_path / "empty.cmd"
        script.write_text("")
        assert main(["run", str(script)]) == 0
