"""Command-line shell and batch processor.

Commands operate on a session holding the loaded model, the current
result table, and the current optimization problem:

    load <file>              read a model definition
    table P1 P2 | C1 C2      state a probability-table query
    infer                    answer the stated query
    print [-index] [-all] [-unless] [-pivot]
    item <n>                 one table entry (rows numbered from 1)
    expr "<expression>"      exact arithmetic over parameters
    pprog -min|-max "<objective>" "<constraint>" ...
    solve / solution / point
    constraints              the parameter constraints of the result
    dot                      Graphviz rendering of the loaded model
"""

from __future__ import annotations

import argparse
import sys

from . import dsl, inference, optimize
from . import formula as fm
from .network import Constraint
from .polynomial import ONE, FractionalPolynomial


class CommandError(ValueError):
    pass


class Session:
    """State shared across shell commands."""

    def __init__(self, budget: int = optimize.DEFAULT_BUDGET):
        self.model = None
        self.pending_query = None
        self.table = None
        self.problem = None
        self.solution = None
        self.budget = budget

    # -- command execution -------------------------------------------------

    def execute(self, line: str) -> str:
        """Run one command line; returns the text to display."""
        command = dsl.parse_command(line)
        if command is None:
            return ""
        handler = getattr(self, f"_cmd_{command.name}", None)
        if handler is None:
            raise CommandError(f"unknown command {command.name!r}")
        return handler(command.args, command.flags) or ""

    def _need_model(self):
        if self.model is None:
            raise CommandError("no model loaded")
        return self.model

    def _need_table(self):
        if self.table is None:
            raise CommandError("no inferred table; use `table ...` then `infer`")
        return self.table

    def _cmd_load(self, args, flags):
        if len(args) != 1:
            raise CommandError("usage: load <file>")
        self.model = dsl.load_model(args[0])
        self.pending_query = None
        self.table = None

    def _cmd_table(self, args, flags):
        model = self._need_model()
        if "|" in args:
            split = args.index("|")
            principal, conditioning = args[:split], args[split + 1 :]
        else:
            principal, conditioning = args, []
        if not principal:
            raise CommandError("usage: table <principal...> [| <conditioning...>]")
        inference.Query(model, principal, conditioning)  # validate now
        self.pending_query = (principal, conditioning)
        self.table = None

    def _cmd_infer(self, args, flags):
        model = self._need_model()
        if self.pending_query is None:
            raise CommandError("no query stated; use `table ...` first")
        principal, conditioning = self.pending_query
        self.table = inference.query(model, principal, conditioning)

    def _cmd_print(self, args, flags):
        table = self._need_table()
        if "-pivot" in flags:
            return table.pivot(table.variables[-1].name)
        return table.format(
            index="-index" in flags,
            show_all="-all" in flags,
            unless="-unless" in flags,
        )

    def _cmd_item(self, args, flags):
        table = self._need_table()
        if len(args) != 1:
            raise CommandError("usage: item <row>")
        value = table.item(int(args[0]))
        return str(value)

    def _cmd_constraints(self, args, flags):
        table = self._need_table()
        return "\n".join(str(c) for c in table.constraints)

    def _cmd_expr(self, args, flags):
        if len(args) != 1:
            raise CommandError('usage: expr "<expression>"')
        value = evaluate_expression(args[0])
        if value.denominator == ONE:
            return str(value.numerator)
        return str(value)

    def _cmd_pprog(self, args, flags):
        model = self._need_model()
        sense = "min"
        if "-max" in flags:
            sense = "max"
        elif "-min" not in flags and flags:
            raise CommandError(f"unknown flags {flags}")
        if not args:
            raise CommandError('usage: pprog -min|-max "<objective>" ["<constraint>"...]')
        objective = evaluate_expression(args[0])
        constraints = [parse_constraint(text) for text in args[1:]]
        self.problem = optimize.build_program(model, sense, objective, constraints)
        self.solution = None

    def _cmd_solve(self, args, flags):
        if self.problem is None:
            raise CommandError("no problem; use `pprog ...` first")
        self.solution = optimize.solve(self.problem, self.budget)

    def _need_solution(self):
        if self.solution is None:
            raise CommandError("no solution; use `solve` first")
        return self.solution

    def _cmd_solution(self, args, flags):
        return str(self._need_solution())

    def _cmd_point(self, args, flags):
        return self._need_solution().point_text()

    def _cmd_dot(self, args, flags):
        return self._need_model().export_dot()

    def _cmd_help(self, args, flags):
        return __doc__.strip()

    def _cmd_quit(self, args, flags):
        raise EOFError

    _cmd_exit = _cmd_quit


def evaluate_expression(text: str) -> FractionalPolynomial:
    """Exact arithmetic (+, -, *, /, ^) over parameter polynomials."""
    try:
        return fm.to_quotient(fm.parse_formula(text), dsl.resolve_parameter)
    except ValueError as exc:
        raise CommandError(str(exc)) from None


def parse_constraint(text: str) -> Constraint:
    """Parse "lhs == rhs", "lhs <= rhs", or "lhs >= rhs" over parameters."""
    for token, relation in (("<=", "<="), (">=", ">="), ("==", "="), ("=", "=")):
        if token in text:
            left, _, right = text.partition(token)
            try:
                return Constraint(
                    dsl.parse_polynomial(left), relation, dsl.parse_polynomial(right)
                )
            except ValueError as exc:
                raise CommandError(f"{exc} in constraint {text!r}") from None
    raise CommandError(f"no relation in constraint {text!r}")


# ---------------------------------------------------------------------------
# Entry points

def repl(session: Session | None = None) -> int:
    session = session or Session()
    while True:
        try:
            line = input("pqnet> ")
        except EOFError:
            print()
            return 0
        try:
            output = session.execute(line)
        except EOFError:
            return 0
        except Exception as exc:  # keep the shell alive on command errors
            print(f"error: {exc}")
            continue
        if output:
            print(output)


def run_script(path: str, session: Session | None = None) -> int:
    """Execute commands from a file; stop at the first error."""
    session = session or Session()
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for number, line in enumerate(lines, start=1):
        stripped = line.split("//", 1)[0].strip() if line.lstrip().startswith("//") else line.strip()
        if not stripped:
            continue
        try:
            output = session.execute(stripped)
        except EOFError:
            return 0
        except Exception as exc:
            print(f"error: line {number}: {exc}", file=sys.stderr)
            return 1
        if output:
            print(output)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pqnet", description="parametric probability network analysis"
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("shell", help="interactive shell")
    run = sub.add_parser("run", help="batch-process a command script")
    run.add_argument("script")
    dot = sub.add_parser("dot", help="print a model's graph in dot format")
    dot.add_argument("model")
    options = parser.parse_args(argv)
    import os

    budget = int(os.environ.get("PQNET_BUDGET", optimize.DEFAULT_BUDGET))
    session = Session(budget=budget)
    if options.mode == "shell":
        return repl(session)
    if options.mode == "run":
        return run_script(options.script, session)
    model = dsl.load_model(options.model)
    print(model.export_dot())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
