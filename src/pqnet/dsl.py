"""Model-definition language and query-command parsing.

The model language is C-flavored: statements declare parameters,
primary variables, cliques, and probability tables, with attribute
blocks in braces.  `//` starts a comment.  A separate, much simpler
command grammar drives the interactive shell and batch processor.

Decision and utility declarations are search scaffolding, not decision
theory: a `decision` is a parameter with a finite value set, and a
`utility` names a polynomial (given by a `function` attribute) so that
`set` statements can substitute chosen values into it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from . import formula as fm
from .network import (
    ComponentTable,
    Model,
    Parameter,
    Variable,
    binary_states,
    range_states,
    value_states,
)
from .polynomial import ONE, Polynomial, is_registered


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------------------
# Statement forms

@dataclass
class ParameterStmt:
    name: str
    label: str = ""
    low: Fraction = Fraction(0)
    high: Fraction = Fraction(1)


@dataclass
class PrimaryStmt:
    name: str
    label: str = ""
    tex: str = ""
    states_kind: str = "binary"  # binary | range | values
    states_args: list[Fraction] = field(default_factory=list)


@dataclass
class CliqueStmt:
    name: str


@dataclass
class ProbabilityStmt:
    targets: list[str]
    given: list[str]
    joint: bool = False
    data: list[str] = field(default_factory=list)
    function: str | None = None
    parametric: str | None = None
    noverify: bool = False
    line: int | None = None


@dataclass
class DecisionStmt:
    name: str
    values: list[Fraction] = field(default_factory=list)


@dataclass
class UtilityStmt:
    name: str
    tex: str = ""
    low: Fraction = Fraction(0)
    high: Fraction = Fraction(1)


@dataclass
class SetStmt:
    name: str
    value: Fraction = Fraction(0)
    line: int | None = None


@dataclass
class NetStmt:
    graph: str = ""


# ---------------------------------------------------------------------------
# Scanner

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*(?:\[\d+\])?")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def line(self) -> int:
        return self.text.count("\n", 0, self.pos) + 1

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line())

    def skip_space(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif self.text.startswith("//", self.pos):
                end = self.text.find("\n", self.pos)
                self.pos = len(self.text) if end < 0 else end
            else:
                return

    def at_end(self) -> bool:
        self.skip_space()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}, found {self.peek()!r}")
        self.pos += 1

    def ident(self) -> str:
        self.skip_space()
        m = _IDENT.match(self.text, self.pos)
        if not m:
            raise self.error(f"expected a name at {self.text[self.pos:self.pos+20]!r}")
        self.pos = m.end()
        return m.group()

    def until(self, stop: str) -> str:
        """Raw text up to an unnested, unquoted stop character (consumed)."""
        depth = 0
        quote = None
        start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if quote:
                if ch == quote:
                    quote = None
            elif ch in "'\"":
                quote = ch
            elif ch == stop and depth == 0:
                chunk = self.text[start : self.pos]
                self.pos += 1
                return chunk
            elif ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
            elif self.text.startswith("//", self.pos):
                end = self.text.find("\n", self.pos)
                self.pos = len(self.text) if end < 0 else end
                continue
            self.pos += 1
        raise self.error(f"unterminated statement, expected {stop!r}")

    def block_entries(self) -> list[str]:
        """The `attr = value;` entries of a braced attribute block."""
        self.expect("{")
        entries = []
        while True:
            if self.peek() == "}":
                self.pos += 1
                return entries
            if self.at_end():
                raise self.error("unterminated block")
            entry = self.until(";").strip()
            if entry:
                entries.append(entry)


# ---------------------------------------------------------------------------
# Statement parsing

def parse_statements(text: str) -> list:
    scanner = _Scanner(text)
    statements = []
    while not scanner.at_end():
        statements.append(_statement(scanner))
    return statements


def _statement(scanner: _Scanner):
    keyword = scanner.ident()
    if keyword == "parameter":
        name = scanner.ident()
        stmt = ParameterStmt(canonical_param(name))
        for entry in scanner.block_entries():
            key, value = _attribute(entry, scanner)
            if key == "label":
                stmt.label = _unquote(value)
            elif key == "range":
                stmt.low, stmt.high = _pair(value, scanner)
            else:
                raise scanner.error(f"unknown parameter attribute {key!r}")
        return stmt
    if keyword == "primary":
        stmt = PrimaryStmt(scanner.ident())
        for entry in scanner.block_entries():
            key, value = _attribute(entry, scanner)
            if key == "label":
                stmt.label = _unquote(value)
            elif key == "tex":
                stmt.tex = _unquote(value)
            elif key == "states":
                stmt.states_kind, stmt.states_args = _states(value, scanner)
            else:
                raise scanner.error(f"unknown primary attribute {key!r}")
        return stmt
    if keyword == "decision":
        stmt = DecisionStmt(canonical_param(scanner.ident()))
        for entry in scanner.block_entries():
            key, value = _attribute(entry, scanner)
            if key == "states":
                kind, args = _states(value, scanner)
                if kind == "values":
                    stmt.values = args
                elif kind == "range":
                    low, high = args
                    stmt.values = [Fraction(v) for v in range(int(low), int(high) + 1)]
                else:
                    stmt.values = [Fraction(1), Fraction(0)]
            else:
                raise scanner.error(f"unknown decision attribute {key!r}")
        return stmt
    if keyword == "utility":
        stmt = UtilityStmt(scanner.ident())
        for entry in scanner.block_entries():
            key, value = _attribute(entry, scanner)
            if key == "tex" or key == "label":
                stmt.tex = _unquote(value)
            elif key == "range":
                stmt.low, stmt.high = _pair(value, scanner)
            else:
                raise scanner.error(f"unknown utility attribute {key!r}")
        return stmt
    if keyword == "clique":
        name = scanner.ident()
        scanner.expect(";")
        return CliqueStmt(name)
    if keyword == "set":
        line = scanner.line()
        name = canonical_param(scanner.ident())
        scanner.expect("=")
        value = scanner.until(";").strip()
        return SetStmt(name, _number(value, scanner), line)
    if keyword == "net":
        stmt = NetStmt()
        for entry in scanner.block_entries():
            key, value = _attribute(entry, scanner)
            if key == "graph":
                stmt.graph = _unquote(value)
            else:
                raise scanner.error(f"unknown net attribute {key!r}")
        return stmt
    # "potential" is a synonym, used for clique tables (models/ace-king.pql)
    if keyword in ("probability", "potential"):
        line = scanner.line()
        scanner.expect("(")
        header = scanner.until(")")
        joint = ":" in header
        if joint:
            left, _, right = header.partition(":")
        else:
            left, _, right = header.partition("|")
        targets = [t for t in re.split(r"\s+", left.strip()) if t]
        given = [g for g in re.split(r"\s+", right.strip()) if g]
        stmt = ProbabilityStmt(targets, given, joint, line=line)
        for entry in scanner.block_entries():
            key, value = _attribute(entry, scanner)
            if key == "data":
                stmt.data = _tuple_entries(value)
            elif key == "function":
                stmt.function = _unquote(value.strip().strip("()").strip())
            elif key == "parametric":
                stmt.parametric = value.strip().strip("()").strip()
            elif key == "noverify":
                stmt.noverify = True
            else:
                raise scanner.error(f"unknown table attribute {key!r}")
        return stmt
    raise scanner.error(f"unknown statement keyword {keyword!r}")


def _attribute(entry: str, scanner: _Scanner) -> tuple[str, str]:
    if "=" in entry:
        key, _, value = entry.partition("=")
        return key.strip(), value.strip()
    m = re.fullmatch(r"([A-Za-z_][A-Za-z_0-9]*)\s*(\(.*\))?", entry, re.S)
    if not m:
        raise scanner.error(f"bad attribute {entry!r}")
    return m.group(1), m.group(2) or ""


def _unquote(value: str) -> str:
    value = value.strip()
    if value[:1] in "'\"" and value[-1:] == value[:1]:
        return value[1:-1]
    return value


def _number(text: str, scanner: _Scanner) -> Fraction:
    try:
        return Fraction(text)
    except ValueError:
        raise scanner.error(f"bad number {text.strip()!r}") from None


def _pair(value: str, scanner: _Scanner) -> tuple[Fraction, Fraction]:
    parts = value.strip().strip("()").split(",")
    if len(parts) != 2:
        raise scanner.error(f"expected two numbers, got {value!r}")
    return _number(parts[0], scanner), _number(parts[1], scanner)


def _states(value: str, scanner: _Scanner) -> tuple[str, list[Fraction]]:
    value = value.strip()
    if value == "binary":
        return "binary", []
    m = re.fullmatch(r"(range|values)\s*\((.*)\)", value, re.S)
    if not m:
        raise scanner.error(f"bad states {value!r}")
    if m.group(1) == "range":
        low, high = _pair(m.group(2), scanner)
        if low.denominator != 1 or high.denominator != 1:
            raise scanner.error(f"range bounds must be integers, got {value!r}")
        if low > high:
            raise scanner.error(f"empty range {value!r}")
        return "range", [low, high]
    values = [_number(part, scanner) for part in m.group(2).split(",")]
    if len(set(values)) != len(values):
        raise scanner.error(f"repeated state value in {value!r}")
    return "values", values


def _tuple_entries(value: str) -> list[str]:
    inner = value.strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    parts = []
    depth = 0
    current = []
    for ch in inner:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def canonical_param(name: str) -> str:
    """Normalize parameter spellings: t[1], t_1, and t1 are one name."""
    m = re.fullmatch(r"([A-Za-z]+)(?:_|\[)?(\d+)\]?", name)
    if m:
        return m.group(1) + m.group(2)
    return name


# ---------------------------------------------------------------------------
# Polynomial text

def resolve_parameter(name: str) -> Polynomial:
    """The registered parameter a name denotes, as written or canonically."""
    for candidate in (name, canonical_param(name)):
        if is_registered(candidate):
            return Polynomial.variable(candidate)
    raise ParseError(f"unknown identifier {name!r}")


def parse_polynomial(text: str) -> Polynomial:
    """Parse polynomial text over registered parameters.

    Identifiers resolve through :func:`resolve_parameter`; decimals are
    exact rationals.  A quotient that does not reduce to a polynomial,
    and a division by zero, are parse errors.
    """
    value = fm.to_quotient(fm.parse_formula(text), resolve_parameter)
    if value.denominator.is_zero():
        raise ParseError(f"division by zero in {text!r}")
    if value.denominator != ONE:
        raise ParseError(f"not a polynomial: {text!r}")
    return value.numerator


# ---------------------------------------------------------------------------
# Model assembly

def build_model(statements: list, name: str = "") -> Model:
    model = Model(name)
    model.source_statements = list(statements)
    utilities_pending: dict[str, ProbabilityStmt] = {}
    utility_decls: dict[str, UtilityStmt] = {}
    sets: dict[str, SetStmt] = {}
    covered: set[str] = set()
    for stmt in statements:
        if isinstance(stmt, ParameterStmt):
            model.add_parameter(
                Parameter(stmt.name, stmt.low, stmt.high, stmt.label)
            )
        elif isinstance(stmt, DecisionStmt):
            values = stmt.values or [Fraction(0), Fraction(1)]
            model.add_parameter(
                Parameter(stmt.name, min(values), max(values))
            )
            model.discrete_values[stmt.name] = values
        elif isinstance(stmt, PrimaryStmt):
            model.add_variable(
                Variable(stmt.name, _make_states(stmt), stmt.label or stmt.tex)
            )
        elif isinstance(stmt, CliqueStmt):
            pass  # a forward declaration; the joint table names it again
        elif isinstance(stmt, UtilityStmt):
            utility_decls[stmt.name] = stmt
        elif isinstance(stmt, SetStmt):
            sets[stmt.name] = stmt
        elif isinstance(stmt, NetStmt):
            model.graph_hints.append(stmt.graph)
        elif isinstance(stmt, ProbabilityStmt):
            try:
                built = len(model.tables)
                _apply_table(model, stmt, utilities_pending, utility_decls)
                for table in model.tables[built:]:
                    for t in table.targets:
                        if t.name in covered:
                            raise ParseError(f"{t.name} appears in more than one table")
                        covered.add(t.name)
            except ValueError as exc:
                raise ParseError(str(exc), stmt.line) from None
        else:
            raise ParseError(f"unhandled statement {stmt!r}")
    # utility polynomials may reference parameters declared later
    # (e.g. clique cells), so resolve them after all declarations
    for uname, stmt in utilities_pending.items():
        try:
            model.utilities[uname] = parse_polynomial(stmt.function)
        except ValueError as exc:
            raise ParseError(str(exc), stmt.line) from None
    for stmt in sets.values():
        if stmt.name not in model.parameters:
            raise ParseError(f"set {stmt.name!r}: not a parameter of the model", stmt.line)
    if sets:
        model = model.substitute({n: stmt.value for n, stmt in sets.items()})
    problems = model.validate()
    if problems:
        raise ParseError("; ".join(problems))
    return model


def _make_states(stmt: PrimaryStmt):
    if stmt.states_kind == "binary":
        return binary_states()
    if stmt.states_kind == "range":
        low, high = stmt.states_args
        return range_states(int(low), int(high))
    return value_states(stmt.states_args)


def _apply_table(
    model: Model,
    stmt: ProbabilityStmt,
    utilities_pending: dict,
    utility_decls: dict,
) -> None:
    target = stmt.targets[0]
    if stmt.joint:
        members = _declared(model, target, stmt.given)
        if not stmt.parametric:
            raise ParseError(f"joint table for {target!r} must be parametric")
        model.parametric_joint(target, members, stmt.parametric)
        return
    if target in utility_decls:
        if stmt.function is None:
            raise ParseError(f"utility {target!r} table needs a function")
        utilities_pending[target] = stmt
        return
    if canonical_param(target) in model.discrete_values:
        return  # decision sequencing tables carry no information
    child = model.variables.get(target)
    if child is None:
        raise ParseError(f"table for undeclared variable {target!r}")
    parents = _declared(model, target, stmt.given)
    if stmt.parametric:
        model.parametric_conditional(child, parents, stmt.parametric)
    elif stmt.data:
        entries = [parse_polynomial(text) for text in stmt.data]
        model.add_table(
            ComponentTable(
                [child], parents, entries, verify=not stmt.noverify
            )
        )
    elif stmt.function is not None:
        model.table_from_function(child, parents, stmt.function)
    else:
        raise ParseError(f"table for {target!r} has no data, function, or parametric")


def _declared(model: Model, target: str, names: list[str]) -> list[Variable]:
    for name in names:
        if name not in model.variables:
            raise ParseError(f"table for {target!r} names undeclared variable {name!r}")
    return [model.variables[name] for name in names]


def parse_model(text: str, name: str = "") -> Model:
    return build_model(parse_statements(text), name)


def load_model(path: str) -> Model:
    with open(path, encoding="utf-8") as handle:
        return parse_model(handle.read(), name=path)


# ---------------------------------------------------------------------------
# Serialization

def serialize(model: Model) -> str:
    """Render the model back into definition-language text."""
    lines = []
    for stmt in model.source_statements:
        lines.append(_render(stmt))
    return "\n".join(lines) + "\n"


def _render(stmt) -> str:
    if isinstance(stmt, ParameterStmt):
        attrs = []
        if stmt.label:
            attrs.append(f'label = "{stmt.label}";')
        attrs.append(f"range = ({stmt.low},{stmt.high});")
        return f"parameter {stmt.name} {{ {' '.join(attrs)} }}"
    if isinstance(stmt, PrimaryStmt):
        attrs = []
        if stmt.label:
            attrs.append(f'label = "{stmt.label}";')
        if stmt.tex:
            attrs.append(f'tex = "{stmt.tex}";')
        if stmt.states_kind == "binary":
            attrs.append("states = binary;")
        else:
            args = ", ".join(str(a) for a in stmt.states_args)
            attrs.append(f"states = {stmt.states_kind}( {args} );")
        return f"primary {stmt.name} {{ {' '.join(attrs)} }}"
    if isinstance(stmt, DecisionStmt):
        args = ",".join(str(v) for v in stmt.values)
        return f"decision {stmt.name} {{ states = values({args}); }}"
    if isinstance(stmt, UtilityStmt):
        attrs = []
        if stmt.tex:
            attrs.append(f'tex = "{stmt.tex}";')
        attrs.append(f"range = ({stmt.low},{stmt.high});")
        return f"utility {stmt.name} {{ {' '.join(attrs)} }}"
    if isinstance(stmt, CliqueStmt):
        return f"clique {stmt.name};"
    if isinstance(stmt, SetStmt):
        return f"set {stmt.name} = {stmt.value};"
    if isinstance(stmt, NetStmt):
        return f"net {{ graph = '{stmt.graph}'; }}"
    if isinstance(stmt, ProbabilityStmt):
        sep = " : " if stmt.joint else (" | " if stmt.given else "")
        header = " ".join(stmt.targets) + (
            sep + " ".join(stmt.given) if stmt.given else ""
        )
        attrs = []
        if stmt.data:
            attrs.append(f"data = ({', '.join(stmt.data)});")
        if stmt.function is not None:
            attrs.append(f'function = "{stmt.function}";')
        if stmt.parametric:
            attrs.append(f"parametric({stmt.parametric});")
        if stmt.noverify:
            attrs.append("noverify;")
        body = " ".join(attrs)
        return f"probability ( {header} ) {{ {body} }}"
    raise ValueError(f"cannot render {stmt!r}")


# ---------------------------------------------------------------------------
# Command language

@dataclass
class Command:
    name: str
    args: list[str] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)


def parse_command(line: str) -> Command | None:
    """Parse one shell command line; None for a blank line."""
    import shlex

    try:
        tokens = shlex.split(line, comments=False, posix=True)
    except ValueError as exc:
        raise ParseError(f"bad command syntax: {exc}") from None
    if not tokens:
        return None
    name, rest = tokens[0], tokens[1:]
    known = {
        "load", "table", "infer", "print", "item", "expr", "pprog",
        "solve", "solution", "point", "dot", "model", "constraints",
        "quit", "exit", "help",
    }
    if name not in known:
        raise ParseError(f"unknown command {name!r}")
    flags = [t for t in rest if t.startswith("-") and not _numberish(t)]
    args = [t for t in rest if not (t.startswith("-") and not _numberish(t))]
    return Command(name, args, flags)


def _numberish(token: str) -> bool:
    return bool(re.fullmatch(r"-\d+(\.\d+)?", token))
