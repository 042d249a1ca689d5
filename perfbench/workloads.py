"""Seeded inputs and timed operations of the three workloads.

Every workload is a list of decks.  A deck holds a fixed number of ops
of each op class, shuffled; the seed decides each op's content (queries,
model structure, constants), never the class proportions, so the
latency percentiles fall in the same class on every seed.  Runs consume
whole decks.

* ``corpus``: one op is a ``pqnet run``-style command script on one
  model of ``models/``, executed line by line through ``cli.Session``
  after a registry reset.  Many small queries on one model; amphibian
  scripts ask 11 queries of the same 2^11 joint.
* ``chain``: one op parses a freshly generated all-``parametric`` model
  of 7 or 8 binary variables, asks ``Pr(V_last | V_0)`` and formats the
  table.  Each model is queried once.
* ``analysis``: one op is one ``optimize.build_program`` + ``solve`` or
  one ``search.enumerate_spec`` + ``filter_rows``, on query results
  computed during set-up.  Inference is not timed.

Input classes kept out of the timed mix (each fails fast or runs for
minutes today; add it back once its ROADMAP item 4 fix lands):

* nonlinear quotient objectives, such as a conditional-query entry of
  ``basic1`` passed to ``solve``: ``ValueError`` from the polynomial
  solver (item 4a);
* branch-and-bound under clique normalization, such as maximizing
  ``Pr(S_4)*Pr(S_6)`` on ``amphibian``: ran more than 5 minutes (item 4d);
  cuts like ``x - y <= 1/2`` on ``butter`` end ``bounds-only`` after the
  budget for the same reason;
* ``IsNonzero`` criteria that fall through to the optimizer: more than 4
  minutes on a 12-parameter spec (item 4b).  Search criteria here use
  ``IsZero``, negation, ``&``, ``|`` and ``ExactlyOne`` only;
* conditional queries whose conditioning variables are not listed in
  declaration order, such as ``table Q | R A`` on ``knight2``: the
  denominators are paired with the wrong rows (``(x4) / (0)``) and
  ``print -unless`` then raises ``ZeroDivisionError``.  The oracle flags
  every such table; corpus scripts list conditioning variables in
  declaration order until the defect is fixed.
"""

from __future__ import annotations

import os
import random
import shlex
from fractions import Fraction

import oracle

MODEL_VARIABLES = {
    "basic1": {"P": 2, "Q": 2, "R": 2, "A": 1, "B": 4, "C": 4},
    "butter": {"H": 2, "M": 2, "C_1": 2, "C_2": 2},
    "knight2": {"A": 2, "B": 2, "Q": 2, "R": 2},
    "zombie1": {"H": 2, "B": 2, "Q": 2, "R": 2},
    "zombie1-search": {"H": 2, "B": 2, "Q": 2, "R": 2},
    "ace-king": {"A": 2, "K": 2, "P": 2},
    "amphibian": {name: 2 for name in ["P", "Q", "R"] + [f"S_{i}" for i in range(1, 9)]},
}

PRINT_FLAGS = ["", "-index", "-all", "-unless", "-pivot", "-index -all -unless"]

ORACLE_POINTS = 2


class Op:
    """One timed operation: ``run`` is timed, step by step through a
    ``reference.Clock``; ``check`` is not timed."""

    kind = ""

    def prepare(self, pq) -> None:
        """Untimed work before ``run``."""

    def run(self, pq, clock):
        raise NotImplementedError

    def check(self, pq, result, rng: random.Random) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# corpus

class ScriptOp(Op):
    """A command script; ``expected`` maps line numbers to wanted output.

    An expected value is a string (the whole output) or a list of table
    rows (the output without its two header lines).
    """

    def __init__(self, kind: str, lines: list[str], expected: dict | None = None):
        self.kind = kind
        self.lines = lines
        self.expected = expected or {}

    def prepare(self, pq):
        pq.polynomial.reset_registry()

    def run(self, pq, clock):
        session = clock.step(pq.cli.Session)
        outputs, tables = [], []
        for line in self.lines:
            outputs.append(clock.step(session.execute, line))
            if line == "infer":
                tables.append(session.table)
        return session, outputs, tables

    def check(self, pq, result, rng):
        session, outputs, tables = result
        var_name = pq.polynomial.var_name
        problems = []
        for number, want in self.expected.items():
            got = outputs[number]
            if isinstance(want, list):
                got = got.splitlines()[2:]
            if got != want:
                problems.append(f"{self.lines[number]!r} printed {got!r}, expected {want!r}")
        points = [oracle.random_point(session.model.parameters, rng) for _ in range(ORACLE_POINTS)]
        joints: dict = {}
        for table in tables:
            problems += oracle.check_table(session.model, table, points, var_name, joints)
        if session.solution is not None:
            exact = pq.optimize.classify(session.problem) != "polynomial"
            problems += oracle.check_solution(session.problem, session.solution, exact, var_name)
        return problems


def _random_query(rng, variables: dict[str, int], conditional: bool):
    """One or two principal variables in any order; one or two
    conditioning variables, in declaration order, when ``conditional``."""
    names = list(variables)
    principal = rng.sample(names, rng.randint(1, 2))
    rest = [n for n in names if n not in principal]
    chosen = set(rng.sample(rest, rng.randint(1, min(2, len(rest))))) if conditional else set()
    return principal, [n for n in rest if n in chosen]


def _random_session(rng, root: str, model: str, queries: int) -> list[str]:
    variables = MODEL_VARIABLES[model]
    lines = [_load(root, model)]
    for number in range(queries):
        # alternate, so every script of a model does the same marginalizations
        principal, conditioning = _random_query(rng, variables, conditional=number % 2 == 1)
        text = "table " + " ".join(principal)
        if conditioning:
            text += " | " + " ".join(conditioning)
        rows = 1
        for name in principal + conditioning:
            rows *= variables[name]
        lines += [text, "infer", f"print {rng.choice(PRINT_FLAGS)}".strip(), f"item {rng.randint(1, rows)}"]
    lines.append("constraints")
    return lines


def _load(root: str, model: str) -> str:
    return f"load {shlex.quote(os.path.join(root, 'models', model + '.pql'))}"


def readme_session(root: str) -> ScriptOp:
    """The shell session shown in the README (basic1)."""
    lines = [
        _load(root, "basic1"),
        "table Q | P",
        "infer",
        "print -index",
        'expr "(1 - x + x*y) - (x*y)/(x)"',
        'pprog -min "1 + z + 2*x*y - x*z"',
        "solve",
        "solution",
        "point",
    ]
    # The README's witness point {x = 1.000} is one of several minimizers;
    # the point line is checked by the solution oracle instead.
    expected = {
        3: [
            "1\t| T\tT\t| (x*y) / (x)\t",
            "2\t| T\tF\t| (x - x*y) / (x)\t",
            "3\t| F\tT\t| (z - x*z) / (1 - x)\t",
            "4\t| F\tF\t| (1 - x - z + x*z) / (1 - x)\t",
        ],
        4: "(x - x^2 - x*y + x^2*y) / (x)",
        7: "1.000 1.000",
    }
    return ScriptOp("basic1-readme", lines, expected)


def criteria_1_2_session(root: str) -> ScriptOp:
    """Acceptance criteria 1 (symbolic inference) and 2 (unless display)."""
    lines = [
        _load(root, "basic1"),
        "table R", "infer", "print",
        "table Q | P", "infer", "print",
        "table Q | P R", "infer", "print -index -all -unless",
    ]
    expected = {
        3: ["| T\t| 1 - x + x*y\t", "| F\t| x - x*y\t"],
        6: [
            "| T\tT\t| (x*y) / (x)\t",
            "| T\tF\t| (x - x*y) / (x)\t",
            "| F\tT\t| (z - x*z) / (1 - x)\t",
            "| F\tF\t| (1 - x - z + x*z) / (1 - x)\t",
        ],
        9: [
            "1\t| T\tT\tT\t| 1 unless x*y = 0\t",
            "2\t| T\tT\tF\t| 0 unless x*y = 0\t",
            "3\t| T\tF\tT\t| 0 unless x*y = x\t",
            "4\t| T\tF\tF\t| 1 unless x*y = x\t",
            "5\t| F\tT\tT\t| z unless x = 1\t",
            "6\t| F\tT\tF\t| (1 - x - z + x*z) / (1 - x)\t",
            "7\t| F\tF\tT\t| 0/0\t",
            "8\t| F\tF\tF\t| 0/0\t",
        ],
    }
    return ScriptOp("basic1-criteria", lines, expected)


def criterion_10_session(root: str) -> ScriptOp:
    lines = [_load(root, "knight2"), "table A B | R", "infer"] + [f"item {i}" for i in range(5, 9)]
    expected = {3: "(0) / (x3)", 4: "(0) / (x3)", 5: "(x3) / (x3)", 6: "(0) / (x3)"}
    return ScriptOp("knight2-criterion", lines, expected)


def criterion_11_session(root: str) -> ScriptOp:
    lines = [_load(root, "zombie1"), "table R H", "infer"] + [f"item {i}" for i in range(1, 5)]
    expected = {
        3: "x2 + t1*x1 - t2*x2",
        4: "x3 - t3*x3 + t4*x4",
        5: "x1 - t1*x1 + t2*x2",
        6: "x4 + t3*x3 - t4*x4",
    }
    return ScriptOp("zombie1-criterion", lines, expected)


def _linear_pprog(rng, names: list[str]) -> list[str]:
    """A feasible LP over clique cells: min/max of a cell sum."""
    objective = " + ".join(sorted(rng.sample(names, rng.randint(1, 3))))
    floor = Fraction(rng.randint(1, 4), 8)
    cell = rng.choice(names)
    return [
        f'pprog {rng.choice(["-min", "-max"])} "{objective}" "{cell} <= {floor}"',
        "solve",
        "solution",
        "point",
    ]


def corpus_deck(rng: random.Random, root: str) -> list[Op]:
    amphibian_cells = [f"x{i}" for i in range(1, 9)]
    ops = [
        ScriptOp("amphibian", _random_session(rng, root, "amphibian", 11) + _linear_pprog(rng, amphibian_cells)),
        ScriptOp("amphibian", _random_session(rng, root, "amphibian", 11) + _linear_pprog(rng, amphibian_cells)),
        readme_session(root),
        criteria_1_2_session(root),
        ScriptOp("basic1", _random_session(rng, root, "basic1", 4)),
        criterion_10_session(root),
        ScriptOp("knight2", _random_session(rng, root, "knight2", 4)),
        criterion_11_session(root),
        ScriptOp("zombie1", _random_session(rng, root, "zombie1", 4)),
        ScriptOp("butter", _random_session(rng, root, "butter", 4)),
        ScriptOp(
            "ace-king",
            _random_session(rng, root, "ace-king", 4) + _linear_pprog(rng, [f"x{i}" for i in range(1, 5)]),
        ),
        ScriptOp("zombie1-search", _random_session(rng, root, "zombie1-search", 4)),
    ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# chain

def chain_model(rng: random.Random, n: int, shape: str) -> str:
    """An all-parametric model over binary V0..V{n-1}.

    ``chain``: V{i-1} -> V{i}.  ``dag``: V{i} gets one (i even) or two
    (i odd) parents among the earlier variables.  ``clique3`` and
    ``clique4``: V0..V2 or V0..V3 share one parametric joint table and the
    rest form a DAG.
    """
    lines = [f"primary V{i} {{ states = binary; }}" for i in range(n)]
    start = 0
    if shape.startswith("clique"):
        start = int(shape[-1])
        members = " ".join(f"V{i}" for i in range(start))
        lines.append(f"clique _C; probability ( _C : {members} ) {{ parametric(x); }}")
    # seeded parameter names, so no two generated models share their text
    prefixes = rng.sample("abcdefghijklmnopqrstuvw", n)
    for i in range(start, n):
        if i == 0:
            parents = []
        elif shape == "chain":
            parents = [i - 1]
        else:
            # in-degree alternates 1, 2, 1, ... so the family's size is fixed
            parents = sorted(rng.sample(range(i), min(i, 1 + i % 2)))
        given = " | " + " ".join(f"V{p}" for p in parents) if parents else ""
        lines.append(f"probability ( V{i}{given} ) {{ parametric({prefixes[i]}); }}")
    return "\n".join(lines) + "\n"


class ChainOp(Op):
    def __init__(self, kind: str, n: int, text: str):
        self.kind = kind
        self.n = n
        self.text = text

    def prepare(self, pq):
        pq.polynomial.reset_registry()

    def run(self, pq, clock):
        model = clock.step(pq.dsl.parse_model, self.text)
        table = clock.step(pq.inference.query, model, [f"V{self.n - 1}"], ["V0"])
        return model, table, clock.step(table.format)

    def check(self, pq, result, rng):
        model, table, text = result
        points = [oracle.random_point(model.parameters, rng) for _ in range(ORACLE_POINTS)]
        problems = oracle.check_table(model, table, points, pq.polynomial.var_name)
        shown = sum(1 for v in table.values if not v.is_indeterminate())
        if len(text.splitlines()) != 2 + shown:
            problems.append(f"formatted table has {len(text.splitlines())} lines, expected {2 + shown}")
        return problems


# Latency bands, fastest first: n7 cliques ~15-45 ms, n8 clique ~50-100,
# n7 chain/dag ~60-120, n8 chain/dag ~200-400.  With 10 ops a deck, p50
# (rank 5) falls in the n7 chain/dag band (ranks 4-8) and p90 (rank 9) in
# the n8 chain/dag band (ranks 9-10).
CHAIN_DECK = [(7, "chain"), (7, "chain"), (7, "dag"), (7, "dag"), (7, "dag"), (7, "clique3"), (7, "clique4"),
              (8, "chain"), (8, "dag"), (8, "clique4")]


def chain_deck(rng: random.Random) -> list[Op]:
    ops = [ChainOp(f"n{n}-{shape}", n, chain_model(rng, n, shape)) for n, shape in CHAIN_DECK]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# analysis

class SolveOp(Op):
    def __init__(self, kind: str, model, sense: str, objective, constraints, exact: bool):
        self.kind = kind
        self.model = model
        self.sense = sense
        self.objective = objective
        self.constraints = constraints
        self.exact = exact

    def run(self, pq, clock):
        problem = clock.step(pq.optimize.build_program, self.model, self.sense, self.objective, self.constraints)
        return problem, clock.step(pq.optimize.solve, problem)

    def check(self, pq, result, rng):
        problem, solution = result
        return oracle.check_solution(problem, solution, self.exact, pq.polynomial.var_name)


class SearchOp(Op):
    def __init__(self, kind: str, spec, tree):
        self.kind = kind
        self.spec = spec
        self.tree = tree

    def run(self, pq, clock):
        table = clock.step(pq.search.enumerate_spec, self.spec)
        return table, clock.step(lambda: pq.search.filter_rows(table, to_criterion(pq, self.tree)))

    def check(self, pq, result, rng):
        table, matches = result
        return oracle.check_search(self.spec, self.tree, table, matches, rng, pq.polynomial.var_name)


def to_criterion(pq, tree):
    op = tree[0]
    if op == "zero":
        return pq.search.IsZero(tree[1])
    if op == "not":
        return ~to_criterion(pq, tree[1])
    if op == "and":
        return to_criterion(pq, tree[1]) & to_criterion(pq, tree[2])
    if op == "or":
        return to_criterion(pq, tree[1]) | to_criterion(pq, tree[2])
    if op == "one":
        return pq.search.ExactlyOne([to_criterion(pq, t) for t in tree[1]])
    raise ValueError(f"unknown criterion {op!r}")


def random_tree(rng: random.Random, names: list[str]):
    """A criterion over zero verdicts, two levels deep."""

    def leaf():
        node = ("zero", rng.choice(names))
        return ("not", node) if rng.random() < 0.3 else node

    shape = rng.randrange(3)
    if shape == 0:
        return ("or", ("and", leaf(), leaf()), ("and", leaf(), leaf()))
    if shape == 1:
        return ("one", [leaf() for _ in range(3)])
    return ("and", leaf(), ("not", ("or", leaf(), leaf())))


class AnalysisInputs:
    """Query results the analysis ops work on, computed in set-up."""

    def __init__(self, pq, root: str):
        P = pq.polynomial.Polynomial
        Constraint = pq.network.Constraint
        self.pq = pq
        self.Constraint = Constraint

        def load(name):
            return pq.dsl.load_model(os.path.join(root, "models", name + ".pql"))

        # amphibian: maximal consistency (criterion 8)
        self.amphibian = load("amphibian")
        self.amphibian.add_parameter(pq.network.Parameter("threshold"))
        self.threshold = P.variable("threshold")
        self.formulas = {
            f"S_{i}": pq.inference.query(self.amphibian, [f"S_{i}"]).values[0] for i in range(1, 9)
        }
        # conditional entries over the clique are linear-fractional
        pairs = [("S_4", "S_1"), ("S_5", "S_2"), ("S_6", "S_3")]
        self.conditionals = [
            pq.inference.query(self.amphibian, [a], [b]).values[0] for a, b in pairs
        ]

        # ace-king: subjunctive difference (criterion 7)
        self.ace_king = load("ace-king")
        self.ace_king_difference = (
            pq.inference.query(self.ace_king, ["A"], ["P"]).values[0]
            - pq.inference.query(self.ace_king, ["K"], ["P"]).values[0]
        )

        # butter and basic1: polynomial objectives for branch-and-bound
        self.butter = load("butter")
        c1 = pq.inference.query(self.butter, ["C_1"]).values[0]
        c2 = pq.inference.query(self.butter, ["C_2"]).values[0]
        self.butter_objectives = [c1, c1 - c2]
        self.basic1 = load("basic1")
        self.basic1_q = pq.inference.query(self.basic1, ["Q"]).values[0]

        # search targets: zombie1 (criterion 11) and basic1 with R parametric (criterion 5)
        zombie = load("zombie1")
        self.zombie_targets = dict(zip(["TT", "TF", "FT", "FF"], pq.inference.query(zombie, ["R", "H"]).values))
        self.zombie_constraints = zombie.constraints()
        with open(os.path.join(root, "models", "basic1.pql"), encoding="utf-8") as handle:
            source = handle.read().replace(
                'probability ( R | P Q ) { function = "R <-> P -> Q ? 1 : 0"; }',
                "probability ( R | P Q ) { parametric(t); }",
            )
        star = pq.dsl.parse_model(source, name="basic1-star")
        table = pq.inference.query(star, ["B"])
        self.star_targets = {f"B{s.label}": v for s, v in zip(star.variables["B"].states, table.values)}
        self.star_constraints = star.constraints()

    # -- op factories --------------------------------------------------------

    def lp(self, rng) -> Op:
        C, P = self.Constraint, self.pq.polynomial.Polynomial
        beliefs = rng.sample([f"S_{i}" for i in range(1, 8)], 4)
        if rng.random() < 0.5:
            constraints = [C(self.formulas[b], ">=", self.threshold) for b in beliefs]
            return SolveOp("lp", self.amphibian, "max", self.threshold, constraints, True)
        floor = P.constant(Fraction(1, 8))
        constraints = [C(self.formulas[b], ">=", floor) for b in beliefs]
        target = rng.choice([f"S_{i}" for i in range(1, 9)])
        return SolveOp("lp", self.amphibian, rng.choice(("min", "max")), self.formulas[target], constraints, True)

    def cc_amphibian(self, rng) -> Op:
        C, P = self.Constraint, self.pq.polynomial.Polynomial
        belief = rng.choice([f"S_{i}" for i in range(1, 8)])
        constraints = [C(self.formulas[belief], ">=", P.constant(Fraction(1, 8)))]
        objective = rng.choice(self.conditionals)
        return SolveOp("cc-amphibian", self.amphibian, rng.choice(("min", "max")), objective, constraints, True)

    def cc_ace_king(self, rng) -> Op:
        C, P = self.Constraint, self.pq.polynomial.Polynomial
        cell = P.variable(rng.choice(("x3", "x4")))
        constraints = [C(cell, "<=", P.constant(Fraction(rng.randint(1, 8), 8)))]
        return SolveOp("cc-ace-king", self.ace_king, rng.choice(("min", "max")), self.ace_king_difference,
                       constraints, True)

    def bnb(self, rng) -> Op:
        C, P = self.Constraint, self.pq.polynomial.Polynomial
        x, y = P.variable("x"), P.variable("y")
        if rng.random() < 0.25:
            # criterion 6: modus ponens in the imperative mood
            constraints = [C(x, "=", P.constant(1)), C(x, "=", x * y)]
            return SolveOp("bnb", self.basic1, "min", self.basic1_q, constraints, False)
        # the cut keeps the minimum off the box corners, so the solver branches
        cut = Fraction(rng.randint(6, 14), 16)
        constraints = [C(x + y, "<=", P.constant(cut))]
        return SolveOp("bnb", self.butter, "min", rng.choice(self.butter_objectives), constraints, False)

    def search_small(self, rng) -> Op:
        """zombie1 (criterion 11): t1..t4 and up to one clique cell, 16-32 rows."""
        S = self.pq.search
        binary = [Fraction(0), Fraction(1)]
        extra = rng.sample(["x1", "x2", "x3", "x4"], rng.randint(0, 1))
        discrete = [(f"t{i}", binary) for i in range(1, 5)] + [(name, binary) for name in extra]
        spec = S.SearchSpec(discrete, self.zombie_targets, self.zombie_constraints)
        return SearchOp("search-small", spec, random_tree(rng, list(spec.targets)))

    def search_large(self, rng) -> Op:
        """basic1 with R parametric (criterion 5): t1..t4, x and maybe y, 48-96 rows."""
        S = self.pq.search
        binary = [Fraction(0), Fraction(1)]
        discrete = [(f"t{i}", binary) for i in range(1, 5)] + [("x", [Fraction(0), Fraction(1, 2), Fraction(1)])]
        if rng.random() < 0.5:
            discrete.append((rng.choice(("y", "z")), binary))
        spec = S.SearchSpec(discrete, self.star_targets, self.star_constraints)
        return SearchOp("search-large", spec, random_tree(rng, list(spec.targets)))


# Latency bands, fastest first: search_small ~10-20 ms, cc_ace_king ~25-30,
# lp ~40-55, search_large ~60-120, cc_amphibian ~160, bnb ~500-900.  With
# 20 ops a deck, p50 (rank 10) falls in the middle of the lp band (ranks
# 7-13) and p90 (rank 18) in the middle of the bnb band (ranks 17-20).
ANALYSIS_DECK = {"search_small": 3, "cc_ace_king": 3, "lp": 7, "search_large": 2, "cc_amphibian": 1, "bnb": 4}


def analysis_deck(rng: random.Random, inputs: AnalysisInputs) -> list[Op]:
    ops = [getattr(inputs, kind)(rng) for kind, count in ANALYSIS_DECK.items() for _ in range(count)]
    rng.shuffle(ops)
    return ops
