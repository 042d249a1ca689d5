"""Tests of the benchmark's own code: input generation, self time, oracles.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import os
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import oracle  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def pq():
    return run.import_pqnet()


def fingerprint(decks) -> bytes:
    """Every generated input of every op, as bytes."""
    parts = []
    for deck in decks:
        for op in deck:
            parts.append(op.kind)
            if isinstance(op, workloads.ScriptOp):
                parts += op.lines + [repr(sorted(op.expected.items()))]
            elif isinstance(op, workloads.ChainOp):
                parts.append(op.text)
            elif isinstance(op, workloads.SolveOp):
                parts += [op.model.name, op.sense, str(op.objective)] + [str(c) for c in op.constraints]
            else:
                parts += [repr(op.spec.discrete), repr(sorted(op.spec.targets)), repr(op.tree)]
    return "\n".join(parts).encode()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_determines_inputs(workload):
    _, first = run.set_up(workload, 7)
    _, again = run.set_up(workload, 7)
    _, other = run.set_up(workload, 8)
    assert fingerprint(first) == fingerprint(again)
    assert fingerprint(first) != fingerprint(other)


def test_seed_keeps_class_proportions():
    _, first = run.set_up("analysis", 1)
    _, other = run.set_up("analysis", 2)
    assert sorted(op.kind for op in first[0]) == sorted(op.kind for op in other[0])


def test_self_time_nested_and_overlapping():
    # name, start, end, parent, op
    recorded = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],   # overlaps b on [3, 4]
        ["b", 3.0, 6.0, 0, 0],
        ["c", 9.0, 12.0, 0, 0],  # reaches past its parent; clipped to [9, 10]
        ["a.1", 2.0, 3.0, 1, 0],
        ["a.2", 2.5, 3.5, 1, 0],  # overlaps a.1 on [2.5, 3]
    ]
    assert spans.self_times(recorded) == pytest.approx([4.0, 1.5, 3.0, 3.0, 1.0, 1.0])


def test_recorder_spans_nest_and_count():
    recorder = spans.Recorder()
    inner = recorder.spanned("inner", lambda: sum(range(1000)))
    outer = recorder.spanned("outer", lambda: [inner() for _ in range(3)])
    recorder.start_op(5)
    outer()
    names = [span[0] for span in recorder.spans]
    assert names == ["outer", "inner", "inner", "inner"]
    assert [span[3] for span in recorder.spans] == [-1, 0, 0, 0]
    assert all(span[4] == 5 for span in recorder.spans)
    own = spans.self_times(recorder.spans)
    assert sum(own) == pytest.approx(recorder.spans[0][2] - recorder.spans[0][1])


def test_install_and_uninstall_restore_pqnet(pq):
    originals = (pq.inference.query, pq.polynomial.Polynomial.__mul__, pq.search.solve_polynomial)
    recorder = spans.Recorder()
    recorder.install(pq)
    assert pq.inference.query is not originals[0]
    recorder.uninstall()
    assert (pq.inference.query, pq.polynomial.Polynomial.__mul__, pq.search.solve_polynomial) == originals


def test_traced_chain_layers():
    pq, decks = run.set_up("chain", 3)
    recorder = spans.Recorder()
    recorder.install(pq)
    try:
        _, _, failures = run.run_ops(pq, decks[0][:2], 3, recorder)
    finally:
        recorder.uninstall()
    assert failures == []
    metrics = recorder.layer_metrics()
    assert metrics["inference.queries"][0] == 2
    assert metrics["inference.repeat_query_share"][0] == 0
    assert metrics["network.entry_calls"][0] > 0
    assert metrics["optimize.bnb_calls"][0] == 0 and metrics["search.rows"][0] == 0


def query_table(pq, model_file, principal, conditioning):
    pq.polynomial.reset_registry()
    model = pq.dsl.load_model(os.path.join(run.ROOT, "models", model_file))
    return model, pq.inference.query(model, principal, conditioning)


@pytest.mark.parametrize(
    "model_file, principal, conditioning",
    [("basic1.pql", ["Q"], ["P", "R"]), ("amphibian.pql", ["S_4", "S_1"], []), ("knight2.pql", ["A", "B"], ["R"])],
)
def test_oracle_accepts_inferred_tables(pq, model_file, principal, conditioning):
    model, table = query_table(pq, model_file, principal, conditioning)
    points = [oracle.random_point(model.parameters, random.Random(i)) for i in range(2)]
    assert oracle.check_table(model, table, points, pq.polynomial.var_name) == []


def test_oracle_flags_one_altered_numerator(pq):
    model, table = query_table(pq, "basic1.pql", ["Q"], ["P", "R"])
    entry = table.values[4]
    one = pq.polynomial.Polynomial.constant(Fraction(1, 3))
    table.values[4] = pq.polynomial.FractionalPolynomial(entry.numerator + one, entry.denominator)
    points = [oracle.random_point(model.parameters, random.Random(1))]
    problems = oracle.check_table(model, table, points, pq.polynomial.var_name)
    assert any("row 5: numerator" in p for p in problems)
    assert any("not the sum" in p for p in problems)


def test_oracle_flags_one_altered_unconditional_entry(pq):
    model, table = query_table(pq, "amphibian.pql", ["S_4", "S_1"], [])
    table.values[2] = table.values[2] + pq.polynomial.Polynomial.constant(Fraction(1, 3))
    points = [oracle.random_point(model.parameters, random.Random(2))]
    problems = oracle.check_table(model, table, points, pq.polynomial.var_name)
    assert len(problems) == 1 and "row 3: numerator" in problems[0]


def test_oracle_flags_infeasible_or_misreported_solution(pq):
    pq.polynomial.reset_registry()
    model = pq.dsl.load_model(os.path.join(run.ROOT, "models", "ace-king.pql"))
    x2 = pq.polynomial.Polynomial.variable("x2")
    problem = pq.optimize.build_program(model, "max", x2)
    solution = pq.optimize.solve(problem)
    var_name = pq.polynomial.var_name
    assert oracle.check_solution(problem, solution, True, var_name) == []
    solution.upper = solution.lower = Fraction(1, 2)
    assert oracle.check_solution(problem, solution, True, var_name)
    solution.point = {**solution.point, "x1": Fraction(1)}
    assert any("violates" in p for p in oracle.check_solution(problem, solution, False, var_name))


def test_oracle_flags_wrong_search_rows():
    pq, decks = run.set_up("analysis", 4)
    op = next(op for op in decks[0] if isinstance(op, workloads.SearchOp))
    table, matches = op.run(pq, reference.Clock())
    var_name = pq.polynomial.var_name
    assert oracle.check_search(op.spec, op.tree, table, matches, random.Random(0), var_name) == []
    wrong = matches[1:] if matches else [1]
    assert oracle.check_search(op.spec, op.tree, table, wrong, random.Random(0), var_name)


def test_missing_sources_exit_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "chain", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_clock_scales_each_step_by_the_samples_around_it(monkeypatch):
    nominal = reference.NOMINAL_S
    samples = iter([nominal, nominal, 3 * nominal])  # mean 1x, then mean 2x
    monkeypatch.setattr(reference, "sample", lambda: next(samples))
    clock = reference.Clock(every=0.0)
    clock.step(sum, range(1000))
    first = clock.wall
    clock.step(sum, range(1000))
    wall, scaled = clock.take()
    assert clock.wall == clock.scaled == 0.0
    assert scaled == pytest.approx(first + (wall - first) / 2)
