"""Spans and counters recorded around pqnet's public functions.

The traced run wraps module attributes and class methods of pqnet from
the outside: nothing under ``src/`` changes.  Each wrapper patches the
name the caller actually looks up (``inference.query`` reads
``full_joint`` and ``marginalize`` as module globals, ``search`` holds its
own ``solve_polynomial`` binding, and so on).

Very frequent calls (polynomial ``*``/``+``, ``Polynomial.evaluate`` and
``ComponentTable.entry``) are only counted.  Everything else records a
span: name, start, end, parent span and op id, kept in memory and written
out when the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter


class Recorder:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        # each span is [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_terms = 0
        self.op = -1
        self._models_queried: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- op boundaries -------------------------------------------------------

    def start_op(self, op_id: int) -> None:
        self.op = op_id
        self._models_queried = set()

    # -- wrappers ------------------------------------------------------------

    def spanned(self, name, fn, after=None):
        """Wrap fn in a span; ``after(result, args)`` updates counters."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counted(self, name, fn, after=None):
        """Wrap fn so that each call bumps counter ``name``; no span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counted_outermost(self, name, fn):
        """Count only the outermost call of a recursive function."""
        counts = self.counts
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0] == 0:
                counts[name] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    def patch(self, owner, attribute: str, wrapper) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- installation ----------------------------------------------------------

    def install(self, pq) -> None:
        """Wrap the public functions of every pqnet layer.

        ``pq`` holds the imported pqnet modules as attributes.
        """
        counts = self.counts
        Polynomial = pq.polynomial.Polynomial
        Session = pq.cli.Session

        # cli
        self.patch(Session, "execute", self.counted("cli.commands", Session.execute))
        for command in ("load", "infer", "print", "solve"):
            method = f"_cmd_{command}"
            self.patch(Session, method, self.spanned(f"cli.{command}", getattr(Session, method)))

        # dsl
        def count_statements(result, args):
            counts["dsl.statements"] += len(result)

        self.patch(pq.dsl, "parse_statements",
                   self.spanned("dsl.parse", pq.dsl.parse_statements, count_statements))
        self.patch(pq.dsl, "build_model", self.spanned("dsl.build", pq.dsl.build_model))
        self.patch(pq.dsl, "parse_command", self.spanned("dsl.command", pq.dsl.parse_command))

        # formula: function tables are built at load time
        self.patch(pq.network.Model, "table_from_function",
                   self.spanned("formula", pq.network.Model.table_from_function))
        self.patch(pq.formula, "eval_formula",
                   self.counted_outermost("formula.evals", pq.formula.eval_formula))

        # network
        ComponentTable = pq.network.ComponentTable
        self.patch(ComponentTable, "entry", self.counted("network.entry_calls", ComponentTable.entry))
        self.patch(pq.network.Model, "constraints",
                   self.spanned("network.constraints", pq.network.Model.constraints))

        # inference
        def after_query(result, args):
            counts["inference.queries"] += 1
            model_id = id(args[0])
            if model_id in self._models_queried:
                counts["inference.repeat_queries"] += 1
            self._models_queried.add(model_id)
            for value in result.values:
                for poly in (getattr(value, "numerator", value), getattr(value, "denominator", value)):
                    if len(poly.terms) > self.max_terms:
                        self.max_terms = len(poly.terms)

        def after_joint(result, args):
            counts["inference.joint_cells"] += len(result.values)

        def after_marginalize(result, args):
            counts["inference.marginalize_rows"] += len(args[0].values)

        self.patch(pq.inference, "query", self.spanned("inference.query", pq.inference.query, after_query))
        self.patch(pq.inference, "full_joint",
                   self.spanned("inference.full_joint", pq.inference.full_joint, after_joint))
        self.patch(pq.inference, "marginalize",
                   self.spanned("inference.marginalize", pq.inference.marginalize, after_marginalize))
        ResultTable = pq.inference.ResultTable
        self.patch(ResultTable, "format", self.spanned("inference.format", ResultTable.format))
        self.patch(ResultTable, "pivot", self.spanned("inference.format", ResultTable.pivot))
        self.patch(pq.inference, "display_entry",
                   self.spanned("inference.display_entry", pq.inference.display_entry))

        # polynomial
        def after_mul(result, args):
            if result is not NotImplemented:
                counts["polynomial.mul_terms_out"] += len(result.terms)

        for attribute, counter, after in (
            ("__mul__", "polynomial.mul_calls", after_mul),
            ("__rmul__", "polynomial.mul_calls", after_mul),
            ("__add__", "polynomial.add_calls", None),
            ("__radd__", "polynomial.add_calls", None),
        ):
            self.patch(Polynomial, attribute, self.counted(counter, getattr(Polynomial, attribute), after))
        self.patch(Polynomial, "evaluate", self.counted("polynomial.evaluate_calls", Polynomial.evaluate))
        self.patch(Polynomial, "substitute", self.spanned("polynomial.substitute", Polynomial.substitute))
        exact_divide = self.spanned("polynomial.exact_divide", pq.polynomial.exact_divide)
        self.patch(pq.polynomial, "exact_divide", exact_divide)
        self.patch(pq.inference, "exact_divide", exact_divide)

        # linprog
        def after_lp(result, args):
            counts["linprog.solves"] += 1
            counts["linprog.rows"] += len(args[0].rows)
            counts["linprog.cols"] += len(args[0].variables)

        self.patch(pq.linprog, "solve", self.spanned("linprog.solve", pq.linprog.solve, after_lp))

        # optimize
        def after_bnb(result, args):
            counts["optimize.bnb_calls"] += 1
            if result.status == "optimal":
                counts["optimize.bnb_optimal"] += 1

        def after_search_bnb(result, args):
            counts["search.solver_calls"] += 1
            after_bnb(result, args)

        self.patch(pq.optimize, "solve_lp", self.spanned("optimize.lp", pq.optimize.solve_lp))
        self.patch(pq.optimize, "charnes_cooper", self.spanned("optimize.cc", pq.optimize.charnes_cooper))
        bnb = pq.optimize.solve_polynomial
        self.patch(pq.optimize, "solve_polynomial", self.spanned("optimize.bnb", bnb, after_bnb))
        self.patch(pq.search, "solve_polynomial", self.spanned("optimize.bnb", bnb, after_search_bnb))

        # search
        def after_enumerate(result, args):
            counts["search.rows"] += len(result)

        def after_filter(result, args):
            counts["search.filtered_rows"] += len(args[0])
            counts["search.matches"] += len(result)

        self.patch(pq.search, "enumerate_spec",
                   self.spanned("search.enumerate", pq.search.enumerate_spec, after_enumerate))
        self.patch(pq.search, "filter_rows", self.spanned("search.filter", pq.search.filter_rows, after_filter))

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics summed over the run: name -> (value, unit)."""
        self_ms = Counter()
        for (name, *_), seconds in zip(self.spans, self_times(self.spans)):
            self_ms[name] += seconds * 1000.0
        c = self.counts
        ms = "ms"
        out = {
            "cli.commands": (c["cli.commands"], "count"),
            "cli.load_ms": (self_ms["cli.load"], ms),
            "cli.infer_ms": (self_ms["cli.infer"], ms),
            "cli.print_ms": (self_ms["cli.print"], ms),
            "cli.solve_ms": (self_ms["cli.solve"], ms),
            "dsl.statements": (c["dsl.statements"], "count"),
            "dsl.parse_ms": (self_ms["dsl.parse"], ms),
            "dsl.build_ms": (self_ms["dsl.build"], ms),
            "dsl.command_ms": (self_ms["dsl.command"], ms),
            "formula.evals": (c["formula.evals"], "count"),
            "formula.ms": (self_ms["formula"], ms),
            "network.entry_calls": (c["network.entry_calls"], "count"),
            "network.constraints_calls": (_span_count(self.spans, "network.constraints"), "count"),
            "network.constraints_ms": (self_ms["network.constraints"], ms),
            "inference.queries": (c["inference.queries"], "count"),
            "inference.query_ms": (self_ms["inference.query"], ms),
            "inference.full_joint_ms": (self_ms["inference.full_joint"], ms),
            "inference.joint_cells": (c["inference.joint_cells"], "count"),
            "inference.marginalize_ms": (self_ms["inference.marginalize"], ms),
            "inference.marginalize_rows": (c["inference.marginalize_rows"], "count"),
            "inference.max_terms": (self.max_terms, "count"),
            "inference.repeat_query_share": (
                _share(c["inference.repeat_queries"], c["inference.queries"]), "share"),
            "inference.format_ms": (self_ms["inference.format"], ms),
            "inference.display_entry_ms": (self_ms["inference.display_entry"], ms),
            "polynomial.mul_calls": (c["polynomial.mul_calls"], "count"),
            "polynomial.add_calls": (c["polynomial.add_calls"], "count"),
            "polynomial.mul_terms_out": (c["polynomial.mul_terms_out"], "count"),
            "polynomial.substitute_calls": (_span_count(self.spans, "polynomial.substitute"), "count"),
            "polynomial.substitute_ms": (self_ms["polynomial.substitute"], ms),
            "polynomial.evaluate_calls": (c["polynomial.evaluate_calls"], "count"),
            "polynomial.exact_divide_ms": (self_ms["polynomial.exact_divide"], ms),
            "linprog.solves": (c["linprog.solves"], "count"),
            "linprog.solve_ms": (self_ms["linprog.solve"], ms),
            "linprog.rows": (c["linprog.rows"], "count"),
            "linprog.cols": (c["linprog.cols"], "count"),
            "optimize.lp_ms": (self_ms["optimize.lp"], ms),
            "optimize.cc_ms": (self_ms["optimize.cc"], ms),
            "optimize.bnb_calls": (c["optimize.bnb_calls"], "count"),
            "optimize.bnb_ms": (self_ms["optimize.bnb"], ms),
            "optimize.bnb_optimal_share": (
                _share(c["optimize.bnb_optimal"], c["optimize.bnb_calls"]), "share"),
            "search.rows": (c["search.rows"], "count"),
            "search.enumerate_ms": (self_ms["search.enumerate"], ms),
            "search.filter_ms": (self_ms["search.filter"], ms),
            "search.match_share": (_share(c["search.matches"], c["search.filtered_rows"]), "share"),
            "search.solver_calls": (c["search.solver_calls"], "count"),
        }
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _span_count(spans: list[list], name: str) -> int:
    return sum(1 for span in spans if span[0] == name)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval, and overlapping
    children are merged first, so time covered twice is subtracted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[3]
        if parent >= 0:
            children.setdefault(parent, []).append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out
