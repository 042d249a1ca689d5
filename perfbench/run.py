"""pqnet benchmark: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload corpus|chain|analysis|all \
        --seed N --seconds S --trace 0|1

Run from the root of a pqnet checkout; pqnet is imported from ``src/``.
A run sets up several times (cold import of pqnet, input generation and,
for ``analysis``, the inference producing the objectives) and reports the
median as ``setup_s``.  It then times whole decks of ops until at least
``--seconds`` of op time and at least 100 ops have passed, checking every
answer against ``oracle`` outside the timed region.

Every set-up is timed between two samples of the fixed ``reference``
computation, and every op step by step with samples between its steps.
The reported times are scaled to the reference's nominal speed, so a
shared host that changes speed between or within runs does not move
them.  The wall-clock figures are printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` takes the
first whole decks that hold at least 100 ops and runs each op twice:
untraced, then with every layer wrapped by ``spans.Recorder``.  It prints
the per-layer metrics of the traced passes plus ``trace.overhead_share``.
Its size depends on neither ``--seconds`` nor speed, so counts repeat
exactly for a seed.  Spans go to ``perfbench/out/``.
``--workload all`` runs each workload in its own process and prints one
table.  The last line of output is always one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import types

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("corpus", "chain", "analysis")
MIN_OPS = 100
DECKS = 60
SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 25
MODULES = ("polynomial", "formula", "network", "dsl", "inference", "linprog", "optimize", "search", "cli")


class Unavailable(Exception):
    """The checkout holds no pqnet sources to benchmark."""


def import_pqnet():
    """Import every pqnet module afresh from the checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "pqnet", "__init__.py")):
        raise Unavailable(f"no pqnet package under {SRC}")
    for name in [m for m in sys.modules if m == "pqnet" or m.startswith("pqnet.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import importlib

    pq = types.SimpleNamespace(**{m: importlib.import_module(f"pqnet.{m}") for m in MODULES})
    if not os.path.abspath(pq.cli.__file__).startswith(SRC + os.sep):
        raise Unavailable(f"pqnet imported from {pq.cli.__file__}, not from {SRC}")
    return pq


def set_up(workload: str, seed: int):
    """Import pqnet and generate the workload's decks from the seed."""
    import workloads

    pq = import_pqnet()
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus":
        decks = [workloads.corpus_deck(rng, ROOT) for _ in range(DECKS)]
    elif workload == "chain":
        decks = [workloads.chain_deck(rng) for _ in range(DECKS)]
    else:
        inputs = workloads.AnalysisInputs(pq, ROOT)
        decks = [workloads.analysis_deck(rng, inputs) for _ in range(DECKS)]
    return pq, decks


def timed_set_up(workload: str, seed: int):
    """Set up repeatedly; return the last set-up and the median wall and
    scaled times."""
    times, scaled = [], []
    while True:
        gc.collect()
        before = reference.sample()
        start = time.perf_counter()
        pq, decks = set_up(workload, seed)
        times.append(time.perf_counter() - start)
        scaled.append(reference.scaled(times[-1], before, reference.sample()))
        if len(times) >= SETUP_MAX_REPEATS or (
            len(times) >= SETUP_REPEATS and sum(times) >= SETUP_MIN_SECONDS
        ):
            return pq, decks, statistics.median(times), statistics.median(scaled)


def run_ops(pq, ops, seed: int, recorder=None, first_index: int = 0):
    """Run ops in order; return per-op wall and scaled latencies and
    failure messages."""
    latencies, scaled, failures = [], [], []
    for index, op in enumerate(ops, first_index):
        rng = random.Random(f"check:{seed}:{index}")
        op.prepare(pq)
        if recorder is not None:
            recorder.start_op(index)
        clock = reference.Clock()
        try:
            result = op.run(pq, clock)
            raised = None
        except Exception as exc:  # a raising op is a failed op, not a crash
            raised = exc
        wall, scaled_s = clock.take()
        latencies.append(wall)
        scaled.append(scaled_s)
        if raised is not None:
            failures.append(f"op {index} ({op.kind}): {type(raised).__name__}: {raised}")
            continue
        try:
            problems = op.check(pq, result, rng)
        except Exception as exc:  # an answer the oracle cannot read is wrong
            problems = [f"oracle raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"op {index} ({op.kind}): " + "; ".join(problems[:3]))
    return latencies, scaled, failures


def run_decks(pq, decks, seed: int, seconds: float):
    """Run whole decks until ``seconds`` of wall op time and MIN_OPS ops."""
    latencies, scaled, failures = [], [], []
    deck = 0
    while sum(latencies) < seconds or len(latencies) < MIN_OPS:
        lat, sc, fail = run_ops(pq, decks[deck % len(decks)], seed)
        latencies += lat
        scaled += sc
        failures += fail
        deck += 1
    return latencies, scaled, failures


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def context() -> dict:
    src_lines = 0
    package = os.path.join(SRC, "pqnet")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                src_lines += sum(1 for _ in handle)
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "src_lines": src_lines}


def timing_metrics(setup_s: float, latencies: list[float]) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (percentile(latencies, 0.5) * 1000.0, "ms"),
        "latency_p90_ms": (percentile(latencies, 0.9) * 1000.0, "ms"),
    }


def measure(workload: str, seed: int, seconds: float) -> dict:
    pq, decks, wall_setup_s, setup_s = timed_set_up(workload, seed)
    gc.collect()
    latencies, scaled, failures = run_decks(pq, decks, seed, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = timing_metrics(setup_s, scaled)
    metrics["peak_rss_mb"] = (peak_mb, "MB")
    return {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "wall": timing_metrics(wall_setup_s, latencies),
    }


def measure_traced(workload: str, seed: int) -> dict:
    import spans

    pq, decks = set_up(workload, seed)
    # a fixed number of whole decks, so every count repeats exactly per seed
    ops = [op for deck in decks[: math.ceil(MIN_OPS / len(decks[0]))] for op in deck]
    recorder = spans.Recorder()
    latencies, failures, traced, traced_failures = [], [], [], []
    gc.collect()
    for index, op in enumerate(ops):
        # each op runs untraced, then traced, so machine noise hits both alike
        _, lat, fail = run_ops(pq, [op], seed, first_index=index)
        recorder.install(pq)
        try:
            _, traced_lat, traced_fail = run_ops(pq, [op], seed, recorder, index)
        finally:
            recorder.uninstall()
        latencies += lat
        failures += fail
        traced += traced_lat
        traced_failures += traced_fail
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    recorder.write(os.path.join(HERE, "out", f"spans-{workload}-{seed}.jsonl"))
    metrics = recorder.layer_metrics()
    metrics["trace.overhead_share"] = (1.0 - sum(latencies) / sum(traced), "share")
    return {
        "attempted": len(latencies) + len(traced),
        "failed": len(failures) + len(traced_failures),
        "failures": failures + traced_failures,
        "metrics": metrics,
    }


def emit(result: dict, samples: int) -> None:
    for failure in result["failures"][:20]:
        print(f"FAILED {failure}")
    ctx = context()
    print(f"context: python {ctx['python']}, nproc {ctx['nproc']}, src/ lines {ctx['src_lines']}")
    print(f"ops: {result['attempted']} attempted, {result['failed']} failed, "
          f"error_rate {result['failed'] / result['attempted']:.4f}, latency samples {samples}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    for name, (value, unit) in result.get("wall", {}).items():
        print(f"wall-clock {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process; one table of every metric."""
    results = {}
    for workload in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        results[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print("metric".ljust(32) + "".join(w.rjust(14) for w in WORKLOADS) + "  unit")
    for name in names:
        cells = "".join(f"{results[w]['metrics'][name]['value']:14.6g}" for w in WORKLOADS)
        print(name.ljust(32) + cells + "  " + results[WORKLOADS[0]]["metrics"][name]["unit"])
    rates = "".join(f"{results[w]['failed'] / results[w]['attempted']:14.4f}" for w in WORKLOADS)
    print("error_rate".ljust(32) + rates + "  share")
    print("samples (ops)".ljust(32) + "".join(f"{results[w]['attempted']:14d}" for w in WORKLOADS) + "  count")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed)
            samples = result["attempted"] // 2
        else:
            result = measure(args.workload, args.seed, args.seconds)
            samples = result["attempted"]
    except Unavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(result, samples)
    return 0


if __name__ == "__main__":
    sys.exit(main())
