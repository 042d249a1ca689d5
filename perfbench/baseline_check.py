"""Check that the baseline recorded in ROADMAP.md "Recent" reappears.

    python3 perfbench/baseline_check.py

The ROADMAP baseline: a binary chain query Pr(V7 | V0) (n = 8) takes
about 0.3 s, split roughly evenly between ``full_joint`` and
``marginalize``; a single ``amphibian`` query takes 70-95 ms.  This
script times both queries untraced (median of five), then once more under
``spans.Recorder`` to split the chain query's time by layer.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time

import run
import spans
import workloads

REPEATS = 5


def main() -> int:
    pq = run.import_pqnet()
    chain_text = workloads.chain_model(random.Random(0), 8, "chain")

    def chain_query():
        pq.polynomial.reset_registry()
        model = pq.dsl.parse_model(chain_text)
        start = time.perf_counter()
        pq.inference.query(model, ["V7"], ["V0"])
        return time.perf_counter() - start

    pq.polynomial.reset_registry()
    amphibian = pq.dsl.load_model(os.path.join(run.ROOT, "models", "amphibian.pql"))

    def amphibian_query():
        start = time.perf_counter()
        pq.inference.query(amphibian, ["S_4"], ["S_1"])
        return time.perf_counter() - start

    chain_s = statistics.median(chain_query() for _ in range(REPEATS))
    amphibian_s = statistics.median(amphibian_query() for _ in range(REPEATS))

    recorder = spans.Recorder()
    recorder.install(pq)
    try:
        chain_query()
    finally:
        recorder.uninstall()
    metrics = recorder.layer_metrics()
    total = sum(metrics[name][0] for name in ("inference.query_ms", "inference.full_joint_ms",
                                              "inference.marginalize_ms"))
    print(f"chain n=8 query: {chain_s * 1000:.1f} ms untraced (ROADMAP: about 300 ms)")
    print(f"  traced shares: full_joint {metrics['inference.full_joint_ms'][0] / total:.2f}, "
          f"marginalize {metrics['inference.marginalize_ms'][0] / total:.2f}, "
          f"query itself {metrics['inference.query_ms'][0] / total:.2f} (ROADMAP: about 0.5 / 0.5)")
    print(f"amphibian query: {amphibian_s * 1000:.1f} ms untraced (ROADMAP: 70-95 ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
