"""PR 7 observability benchmark: what does instrumentation cost?

PR 7 threads a metrics registry and span tracing through the serving
stack — counters at every registry/store boundary, latency
histograms around plan/execute/enumerate/sink-flush, and per-query
span trees.  The design bet is that the hot path pays almost nothing:
counters are bound children incrementing under a lock, timing is one
branch when disabled, and the router flushes its counters once per
walk rather than per emission.

This benchmark prices that bet on the contended-batch workload the
PR 4..6 benchmarks established (1200 requests piling onto 8 hot
regions): the same planned batch, answered

* with observability **off** (``set_timing_enabled(False)``, no trace
  — counters still run; they replaced the pre-PR 7 bookkeeping), and
* with observability **on** (timing enabled *and* a live ``Trace``
  recording plan/execute/enumerate/sink_flush spans).

Per-range answers are asserted identical on both sides before anything
is timed.  Gate: the fully-instrumented side keeps >= 95% of the
uninstrumented qps (<= 5% overhead).

Standalone script (not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_pr7_obs.py --smoke

writes ``BENCH_PR7.json`` next to the repository root.  ``--smoke``
runs 400 requests and 21 repetitions (CI budget); the default runs
1200 requests and nine repetitions.  The sides alternate, and the
overhead is the median over repetitions of the on/off time ratio of
each adjacent pair: host drift hits both sides of a pair alike, and a
few lucky or slow shots of a short batch cannot decide the gate.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core.index import CoreIndex  # noqa: E402
from repro.graph.generators import BurstyConfig, generate_bursty  # noqa: E402
from repro.obs.metrics import get_registry, set_timing_enabled  # noqa: E402
from repro.obs.trace import Trace  # noqa: E402
from repro.serve.planner import plan_for_index  # noqa: E402

#: Same shape as the PR 1..6 workload: >= 50k temporal edges.
WORKLOAD = BurstyConfig(
    num_vertices=3000,
    background_edges=42000,
    tmax=2000,
    repeat_rate=0.25,
    num_bursts=40,
    burst_size=12,
    burst_width=25,
    edges_per_burst=220,
    seed=1,
    name="bench_pr7",
)

K = 3
MAX_OVERHEAD = 0.05  # instrumented side keeps >= 95% of the baseline qps
NUM_HOT = 8


def contended_ranges(rng: random.Random, tmax: int, count: int):
    """The PR 6 contended batch: requests piling onto 8 hot regions."""
    span = tmax // NUM_HOT
    hots = [span // 2 + i * span for i in range(NUM_HOT)]
    ranges = []
    for _ in range(count):
        mode = rng.random()
        if mode < 0.25 and ranges:
            ranges.append(rng.choice(ranges))  # exact repeat
        else:
            hot = rng.choice(hots)
            lo = max(1, hot - span // 3 + rng.randint(-10, 10))
            hi = min(tmax, lo + rng.randint(span // 2, span - 1))
            ranges.append((lo, hi))
    return ranges


def counters(results):
    return [(r.num_results, r.total_edges) for r in results]


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="fewer requests, more repetitions (CI budget)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="alternating repetitions per side (default: 21 smoke, 9 full)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent / "BENCH_PR7.json",
        help="output JSON path (default: <repo>/BENCH_PR7.json)",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats else (21 if args.smoke else 9)
    batch_size = 400 if args.smoke else 1200

    graph = generate_bursty(WORKLOAD)
    tmax = graph.tmax
    print(f"graph: n={graph.num_vertices} m={graph.num_edges} tmax={tmax} k={K}")

    index = CoreIndex(graph, K)  # build once; serving is what we measure
    index.ecs.window_eids()  # touch the lazy per-index caches up front
    index.ecs.start_cuts([1], [tmax])

    rng = random.Random(42)
    ranges = contended_ranges(rng, tmax, batch_size)
    plan_stats = plan_for_index(index, ranges).stats
    print(
        f"batch: {plan_stats['requests']} requests -> "
        f"{plan_stats['windows']} covering window(s) "
        f"({plan_stats['deduped']} deduped, {plan_stats['merged']} merged)"
    )

    report = {
        "benchmark": "bench_pr7_obs",
        "mode": "smoke" if args.smoke else "full",
        "repeats": repeats,
        "graph": {
            "name": WORKLOAD.name,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "tmax": tmax,
        },
        "k": K,
        "plan": plan_stats,
        "observability_off": {},
        "observability_on": {},
        "identical": True,
    }
    failures = []

    def run_instrumented():
        return index.query_batch(ranges, trace=Trace("bench"))

    # ---- identity first: instrumentation must not change answers ----
    previous = set_timing_enabled(False)
    try:
        baseline = counters(index.query_batch(ranges))
        set_timing_enabled(True)
        if counters(run_instrumented()) != baseline:
            report["identical"] = False
            failures.append("instrumented batch answers diverge")

        # ---- off (timing disabled, no trace) vs on (timing + a live
        # span tree), alternating ----
        offs, ons = [], []
        for _ in range(repeats):
            set_timing_enabled(False)
            offs.append(timed(lambda: index.query_batch(ranges)))
            set_timing_enabled(True)
            ons.append(timed(run_instrumented))
    finally:
        set_timing_enabled(previous)
    off_s, on_s = statistics.median(offs), statistics.median(ons)

    trace = Trace("bench")
    index.query_batch(ranges, trace=trace)
    spans_per_batch = len(trace.spans())

    report["observability_off"] = {
        "seconds": round(off_s, 4),
        "qps": round(batch_size / off_s, 1),
    }
    report["observability_on"] = {
        "seconds": round(on_s, 4),
        "qps": round(batch_size / on_s, 1),
        "spans_per_batch": spans_per_batch,
    }
    overhead = statistics.median(on / off for on, off in zip(ons, offs)) - 1
    report["gate"] = {
        "max_overhead": MAX_OVERHEAD,
        "overhead": round(overhead, 4),
    }
    print(f"observability off  : {off_s:7.3f}s  {batch_size / off_s:8.1f} q/s")
    print(
        f"observability on   : {on_s:7.3f}s  {batch_size / on_s:8.1f} q/s  "
        f"({spans_per_batch} spans/batch)"
    )
    print(
        f"gate: overhead {overhead * 100:+.2f}% "
        f"(allowed {MAX_OVERHEAD * 100:.0f}%)"
    )
    if overhead > MAX_OVERHEAD:
        failures.append(
            f"instrumentation overhead {overhead * 100:.2f}% exceeds the "
            f"{MAX_OVERHEAD * 100:.0f}% budget"
        )

    # The registry really did see the batches it priced.
    snap = get_registry().snapshot()
    report["registry"] = {
        "plan_requests_total": snap["repro_plan_requests_total"]["values"][0][
            "value"
        ],
        "execute_batches": snap["repro_execute_seconds"]["values"][0]["count"],
    }

    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"[report written to {args.out}]")

    if not report["identical"]:
        failures.insert(0, "answers diverge between serving paths")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
