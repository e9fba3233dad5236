"""PR 6 serving benchmark: the vectorised slice router vs the PR 5 path.

Measures the slice router on the contended-batch workload (1000+
requests hammering a handful of hot regions, the shape where PR 5
measured 314 q/s): the PR 5 executor walked a Python list of active
targets and bisected per request per start time; the PR 6 router holds
all target ranges as flat interval arrays and routes each emission
batch with one ``searchsorted`` (counting-only batches accumulate in
arrays and never re-enter Python).  The PR 5 router is replicated
verbatim below as the baseline.

Per-range answers are asserted identical across both paths before
anything is timed.  Gate: vectorised router qps >= 2x the PR 5
baseline qps.

Standalone script (not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_pr6_parallel.py --smoke

writes ``BENCH_PR6.json`` next to the repository root.  ``--smoke``
runs fewer requests and one repetition (CI budget); the default runs
three repetitions, best kept.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.core.index import CoreIndex  # noqa: E402
from repro.graph.generators import BurstyConfig, generate_bursty  # noqa: E402
from repro.serve.columnar import run_columnar_walk  # noqa: E402
from repro.serve.executor import _group_cuts  # noqa: E402
from repro.serve.planner import plan_for_index  # noqa: E402
from repro.serve.sinks import CountSink, ResultSink  # noqa: E402

#: Same shape as the PR 1..5 workload: >= 50k temporal edges.
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
    name="bench_pr6",
)

K = 3
TARGET = 2.0  # vectorised router qps vs the PR 5 baseline
NUM_HOT = 8  # hot regions -> covering windows


class _PR5SliceRouter(ResultSink):
    """The PR 5 router, replicated verbatim as the baseline.

    A Python list of active targets, re-scanned per emission batch with
    one bisect per target — the per-request-bisect path this PR's
    vectorised router replaces.
    """

    def __init__(self, targets):
        super().__init__()
        self._pending = sorted(targets, key=lambda target: target[0])
        self._position = 0
        self._active = []

    def consume(self, t, ends, prefix_lens, eids):
        pending = self._pending
        while self._position < len(pending) and pending[self._position][0] <= t:
            self._active.append(pending[self._position])
            self._position += 1
        if not self._active:
            return
        alive = []
        for target in self._active:
            ts, te, sink = target
            if te < t:
                continue
            alive.append(target)
            count = int(np.searchsorted(ends, te, side="right"))
            if count:
                run = eids[: int(prefix_lens[count - 1])]
                sink.emit(t, ends[:count], prefix_lens[:count], run)
        self._active = alive

    def finish(self, completed):
        super().finish(completed)
        for _ts, _te, sink in self._pending:
            sink.finish(completed)


def pr5_query_batch(index: CoreIndex, ranges):
    """The PR 5 serving path: plan + bisect routing."""
    plan = plan_for_index(index, ranges)
    sinks = [CountSink() for _ in plan.requests]
    for group in plan.groups:
        counting = [True] * len(group.windows)  # every sink here counts
        for window, cut in _group_cuts(group, counting, registry=None):
            if window.is_shared:
                target = _PR5SliceRouter(
                    [
                        (plan.requests[r].ts, plan.requests[r].te, sinks[r])
                        for r in window.requests
                    ]
                )
            else:
                target = sinks[window.requests[0]]
            done = run_columnar_walk(cut, target)
            target.finish(done)
    return [
        sink.result("enum", request.k, request.time_range)
        for request, sink in zip(plan.requests, sinks)
    ]


def contended_ranges(rng: random.Random, tmax: int, count: int):
    """A contended batch over ``NUM_HOT`` evenly spread hot regions.

    Requests pile onto the hot regions (plus exact repeats — dashboard
    traffic), so the planner merges them into roughly one covering
    window per region: enough shared work for the router to dominate.
    """
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


def best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="fewer requests, one repetition (CI budget)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="repetitions per side, best kept (default: 1 smoke, 3 full)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent / "BENCH_PR6.json",
        help="output JSON path (default: <repo>/BENCH_PR6.json)",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats else (1 if args.smoke else 3)
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
        "benchmark": "bench_pr6_parallel",
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
        "pr5_single_process": {},
        "vectorised_router": {},
        "identical": True,
    }
    failures = []

    # ---- identity first: every timed path answers every range alike ----
    baseline = counters(pr5_query_batch(index, ranges))
    if counters(index.query_batch(ranges)) != baseline:
        report["identical"] = False
        failures.append("vectorised router diverges from the PR 5 baseline")

    # ---- both sides ----
    old_s = best_of(repeats, lambda: pr5_query_batch(index, ranges))
    new_s = best_of(repeats, lambda: index.query_batch(ranges))
    report["pr5_single_process"] = {
        "seconds": round(old_s, 4),
        "qps": round(batch_size / old_s, 1),
    }
    report["vectorised_router"] = {
        "seconds": round(new_s, 4),
        "qps": round(batch_size / new_s, 1),
        "speedup_vs_pr5": round(old_s / new_s, 2) if new_s else float("inf"),
    }
    print(
        f"pr5 single-process : {old_s:7.3f}s  {batch_size / old_s:8.1f} q/s"
    )
    print(
        f"vectorised router  : {new_s:7.3f}s  {batch_size / new_s:8.1f} q/s  "
        f"{old_s / new_s:5.2f}x"
    )

    gate = old_s / new_s if new_s else float("inf")
    report["gate"] = {
        "target": TARGET,
        "router_qps": report["vectorised_router"]["qps"],
        "pr5_qps": report["pr5_single_process"]["qps"],
        "speedup": round(gate, 2),
    }
    print(f"gate: vectorised router {report['gate']['router_qps']:.1f} q/s vs pr5 "
          f"{report['pr5_single_process']['qps']:.1f} q/s = {gate:.2f}x "
          f"(target {TARGET:.0f}x)")
    if gate < TARGET:
        failures.append(
            f"contended batch {gate:.2f}x below the {TARGET:.0f}x target "
            f"vs the PR 5 baseline"
        )

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
