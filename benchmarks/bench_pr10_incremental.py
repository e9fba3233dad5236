"""PR 10 incremental maintenance benchmark: delta-folds vs full rebuilds.

PR 10 replaces the streaming append path's full index rebuild with an
incremental **delta-fold** (``repro.core.incremental``): extend the
compiled arrays in O(|delta|), recompute only the suffix window the
new edges can reach, and splice the harvested rows into the existing
start-sorted VCT/ECS arrays.  This prices that path:

* **gate** — one fold of a ≤1% pending batch against the full rebuild
  on the same edges.  The batch lands inside the currently-active
  community (the realistic streaming shape: new activity arrives where
  the graph is already hot), which keeps the recompute window small.
  The run **fails** unless the fold is at least ``GATE_SPEEDUP``×
  faster *and* the folded indexes are entry-identical to the rebuild.
* **delta-sweep** — fold latency as the pending batch grows, same base.
* **sustained** — an append+refresh mix through
  :class:`StreamingCoreService`, measuring the freshness lag a client
  observes (edges pending at refresh, seconds the refresh takes) as a
  function of the append rate between refreshes.

Standalone script (not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_pr10_incremental.py --smoke

writes ``BENCH_PR10.json`` next to the repository root.  ``--smoke``
shrinks the base stream for the CI budget; the gate is enforced in
both modes.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.incremental import delta_fold  # noqa: E402
from repro.core.maintenance import (  # noqa: E402
    StreamingCoreService,
    fold_fallback_counts,
)
from repro.core.multik import build_core_indexes  # noqa: E402
from repro.graph.temporal_graph import TemporalGraph  # noqa: E402

SEED = 11
KS = (2, 4, 8)
GATE_SPEEDUP = 5.0
#: Window (in normalized instants, back from tmax) the "hot community"
#: is read from.
HOT_WINDOW = 600


class HotStream:
    """A community-skewed edge stream over a slowly drifting pool.

    Endpoints are beta-skewed into an 80-vertex active pool whose base
    drifts forward a little with every edge — old vertices retire, new
    ones join, and a dense recurring community keeps real k-cores
    alive near the frontier (uniform random streams never form one).
    """

    def __init__(self, nodes: int = 3000, pool: int = 80, seed: int = SEED):
        self.rng = random.Random(seed)
        self.nodes = nodes
        self.pool = pool
        self.t = 1
        self.base = 0.0

    def _draw(self) -> str:
        offset = int(self.rng.betavariate(1.2, 3.0) * self.pool)
        return f"v{(int(self.base) + offset) % self.nodes}"

    def take(self, count: int) -> list[tuple[str, str, int]]:
        out: list[tuple[str, str, int]] = []
        while len(out) < count:
            if self.rng.random() < 0.55:
                self.t += 1
            u, v = self._draw(), self._draw()
            if u == v:
                continue
            out.append((u, v, self.t))
            self.base += 0.02
        return out


def hot_members(graph, indexes) -> list[str]:
    """Labels of the current top-k core community near the frontier."""
    k = max(indexes)
    ts = max(1, graph.tmax - HOT_WINDOW)
    members = indexes[k].vct.core_members(ts, graph.tmax)
    return [graph.label_of(int(u)) for u in members]


def hot_delta(labels, count: int, start_t: int, rng: random.Random):
    """``count`` strictly-newer edges among the hot community."""
    out: list[tuple[str, str, int]] = []
    t = start_t
    while len(out) < count:
        if rng.random() < 0.55:
            t += 1
        u, v = rng.sample(labels, 2)
        out.append((u, v, t))
    return out


def flat_equal(a, b) -> bool:
    """Entry-identity of two CoreTimeResults via their flat arrays."""
    for left, right in (
        (a.vct.flat_parts(), b.vct.flat_parts()),
        (a.ecs.flat_parts(), b.ecs.flat_parts()),
    ):
        for x, y in zip(left, right):
            same = x == y
            if not (same.all() if hasattr(same, "all") else same):
                return False
    return True


def check_identical(folded, rebuilt, graph) -> None:
    """The in-bench answer check: folded == rebuilt, arrays and queries."""
    for k in KS:
        assert flat_equal(
            folded[k], rebuilt[k]
        ), f"fold diverged from rebuild at k={k}"
        # A few live window queries on top of the array identity.
        for ts, te in ((1, graph.tmax), (max(1, graph.tmax // 2), graph.tmax)):
            got = folded[k].vct.core_members(ts, te)
            want = rebuilt[k].vct.core_members(ts, te)
            assert (got == want).all(), f"core_members diverged at k={k}"


def bench_gate(base_count: int, delta_count: int) -> dict:
    stream = HotStream()
    base_edges = stream.take(base_count)
    base = TemporalGraph(base_edges)

    start = time.perf_counter()
    indexes = build_core_indexes(base, KS)
    base_build_s = time.perf_counter() - start

    rng = random.Random(SEED + 1)
    labels = hot_members(base, indexes)
    delta = hot_delta(labels, delta_count, stream.t + 1, rng)

    start = time.perf_counter()
    fold = delta_fold(base, indexes, delta)
    fold_s = time.perf_counter() - start

    start = time.perf_counter()
    rebuilt = build_core_indexes(TemporalGraph(base_edges + delta), KS)
    full_s = time.perf_counter() - start

    check_identical(fold.indexes, rebuilt, fold.graph)
    speedup = full_s / fold_s
    report = vars(fold.report).copy()
    return {
        "base_edges": base_count,
        "delta_edges": delta_count,
        "pending_fraction": delta_count / (base_count + delta_count),
        "ks": list(KS),
        "base_build_seconds": base_build_s,
        "fold_seconds": fold_s,
        "full_rebuild_seconds": full_s,
        "speedup": speedup,
        "gate_speedup": GATE_SPEEDUP,
        "fold_report": report,
        "identical": True,
        "stream": (base, base_edges, indexes, labels, delta),
    }


def bench_delta_sweep(gate: dict, sizes: list[int]) -> list[dict]:
    """Fold latency vs batch size, all from the same base snapshot."""
    base, _edges, indexes, labels, _delta = gate["stream"]
    rows = []
    for size in sizes:
        rng = random.Random(SEED + size)
        delta = hot_delta(labels, size, base.raw_time_of(base.tmax) + 1, rng)
        start = time.perf_counter()
        fold = delta_fold(base, indexes, delta)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "delta_edges": size,
                "fold_seconds": elapsed,
                "window_fraction": fold.report.window_fraction,
                "cascade_vertices": fold.report.cascade_vertices,
            }
        )
    return rows


def bench_sustained(gate: dict, rates: list[int]) -> list[dict]:
    """Append+refresh rounds: freshness lag as the append rate grows.

    Each round appends ``rate`` hot edges through the streaming
    service, then refreshes; the lag a reader saw is the pending count
    at refresh time (edges) plus how long the refresh took to clear it
    (seconds).  The sustainable rate is the batch over the fold time.
    """
    _base, base_edges, _indexes, labels, delta = gate["stream"]
    service = StreamingCoreService(KS)
    edges = base_edges + delta
    for u, v, t in edges:
        service.append(u, v, t)
    modes = [service.refresh()]
    last_t = edges[-1][2]

    rows = []
    last_fallback_reason = None
    for rate in rates:
        rng = random.Random(SEED + 7 * rate)
        batch = hot_delta(labels, rate, last_t + 1, rng)
        last_t = batch[-1][2]
        for u, v, t in batch:
            service.append(u, v, t)
        lag_edges = service.num_pending
        fallbacks = fold_fallback_counts()
        start = time.perf_counter()
        resolved = service.refresh()
        refresh_s = time.perf_counter() - start
        modes.append(resolved)
        for reason, count in fold_fallback_counts().items():
            if count > fallbacks.get(reason, 0):
                last_fallback_reason = reason
        rows.append(
            {
                "append_rate_edges": rate,
                "mode": resolved,
                "lag_edges_at_refresh": lag_edges,
                "refresh_seconds": refresh_s,
                "sustainable_edges_per_second": rate / refresh_s,
            }
        )
    rows.append(
        {
            "summary": {
                "incremental_folds": modes.count("incremental"),
                "full_rebuilds": modes.count("full"),
                "last_fallback_reason": last_fallback_reason,
            }
        }
    )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI budget: smaller base stream")
    parser.add_argument("--output", default=str(REPO / "BENCH_PR10.json"))
    args = parser.parse_args(argv)

    if args.smoke:
        base_count, delta_count = 9_900, 100
        sweep = [25, 50, 100]
        rates = [50, 100, 200]
    else:
        base_count, delta_count = 49_500, 500
        sweep = [50, 100, 250, 500]
        rates = [100, 250, 500, 1000]

    print(f"gate: base={base_count} delta={delta_count} ks={KS}", flush=True)
    gate = bench_gate(base_count, delta_count)
    print(
        f"  fold {gate['fold_seconds']:.3f}s vs full "
        f"{gate['full_rebuild_seconds']:.3f}s -> {gate['speedup']:.1f}x "
        f"(window {gate['fold_report']['window_fraction']:.3f})",
        flush=True,
    )

    print("delta sweep:", flush=True)
    sweep_rows = bench_delta_sweep(gate, sweep)
    for row in sweep_rows:
        print(f"  {row['delta_edges']:>5} edges: {row['fold_seconds']:.3f}s",
              flush=True)

    print("sustained append+refresh:", flush=True)
    sustained_rows = bench_sustained(gate, rates)
    for row in sustained_rows:
        if "summary" in row:
            continue
        print(
            f"  rate {row['append_rate_edges']:>5}: {row['mode']} in "
            f"{row['refresh_seconds']:.3f}s "
            f"({row['sustainable_edges_per_second']:.0f} edges/s)",
            flush=True,
        )

    gate.pop("stream")
    payload = {
        "bench": "pr10_incremental",
        "mode": "smoke" if args.smoke else "full",
        "gate": gate,
        "delta_sweep": sweep_rows,
        "sustained": sustained_rows,
    }
    out = pathlib.Path(args.output)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}", flush=True)

    if gate["speedup"] < GATE_SPEEDUP:
        print(
            f"GATE FAILED: speedup {gate['speedup']:.2f}x < {GATE_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    print(f"gate passed: {gate['speedup']:.1f}x >= {GATE_SPEEDUP}x", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
