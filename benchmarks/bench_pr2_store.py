"""PR 2 store benchmark: cold Algorithm-2 build vs warm mmap open.

Measures the cold-start cost a serving process pays to answer its first
query on the 50k-edge bursty workload of ``bench_pr1_kernel``:

* **cold** — build the index in-process: compile the graph and run
  Algorithm 2 (the pre-store reality for every boot);
* **warm** — open the persisted store: load the compiled graph blob,
  open the index blob (mmap + checksum), and answer one query from the
  flat arrays (the "open + filter" path).

Both paths answer the same sub-range query; the benchmark asserts the
answers are identical and reports the speedup (target: >= 10x).

Standalone script (not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_pr2_store.py --smoke

writes ``BENCH_PR2.json`` next to the repository root.  ``--smoke``
times five repetitions per side (CI budget), the default nine; the
speedup gate compares the two sides' medians, and the JSON carries
each side's quartiles as its spread.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core.index import CoreIndex  # noqa: E402
from repro.graph.generators import BurstyConfig, generate_bursty  # noqa: E402
from repro.graph.temporal_graph import TemporalGraph  # noqa: E402
from repro.store import IndexStore  # noqa: E402

#: Same shape as the PR 1 workload: >= 50k temporal edges, bursty.
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
    name="bench_pr2",
)

K = 3
#: Narrow sub-range: the query itself is cheap on both sides, so the
#: measurement isolates build-vs-open (time to first answer).
QUERY_RANGE = (600, 650)
SPEEDUP_TARGET = 10.0


def canonical(result, graph) -> set[frozenset]:
    """Cores as label-space edge triples (edge ids permute across builds)."""
    return {
        frozenset(
            (*sorted((str(u), str(v))), t) for u, v, t in core.edge_triples(graph)
        )
        for core in result
    }


def quartiles(times: list[float]) -> list[float]:
    """The first and third quartiles of ``times``, in seconds."""
    if len(times) < 2:
        return [round(times[0], 4)] * 2
    q1, _median, q3 = statistics.quantiles(times, n=4)
    return [round(q1, 4), round(q3, 4)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="five repetitions per side (CI budget)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="repetitions per side, median kept (default: 5 smoke, 9 full)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent / "BENCH_PR2.json",
        help="output JSON path (default: <repo>/BENCH_PR2.json)",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats else (5 if args.smoke else 9)

    source = generate_bursty(WORKLOAD)
    triples = [
        (source.label_of(u), source.label_of(v), t) for u, v, t in source.edges
    ]
    print(f"graph: n={source.num_vertices} m={source.num_edges} tmax={source.tmax}")

    # ---- cold path: fresh graph object, compile + Algorithm 2 + query ----
    cold_times: list[float] = []
    cold_cores: set[frozenset] | None = None
    for _ in range(repeats):
        cold_graph = TemporalGraph(triples)  # no caches carried over
        start = time.perf_counter()
        cold_index = CoreIndex(cold_graph, K)
        cold_answer = cold_index.query(*QUERY_RANGE)
        cold_times.append(time.perf_counter() - start)
        cold_cores = canonical(cold_answer, cold_graph)

    with tempfile.TemporaryDirectory(prefix="bench_pr2_store_") as tmp:
        store = IndexStore(tmp)
        key = store.save_index(CoreIndex(source, K), name=WORKLOAD.name)
        directory = pathlib.Path(tmp) / key
        store_bytes = sum(p.stat().st_size for p in directory.iterdir())

        # ---- warm path: open graph + index blobs, answer from disk ----
        warm_times: list[float] = []
        warm_cores: set[frozenset] | None = None
        num_results = 0
        for _ in range(repeats):
            start = time.perf_counter()
            warm_store = IndexStore(tmp)
            warm_graph = warm_store.load_graph(key)
            warm_index = warm_store.load_index(warm_graph, K, key=key)
            assert warm_index is not None
            warm_answer = warm_index.query(*QUERY_RANGE)
            warm_times.append(time.perf_counter() - start)
            warm_cores = canonical(warm_answer, warm_graph)
            num_results = warm_answer.num_results

    identical = cold_cores is not None and cold_cores == warm_cores
    cold_seconds = statistics.median(cold_times)
    warm_seconds = statistics.median(warm_times)
    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")

    report = {
        "benchmark": "bench_pr2_store",
        "mode": "smoke" if args.smoke else "full",
        "repeats": repeats,
        "graph": {
            "name": WORKLOAD.name,
            "num_vertices": source.num_vertices,
            "num_edges": source.num_edges,
            "tmax": source.tmax,
        },
        "k": K,
        "query_range": list(QUERY_RANGE),
        "cold_build_seconds": round(cold_seconds, 4),
        "cold_build_quartiles": quartiles(cold_times),
        "warm_open_seconds": round(warm_seconds, 4),
        "warm_open_quartiles": quartiles(warm_times),
        "speedup": round(speedup, 1),
        "store_bytes": store_bytes,
        "num_results": num_results,
        "identical": identical,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(
        f"k={K} range={QUERY_RANGE}, median of {repeats}: cold {cold_seconds:.3f}s  "
        f"warm {warm_seconds:.4f}s  speedup {speedup:.0f}x  "
        f"store {store_bytes / 1e6:.1f} MB  identical={identical}"
    )
    print(f"[report written to {args.out}]")

    if not identical:
        print("FAIL: warm answers diverge from the cold build", file=sys.stderr)
        return 1
    if speedup < SPEEDUP_TARGET:
        print(
            f"FAIL: speedup {speedup:.1f}x below the {SPEEDUP_TARGET:.0f}x target",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
