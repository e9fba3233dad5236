"""The experiment harness: timed, deadline-guarded algorithm runs.

Mirrors the paper's measurement protocol (Section VI):

* every parameter point runs a workload of random query ranges that are
  guaranteed to contain at least one temporal k-core;
* each algorithm gets a per-query soft time limit; expiries are recorded
  as DNFs exactly like the paper reports OTCD timeouts;
* the core-time precomputation (Algorithm 2) is timed separately from
  the enumeration phases, since Figure 6 plots *CoreTime*, *EnumBase*
  and *Enum* as separate series sharing the precomputation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.baselines.otcd import enumerate_otcd
from repro.bench.memory import measure_peak_memory
from repro.bench.workloads import Workload, build_workload
from repro.core.coretime import compute_core_times
from repro.core.enumbase import enumerate_temporal_kcores_base
from repro.core.enumerate import enumerate_temporal_kcores
from repro.datasets.registry import load_dataset
from repro.datasets.stats import compute_stats
from repro.errors import BenchmarkError
from repro.obs.timing import Deadline

#: Engines of the main comparison (Figure 6's series).
FIG6_ENGINES = ("otcd", "coretime", "enumbase", "enum")


@dataclass
class QueryRecord:
    """One (engine, query range) measurement."""

    engine: str
    time_range: tuple[int, int]
    seconds: float
    completed: bool
    num_results: int = 0
    total_edges: int = 0
    peak_bytes: int = 0
    vct_size: int = 0
    ecs_size: int = 0


@dataclass
class EngineSummary:
    """Aggregate over a workload for one engine."""

    engine: str
    records: list[QueryRecord] = field(default_factory=list)

    @property
    def num_queries(self) -> int:
        return len(self.records)

    @property
    def num_dnf(self) -> int:
        return sum(1 for r in self.records if not r.completed)

    @property
    def mean_seconds(self) -> float | None:
        """Mean wall-clock over *completed* queries (None if all DNF)."""
        done = [r.seconds for r in self.records if r.completed]
        return sum(done) / len(done) if done else None

    @property
    def mean_results(self) -> float:
        done = [r.num_results for r in self.records if r.completed]
        return sum(done) / len(done) if done else math.nan

    @property
    def mean_total_edges(self) -> float:
        done = [r.total_edges for r in self.records if r.completed]
        return sum(done) / len(done) if done else math.nan

    @property
    def mean_peak_bytes(self) -> float:
        done = [r.peak_bytes for r in self.records if r.completed]
        return sum(done) / len(done) if done else math.nan


def _run_engine_once(
    graph,
    engine: str,
    k: int,
    ts: int,
    te: int,
    timeout: float | None,
    collect: bool,
) -> QueryRecord:
    """One timed run of one engine on one query range."""
    deadline = Deadline(timeout) if timeout is not None else None
    t0 = time.perf_counter()
    if engine == "coretime":
        result_ct = compute_core_times(graph, k, ts, te)
        seconds = time.perf_counter() - t0
        assert result_ct.ecs is not None
        return QueryRecord(
            engine,
            (ts, te),
            seconds,
            completed=True,
            vct_size=result_ct.vct.size(),
            ecs_size=result_ct.ecs.size(),
        )
    if engine in ("enum", "enumbase"):
        # The enumeration phases include the skyline computation they
        # depend on, matching the paper's Enum+CoreTime totals; the
        # harness also exposes the bare CoreTime cost via the engine
        # above so the split can be reported.
        ct = compute_core_times(graph, k, ts, te)
        if engine == "enum":
            result = enumerate_temporal_kcores(
                graph, k, ts, te, skyline=ct.ecs, collect=collect, deadline=deadline
            )
        else:
            # Cap EnumBase's de-duplication table (~300 MB) so its
            # characteristic memory blow-up registers as a DNF instead of
            # taking the process down, mirroring the paper's failures.
            result = enumerate_temporal_kcores_base(
                graph, k, ts, te, skyline=ct.ecs, collect=collect,
                deadline=deadline, max_stored_edges=20_000_000,
            )
    elif engine == "otcd":
        result = enumerate_otcd(
            graph, k, ts, te, collect=collect, deadline=deadline
        )
    elif engine == "otcd-nopruning":
        result = enumerate_otcd(
            graph, k, ts, te, use_pruning=False, collect=collect, deadline=deadline
        )
    else:
        raise BenchmarkError(f"unknown engine {engine!r}")
    seconds = time.perf_counter() - t0
    return QueryRecord(
        engine,
        (ts, te),
        seconds,
        completed=result.completed,
        num_results=result.num_results,
        total_edges=result.total_edges,
    )


def run_workload(
    graph,
    workload: Workload,
    engines: tuple[str, ...] = FIG6_ENGINES,
    *,
    timeout: float | None = 15.0,
    collect: bool = False,
    measure_memory: bool = False,
) -> dict[str, EngineSummary]:
    """Run every engine over every query range of a workload."""
    summaries = {engine: EngineSummary(engine) for engine in engines}
    # Build the graph's compiled view untimed: otherwise the first engine
    # call pays it, and the first record (CoreTime's, in Fig 6) reports it.
    graph.compiled()
    for ts, te in workload.ranges:
        for engine in engines:
            if measure_memory:
                record, peak = measure_peak_memory(
                    lambda: _run_engine_once(
                        graph, engine, workload.k, ts, te, timeout, collect
                    )
                )
                record.peak_bytes = peak
            else:
                record = _run_engine_once(
                    graph, engine, workload.k, ts, te, timeout, collect
                )
            summaries[engine].records.append(record)
    return summaries


def run_dataset_point(
    dataset: str,
    *,
    k_fraction: float = 0.3,
    range_fraction: float = 0.1,
    num_queries: int = 3,
    engines: tuple[str, ...] = FIG6_ENGINES,
    timeout: float | None = 15.0,
    seed: int = 0,
    collect: bool = False,
    measure_memory: bool = False,
) -> tuple[Workload, dict[str, EngineSummary]]:
    """Full pipeline for one (dataset, k%, range%) parameter point."""
    graph = load_dataset(dataset)
    stats = compute_stats(graph)
    workload = build_workload(
        graph,
        dataset,
        k_fraction=k_fraction,
        range_fraction=range_fraction,
        num_queries=num_queries,
        seed=seed,
        stats=stats,
    )
    summaries = run_workload(
        graph,
        workload,
        engines,
        timeout=timeout,
        collect=collect,
        measure_memory=measure_memory,
    )
    return workload, summaries
