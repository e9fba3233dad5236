"""Parallel and mixed batch query execution.

The paper measures single queries; deployments run *batches* (the
workload generator samples 100 ranges per parameter point).  Queries
against one prebuilt :class:`~repro.core.index.CoreIndex` are
independent and read-only, so they parallelise across processes: the
``processes=`` path hands the planned batch to a
:class:`~repro.serve.parallel.WorkerPool` whose workers attach to a
shared :class:`~repro.store.index_store.IndexStore` by mmap — the graph
and index are persisted once by the parent and *opened* (never pickled,
never rebuilt) by every worker.

The sequential path fetches its index through a
:class:`~repro.core.index.CoreIndexRegistry` (the process-wide default
unless one is passed), so consecutive batches against the same graph and
``k`` reuse the same index — the "build once, serve many ranges"
deployment shape — and answers every range of a ``(graph, k)`` group
through :meth:`CoreIndex.query_batch
<repro.core.index.CoreIndex.query_batch>`, i.e. through the serving
planner (:mod:`repro.serve`): identical ranges are deduped, overlapping
ranges merge into covering windows enumerated once and sliced per
query, and one vectorised ``searchsorted`` sweep locates all covering
windows in the shared start-sorted skyline view.  An
:class:`~repro.store.index_store.IndexStore` may be supplied so cache
misses warm-start from disk before computing.

Real batch traffic also mixes *many* ``k`` values and graphs:
:func:`run_mixed_batch` takes heterogeneous ``(graph, k, range)``
queries, groups them by graph, and resolves each graph's distinct ``k``
values in one :meth:`~repro.core.index.CoreIndexRegistry.get_many` call
— store fallthrough first, then a single shared decremental scan for
everything still missing — before answering in input order.

For small workloads the pool start-up dwarfs the queries — callers
should batch at least a few dozen ranges or stay sequential; the
``processes=None`` default means "sequential", making parallelism a
deliberate opt-in.  (Earlier revisions shipped the full edge list into
each worker and rebuilt the index per worker; that initializer is gone
— the store-backed pool is strictly cheaper and answers identically.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.index import CoreIndexRegistry, DEFAULT_REGISTRY, get_core_index
from repro.errors import InvalidParameterError
from repro.graph.temporal_graph import TemporalGraph
from repro.serve.executor import execute_plan
from repro.serve.planner import QueryRequest, plan_queries

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.serve.parallel import WorkerPool
    from repro.store.index_store import IndexStore


@dataclass(frozen=True)
class BatchAnswer:
    """Counters of one query in a batch (results are not shipped back
    across the process boundary; re-run locally for materialised cores).

    ``k`` is populated by the mixed-batch runner, where it varies per
    query; the fixed-``k`` runners leave it ``None``.
    """

    time_range: tuple[int, int]
    num_results: int
    total_edges: int
    k: int | None = None


def run_query_batch(
    graph: TemporalGraph,
    k: int,
    ranges: list[tuple[int, int]],
    *,
    processes: int | None = None,
    parallel: "WorkerPool | None" = None,
    registry: CoreIndexRegistry | None = None,
    store: "IndexStore | None" = None,
) -> list[BatchAnswer]:
    """Answer every range (count-only) against one shared index.

    ``processes=None`` runs sequentially in-process, fetching the index
    from ``registry`` (default: the process-wide registry) so repeated
    batches on the same graph hit the cache; ``processes >= 1`` fans the
    planned covering windows out over a store-backed
    :class:`~repro.serve.parallel.WorkerPool` — the index is persisted
    once into an ephemeral store and every worker attaches to it by
    mmap (no per-worker build, no pickled edges).  Answers come back in
    input order either way.  Callers that serve many batches should
    keep their own pool and pass it as ``parallel`` instead, so the
    worker processes and their mmap attachments persist across calls
    (``processes`` is then ignored).

    ``store`` makes the sequential path's cache miss fall through to the
    on-disk index store (fingerprint match) before computing, so a batch
    served by a freshly booted process warm-starts from the last
    prebuild instead of paying Algorithm 2.  With ``processes=``, it
    also becomes the pool's shared store (workers attach to it
    directly) instead of an ephemeral temp directory.

    Registry caching pins the graph (plus its compiled arrays and index)
    until LRU eviction, and makes a repeated batch skip the index build.
    When timing cold-start behaviour or working with graphs too large to
    keep resident, pass a dedicated ``CoreIndexRegistry`` and drop it
    afterwards.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if processes is not None and processes < 1:
        raise InvalidParameterError(f"processes must be >= 1, got {processes}")
    if not ranges:
        return []
    for ts, te in ranges:
        graph.check_window(ts, te)

    index = get_core_index(graph, k, registry=registry, store=store)
    if parallel is None and processes is not None:
        from repro.serve.parallel import open_pool

        with open_pool(processes, store=store) as pool:
            results = index.query_batch(ranges, parallel=pool)
    else:
        results = index.query_batch(ranges, parallel=parallel)
    return [
        BatchAnswer((ts, te), result.num_results, result.total_edges)
        for (ts, te), result in zip(ranges, results)
    ]


def run_mixed_batch(
    queries: list[tuple[TemporalGraph, int, tuple[int, int]]],
    *,
    registry: CoreIndexRegistry | None = None,
    store: "IndexStore | None" = None,
    parallel: "WorkerPool | None" = None,
) -> list[BatchAnswer]:
    """Answer heterogeneous ``(graph, k, (ts, te))`` queries (count-only).

    The mixed-``k`` serving path: queries are grouped by graph
    (identity), each graph's distinct ``k`` values are resolved in one
    :meth:`CoreIndexRegistry.get_many` call — registry cache, then
    ``store`` fallthrough, then **one** shared decremental scan for all
    still-missing ``k`` — and every ``(graph, k)`` group's ranges are
    answered together through :meth:`CoreIndex.query_batch
    <repro.core.index.CoreIndex.query_batch>` (one vectorised cut sweep
    over the group's shared sorted skyline view).  Answers come back in
    input order, each carrying its ``k``.

    A batch mixing four ``k`` values against a cold graph therefore
    costs one multi-``k`` build, not four Algorithm-2 runs; with a
    prebuilt store it costs zero.  ``parallel`` fans the plan's
    covering windows — across *all* its ``(graph, k)`` groups — out
    over a :class:`~repro.serve.parallel.WorkerPool`.
    """
    if not queries:
        return []
    for graph, k, (ts, te) in queries:
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        graph.check_window(ts, te)

    target = registry if registry is not None else DEFAULT_REGISTRY
    graphs: dict[int, TemporalGraph] = {}
    ks_by_graph: dict[int, list[int]] = {}
    for graph, k, _range in queries:
        gid = id(graph)
        graphs[gid] = graph
        ks = ks_by_graph.setdefault(gid, [])
        if k not in ks:
            ks.append(k)
    # Prefetch: one get_many per graph keeps the shared multi-k build
    # (and the store fallthrough); the executor below then resolves
    # every plan group straight from the registry cache.
    for gid, ks in ks_by_graph.items():
        target.get_many(graphs[gid], ks, store=store)

    plan = plan_queries(
        [QueryRequest(graph, k, ts, te) for graph, k, (ts, te) in queries],
        engine="index",
    )
    results = execute_plan(plan, registry=target, store=store, parallel=parallel)
    return [
        BatchAnswer(query[2], result.num_results, result.total_edges, query[1])
        for query, result in zip(queries, results)
    ]
