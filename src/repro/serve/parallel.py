"""Process-parallel plan execution over the shared mmap store.

One Python process executes one covering window at a time; everything
else about serving (the planner, the store, the columnar walk) is
already shaped for fan-out: plans are inert data, covering windows are
independent units of work, and the :class:`~repro.store.index_store
.IndexStore` gives every process on the machine the *same* flat index
arrays by mmap — zero copy, no pickled edges, no per-worker rebuild.
:class:`WorkerPool` is the executor tier that exploits that:

* **Workers attach, they never build.**  The pool initialiser opens the
  store directory in each worker; graphs and their flat
  ``VertexCoreTimeIndex``/``EdgeCoreSkyline`` arrays are loaded lazily by
  store key straight off the blob mappings and cached in a per-worker
  registry.  The parent persists whatever a plan needs (graph blobs,
  index blobs) before dispatching, so a worker's load is always a
  fingerprint-matched mmap open.
* **Work is partitioned by estimated cost.**  Covering windows are
  packed into chunks greedily, largest first (LPT): an ``index``
  window's cost is the number of skyline windows inside its vectorised
  cut (``start_cuts``), a ``direct`` window's its length.  Chunks are
  dispatched in descending cost order, so one giant window runs on one
  worker while the others drain the rest of the batch instead of
  queueing behind it.
* **Results come back columnar.**  A counting request ships three ints;
  a collecting request (or one carrying its own sink) ships the walk's
  per-start-time batches ``(t, ends, prefix_lens, eids)``, which the
  parent replays through the request's sink — custom sinks (NDJSON,
  flat arrays, callbacks) keep working unchanged, in input order.
* **Small plans stay sequential.**  A plan with fewer covering windows
  than ``min_parallel_windows`` (or whose graph cannot be persisted to
  the store) is executed in-process by the ordinary
  :func:`~repro.serve.executor.execute_plan` path — the pool dispatch
  only pays when there is enough independent work to amortise it.
* **Dead workers do not lose the batch.**  A worker SIGKILL'd mid-chunk
  breaks the pool; the pool is rebuilt and the unfinished chunks are
  re-dispatched (chunks are idempotent — nothing escapes a worker until
  its chunk returns).  After ``max_restarts`` rebuilds the remaining
  chunks run sequentially in the parent instead — a crashing batch
  degrades to slow, never to wrong or lost.

Deadlines travel as remaining-seconds: each chunk is stamped at
dispatch time and workers construct their own :class:`Deadline`, so an
expiring batch aborts in the workers just as it would in-process, and
the affected requests come back ``completed=False``.
"""

from __future__ import annotations

import contextlib
import heapq
import os
import shutil
import signal
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.index import CoreIndex, get_core_index
from repro.core.results import EnumerationResult
from repro.errors import InvalidParameterError, StoreError
from repro.obs.metrics import MetricsRegistry, get_registry, next_instance, timing_enabled
from repro.obs.timing import Deadline, now
from repro.serve.planner import CoveringWindow, PlanGroup, QueryPlan
from repro.serve.sinks import CountSink, MaterializingSink, ResultSink
from repro.store.index_store import IndexStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.index import CoreIndexRegistry
    from repro.graph.temporal_graph import TemporalGraph

#: Request spec inside a chunk: (request id, ts, te, ship_batches).
_ReqSpec = tuple[int, int, int, bool]


@dataclass(frozen=True)
class _Chunk:
    """One dispatchable unit: some covering windows of one plan group.

    Everything here is plain data (store key instead of graph object,
    request ids instead of sinks), so a chunk pickles in microseconds
    and the worker resolves the heavy state through its own mmap-backed
    store attachment.
    """

    engine: str  # "index" | "direct"
    key: str  # store key of the graph directory
    k: int
    windows: tuple[tuple[int, int, tuple[_ReqSpec, ...]], ...]


class _RecordingSink(ResultSink):
    """Capture the walk's batches verbatim for shipment to the parent.

    The columnar walk never mutates an emitted array afterwards (the
    sink contract), so keeping references is enough — pickling across
    the process boundary materialises them anyway.
    """

    def __init__(self) -> None:
        super().__init__()
        self.batches: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []

    def consume(self, t, ends, prefix_lens, eids) -> None:
        self.batches.append((t, ends, prefix_lens, eids))


def _run_chunk(
    chunk: _Chunk,
    graph: "TemporalGraph",
    timeout: float | None,
    *,
    registry: "CoreIndexRegistry | None",
    store: IndexStore | None,
    index: CoreIndex | None = None,
):
    """Execute a chunk's windows; returns one result tuple per request.

    Shared by the worker processes (graph resolved by store key) and the
    parent's degraded sequential retry (graph passed directly, with the
    already-resolved ``index`` pinned).  Result tuples are
    ``(rid, num_results, total_edges, completed, batches | None)``.
    """
    from repro.serve.columnar import run_columnar_walk
    from repro.serve.executor import _SliceRouter, _group_window_arrays

    deadline = Deadline(timeout) if timeout is not None else None
    specs: list[_ReqSpec] = []
    local_windows: list[CoveringWindow] = []
    for ts, te, reqs in chunk.windows:
        first = len(specs)
        specs.extend(reqs)
        local_windows.append(
            CoveringWindow(ts, te, list(range(first, first + len(reqs))))
        )
    sinks: list[ResultSink] = [
        _RecordingSink() if ship else CountSink() for _, _, _, ship in specs
    ]
    group = PlanGroup(graph, chunk.k, chunk.engine, local_windows, index=index)
    for window, arrays in _group_window_arrays(
        group, registry=registry, store=store, deadline=deadline
    ):
        if window.is_shared:
            target: ResultSink = _SliceRouter(
                [
                    (specs[i][1], specs[i][2], sinks[i])
                    for i in window.requests
                ]
            )
        else:
            target = sinks[window.requests[0]]
        if arrays is None:
            target.finish(False)
            continue
        completed = run_columnar_walk(
            window.ts, window.te, arrays, target, deadline=deadline
        )
        target.finish(completed)
    return [
        (
            rid,
            sink.num_results,
            sink.total_edges,
            sink.completed,
            sink.batches if isinstance(sink, _RecordingSink) else None,
        )
        for (rid, _ts, _te, _ship), sink in zip(specs, sinks)
    ]


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------

_WORKER: "_WorkerState | None" = None
_FAULT_PATH: str | None = None


class _WorkerState:
    """Per-worker attachment: store handle, registry, graph cache."""

    def __init__(self, root: str, verify: bool, capacity: int):
        from repro.core.index import CoreIndexRegistry

        self.store = IndexStore(root, verify=verify)
        self.registry = CoreIndexRegistry(capacity=capacity, store=self.store)
        self.graphs: dict[str, "TemporalGraph"] = {}

    def graph(self, key: str) -> "TemporalGraph":
        graph = self.graphs.get(key)
        if graph is None:
            graph = self.store.load_graph(key)
            self.graphs[key] = graph
        return graph


def _worker_init(
    root: str,
    verify: bool,
    capacity: int,
    warm: tuple[tuple[str, int | None], ...],
    fault_path: str | None,
) -> None:
    """Pool initialiser: attach to the store, pre-open the warm set."""
    global _WORKER, _FAULT_PATH
    # Workers are forked from whatever process owns the pool.  An
    # asyncio parent (the serving daemon) has a signal wakeup fd and
    # Python-level SIGTERM/SIGINT handlers installed; both survive the
    # fork, so a signal delivered to a *worker* (e.g. the executor
    # terminating siblings after a broken-pool event) would write into
    # the parent's shared wakeup pipe and masquerade as a parent
    # shutdown request.  Sever that inheritance before doing anything.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _WORKER = _WorkerState(root, verify, capacity)
    _FAULT_PATH = fault_path
    for key, k in warm:
        try:
            graph = _WORKER.graph(key)
            if k is not None:
                _WORKER.registry.get(graph, k)
        except (StoreError, OSError):  # pragma: no cover - racing writer
            continue  # lazy load will retry (or rebuild) at task time


def _maybe_fault() -> None:
    """Test hook: SIGKILL this worker once if the fault file still exists.

    The file is unlinked *before* the kill, so exactly one worker dies
    exactly once — the recovery path re-runs its chunk on a fresh pool.
    """
    if _FAULT_PATH is None or not os.path.exists(_FAULT_PATH):
        return
    try:
        os.unlink(_FAULT_PATH)
    except FileNotFoundError:  # pragma: no cover - lost the unlink race
        return
    os.kill(os.getpid(), signal.SIGKILL)


def _obs_marks(state: "_WorkerState") -> tuple[int, ...]:
    """Counter readings a chunk's observability delta is diffed against."""
    registry, store = state.registry, state.store
    return (
        registry.hits,
        registry.misses,
        registry.store_hits,
        store.stale_takeovers,
        store.stats()["index_load_hits"],
    )


#: Names of the per-worker counters shipped back to the parent, in the
#: order :func:`_obs_marks` reads them.
_OBS_COUNTER_NAMES = (
    "registry_hits",
    "registry_misses",
    "registry_store_hits",
    "store_stale_takeovers",
    "store_index_load_hits",
)


def _worker_run(chunk: _Chunk, timeout: float | None):
    """Execute one chunk in this worker; ``(entries, obs_delta)``.

    ``obs_delta`` is the chunk's contribution to the worker's local
    metrics registry (counter marks diffed around the run, plus the
    chunk's wall time and window count), shipped as a small plain dict
    for the parent to fold into its pool-labelled instruments — worker
    registries live in other processes and would otherwise be invisible
    (and lost entirely on a worker crash, which is why the delta rides
    the chunk-result protocol instead of a shutdown hook).
    """
    _maybe_fault()
    state = _WORKER
    assert state is not None, "worker not initialised"
    before = _obs_marks(state)
    started = now()
    entries = _run_chunk(
        chunk,
        state.graph(chunk.key),
        timeout,
        registry=state.registry,
        store=state.store,
    )
    delta = dict(
        zip(
            _OBS_COUNTER_NAMES,
            (after - mark for after, mark in zip(_obs_marks(state), before)),
        )
    )
    delta["chunk_seconds"] = now() - started
    delta["windows"] = len(chunk.windows)
    return entries, delta


def _worker_ping(delay: float) -> int:
    """Prestart probe: force a worker process up (and report its pid)."""
    time.sleep(delay)
    return os.getpid()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def _partition(
    windows: list[CoveringWindow], costs: list[int], num_chunks: int
) -> list[tuple[list[CoveringWindow], int]]:
    """LPT-pack windows into ``num_chunks`` bins balanced by cost.

    Returns non-empty ``(windows, total_cost)`` bins, heaviest first —
    the dispatch order that keeps a giant window from serialising the
    batch behind it.
    """
    bins: list[list[CoveringWindow]] = [[] for _ in range(num_chunks)]
    totals = [0] * num_chunks
    heap = [(0, j) for j in range(num_chunks)]
    for position in sorted(
        range(len(windows)), key=lambda i: costs[i], reverse=True
    ):
        total, j = heapq.heappop(heap)
        bins[j].append(windows[position])
        totals[j] = total + max(int(costs[position]), 1)
        heapq.heappush(heap, (totals[j], j))
    packed = [
        (bins[j], totals[j]) for j in range(num_chunks) if bins[j]
    ]
    packed.sort(key=lambda item: item[1], reverse=True)
    return packed


class WorkerPool:
    """A persistent pool of store-attached processes executing plans.

    Parameters
    ----------
    store:
        The shared :class:`IndexStore` (or its root path) every worker
        attaches to.  The pool persists graphs and indexes a plan needs
        into it before dispatching, so workers always mmap, never build.
    processes:
        Worker count (default: the machine's CPU count).
    min_parallel_windows:
        Plans with fewer covering windows than this run sequentially
        in-process — pool dispatch only pays off once a batch holds
        several independent windows (set to ``0`` to force dispatch).
    chunks_per_worker:
        Partitioning granularity: windows are packed into up to
        ``processes * chunks_per_worker`` chunks per plan group, which
        bounds per-chunk dispatch overhead while leaving enough pieces
        for balancing.
    verify:
        Whether workers checksum blob payloads on open (see
        :class:`IndexStore`).
    worker_capacity:
        Each worker's registry capacity (attached indexes kept live).
    max_restarts:
        Pool rebuilds tolerated per :meth:`execute` before the remaining
        chunks degrade to sequential parent-side execution.

    Counters: ``tasks_dispatched``, ``sequential_fallbacks`` and
    ``broken_restarts`` expose what the pool actually did — benchmarks
    and tests assert against them.  Since PR 7 they are views over the
    process metrics registry (series labelled with this pool's
    ``pool`` instance label); :meth:`stats` returns the whole
    bookkeeping as one dict, including the per-worker counters each
    chunk ships home and the ``tasks_dispatched == chunks_completed +
    chunks_lost`` crash accounting.

    The pool is a context manager; :meth:`close` shuts the workers down.
    Thread-safety: like the executor it is a single-dispatcher object —
    call :meth:`execute` from one thread at a time.
    """

    def __init__(
        self,
        store: IndexStore | str | os.PathLike,
        *,
        processes: int | None = None,
        min_parallel_windows: int = 2,
        chunks_per_worker: int = 2,
        verify: bool = True,
        worker_capacity: int = 16,
        max_restarts: int = 2,
        metrics: "MetricsRegistry | None" = None,
        _fault_path: str | None = None,
    ):
        if processes is not None and processes < 1:
            raise InvalidParameterError(
                f"processes must be >= 1, got {processes}"
            )
        if min_parallel_windows < 0:
            raise InvalidParameterError(
                f"min_parallel_windows must be >= 0, got {min_parallel_windows}"
            )
        if chunks_per_worker < 1:
            raise InvalidParameterError(
                f"chunks_per_worker must be >= 1, got {chunks_per_worker}"
            )
        self.store = store if isinstance(store, IndexStore) else IndexStore(store)
        self.processes = processes if processes else max(1, os.cpu_count() or 1)
        self.min_parallel_windows = min_parallel_windows
        self.chunks_per_worker = chunks_per_worker
        self.verify = verify
        self.worker_capacity = worker_capacity
        self.max_restarts = max_restarts
        self._fault_path = _fault_path
        self._executor: ProcessPoolExecutor | None = None
        # id(graph) -> (graph, key); holding the graph pins the id.
        self._keys: dict[int, tuple["TemporalGraph", str]] = {}
        self._persisted: set[tuple[str, int]] = set()
        self._warm: list[tuple[str, int | None]] = []
        # Pool bookkeeping lives in the metrics registry (the process
        # default unless ``metrics=`` isolates it); the legacy counter
        # attributes read back through it.
        self.metrics = metrics if metrics is not None else get_registry()
        self.instance = next_instance("pool")
        m, inst = self.metrics, self.instance
        self._c_tasks_dispatched = m.counter(
            "repro_pool_tasks_dispatched_total",
            "Chunks submitted to worker processes",
            ("pool",),
        ).labels(inst)
        self._c_sequential_fallbacks = m.counter(
            "repro_pool_sequential_fallbacks_total",
            "Plans served in-process (too small, or unpersistable graph)",
            ("pool",),
        ).labels(inst)
        self._c_broken_restarts = m.counter(
            "repro_pool_broken_restarts_total",
            "Pool rebuilds after a worker death",
            ("pool",),
        ).labels(inst)
        self._c_chunks_lost = m.counter(
            "repro_pool_chunks_lost_total",
            "Dispatched chunks lost to worker deaths (later re-run)",
            ("pool",),
        ).labels(inst)
        chunks_completed = m.counter(
            "repro_pool_chunks_completed_total",
            "Chunks finished, by where they ran (worker or degraded parent)",
            ("pool", "where"),
        )
        self._c_chunks_worker = chunks_completed.labels(inst, "worker")
        self._c_chunks_parent = chunks_completed.labels(inst, "parent")
        self._worker_counters = m.counter(
            "repro_pool_worker_counters_total",
            "Per-worker registry/store counters aggregated from chunk deltas",
            ("pool", "counter"),
        )
        self._h_chunk_seconds = m.histogram(
            "repro_pool_chunk_seconds",
            "Chunk wall time as measured where the chunk ran",
            ("pool",),
        ).labels(inst)

    def __repr__(self) -> str:
        return (
            f"WorkerPool({str(self.store.root)!r}, processes={self.processes}, "
            f"dispatched={self.tasks_dispatched})"
        )

    # -- legacy counter attributes, now views over the metrics registry --

    @property
    def tasks_dispatched(self) -> int:
        return int(self._c_tasks_dispatched.value)

    @property
    def sequential_fallbacks(self) -> int:
        return int(self._c_sequential_fallbacks.value)

    @property
    def broken_restarts(self) -> int:
        return int(self._c_broken_restarts.value)

    @property
    def chunks_lost(self) -> int:
        return int(self._c_chunks_lost.value)

    def stats(self) -> dict:
        """The pool's bookkeeping as one dict view over the registry.

        ``chunks_completed`` splits finished chunks by where they ran;
        ``tasks_dispatched == chunks_completed["worker"] + chunks_lost``
        always holds (lost chunks re-run as fresh dispatches, or in the
        parent once restarts are exhausted).  ``worker_counters`` are
        the per-worker registry/store counters each chunk ships home —
        present even for chunks whose worker later died, because the
        delta rides the chunk-result protocol.
        """
        worker_counters = {
            key[1]: int(child.value)
            for key, child in self._worker_counters.items()
            if key[0] == self.instance
        }
        return {
            "processes": self.processes,
            "tasks_dispatched": self.tasks_dispatched,
            "sequential_fallbacks": self.sequential_fallbacks,
            "broken_restarts": self.broken_restarts,
            "chunks_lost": self.chunks_lost,
            "chunks_completed": {
                "worker": int(self._c_chunks_worker.value),
                "parent": int(self._c_chunks_parent.value),
            },
            "worker_counters": worker_counters,
        }

    def _merge_worker_delta(self, delta: dict) -> None:
        """Fold one chunk's shipped observability delta into the pool."""
        for name in _OBS_COUNTER_NAMES:
            amount = delta.get(name, 0)
            if amount:
                self._worker_counters.labels(self.instance, name).inc(amount)
        windows = delta.get("windows", 0)
        if windows:
            self._worker_counters.labels(self.instance, "windows").inc(windows)
        if timing_enabled():
            self._h_chunk_seconds.observe(delta.get("chunk_seconds", 0.0))

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker processes down (the pool can be reused after)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    # ------------------------------------------------------------------
    # Store preparation
    # ------------------------------------------------------------------

    def ensure_graph(self, graph: "TemporalGraph") -> str:
        """Persist ``graph`` into the pool store (idempotent); its key.

        Raises :class:`StoreError` for graphs the store cannot hold
        (non-``str``/``int`` labels) — :meth:`execute` catches that and
        degrades to sequential in-process execution.
        """
        cached = self._keys.get(id(graph))
        if cached is not None and cached[0] is graph:
            return cached[1]
        key = self.store.save_graph(graph)
        self._keys[id(graph)] = (graph, key)
        if (key, None) not in self._warm:
            self._warm.append((key, None))
        return key

    def ensure_index(self, index: CoreIndex) -> str:
        """Persist ``index`` (and its graph) into the pool store; the key.

        Already-persisted ``(key, k)`` pairs are remembered, so the
        steady state costs one set lookup — no manifest probe, no blob
        write.  Freshly persisted pairs join the warm list handed to
        newly spawned workers.
        """
        key = self.ensure_graph(index.graph)
        pair = (key, index.k)
        if pair not in self._persisted:
            if not self.store.has_index(index.graph, index.k, key=key):
                self.store.save_index(index, name=key)
            self._persisted.add(pair)
            self._warm.append(pair)
        return key

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.processes,
                initializer=_worker_init,
                initargs=(
                    str(self.store.root),
                    self.verify,
                    self.worker_capacity,
                    tuple(self._warm),
                    self._fault_path,
                ),
            )
        return self._executor

    def prestart(self) -> list[int]:
        """Spawn every worker now (mmap attach included); their pids.

        Benchmarks and latency-sensitive callers pay the interpreter
        start-up and store attachment up front instead of inside the
        first measured batch.  The slight ping delay keeps the executor
        from serving all probes from one eagerly recycled worker.
        """
        executor = self._ensure_executor()
        futures = [
            executor.submit(_worker_ping, 0.05) for _ in range(self.processes)
        ]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _prepare_group(
        self, group: PlanGroup, registry: "CoreIndexRegistry | None"
    ) -> tuple[str, CoreIndex | None, list[int]]:
        """Persist what the group needs; ``(key, index, window costs)``.

        ``index`` groups resolve their shared index parent-side (pinned
        on the group, else registry → store → build) exactly once, and
        its skyline's vectorised ``start_cuts`` yield every covering
        window's cost estimate — the count of skyline windows in the
        cut, which is what the walk streams.  ``direct`` windows cost
        their length (Algorithm 2 scans the window).
        """
        if group.engine == "index":
            index = group.index
            if index is None:
                index = get_core_index(
                    group.graph, group.k, registry=registry, store=self.store
                )
            key = self.ensure_index(index)
            los, his = index.ecs.start_cuts(
                [window.ts for window in group.windows],
                [window.te for window in group.windows],
            )
            costs = [int(cost) for cost in (his - los)]
            return key, index, costs
        key = self.ensure_graph(group.graph)
        costs = [window.te - window.ts + 1 for window in group.windows]
        return key, None, costs

    def execute(
        self,
        plan: QueryPlan,
        *,
        registry: "CoreIndexRegistry | None" = None,
        collect: bool = False,
        deadline: Deadline | None = None,
    ) -> list[EnumerationResult]:
        """Run ``plan`` across the pool; one result per request, in order.

        The parallel twin of :func:`~repro.serve.executor.execute_plan`
        (which forwards here when called with ``parallel=``): same
        arguments, same results, same sink semantics.  Plans below the
        ``min_parallel_windows`` threshold — and plans whose graph the
        store cannot persist — run sequentially in-process instead.
        """
        from repro.serve.executor import execute_plan

        if plan.num_windows < self.min_parallel_windows:
            self._c_sequential_fallbacks.inc()
            return execute_plan(
                plan,
                registry=registry,
                store=self.store,
                collect=collect,
                deadline=deadline,
            )
        try:
            prepared = [
                self._prepare_group(group, registry) for group in plan.groups
            ]
        except (StoreError, OSError):
            # The store cannot hold this plan's graphs (labels, disk):
            # serve correctly in-process rather than fail the batch.
            self._c_sequential_fallbacks.inc()
            return execute_plan(
                plan, registry=registry, collect=collect, deadline=deadline
            )

        chunks: list[_Chunk] = []
        context: list[tuple["TemporalGraph", CoreIndex | None]] = []
        for group, (key, index, costs) in zip(plan.groups, prepared):
            num_chunks = min(
                len(group.windows), self.processes * self.chunks_per_worker
            )
            for windows, _cost in _partition(group.windows, costs, num_chunks):
                chunks.append(
                    _Chunk(
                        group.engine,
                        key,
                        group.k,
                        tuple(
                            (
                                window.ts,
                                window.te,
                                tuple(
                                    (
                                        rid,
                                        plan.requests[rid].ts,
                                        plan.requests[rid].te,
                                        collect
                                        or plan.requests[rid].sink is not None,
                                    )
                                    for rid in window.requests
                                ),
                            )
                            for window in windows
                        ),
                    )
                )
                context.append((group.graph, index))

        results = self._dispatch(chunks, context, registry, deadline)

        sinks: list[ResultSink] = [
            request.sink
            if request.sink is not None
            else (MaterializingSink() if collect else CountSink())
            for request in plan.requests
        ]
        for rid, sink in enumerate(sinks):
            num, total, completed, batches = results[rid]
            if batches is not None:
                for t, ends, prefix_lens, eids in batches:
                    sink.emit(t, ends, prefix_lens, eids)
            else:
                sink.num_results += num
                sink.total_edges += total
            sink.finish(completed)
        return [
            sink.result("enum", request.k, request.time_range)
            for request, sink in zip(plan.requests, sinks)
        ]

    def _dispatch(
        self,
        chunks: list[_Chunk],
        context: list[tuple["TemporalGraph", CoreIndex | None]],
        registry: "CoreIndexRegistry | None",
        deadline: Deadline | None,
    ) -> dict[int, tuple[int, int, int | bool, list | None]]:
        """Run every chunk, surviving worker deaths; results per request.

        Chunks are idempotent (nothing leaves a worker until its chunk
        returns), so a :class:`BrokenProcessPool` simply re-dispatches
        whatever had not finished on a fresh pool; after
        ``max_restarts`` rebuilds the leftovers run in the parent.

        Accounting survives the crashes: every dispatched-but-broken
        chunk is recorded in ``chunks_lost`` (whether its future broke
        at submit or result time), so ``tasks_dispatched`` always equals
        worker-completed chunks plus lost ones, and a recovered batch's
        re-run work is never silently folded into the original
        dispatch counts.  Degraded parent-side runs count under
        ``chunks_completed{where="parent"}`` — their registry/store
        activity lands directly on the parent's own instruments, so
        only the chunk itself is recorded here.
        """
        results: dict[int, tuple] = {}
        pending = list(range(len(chunks)))
        restarts = 0
        while pending:
            if restarts > self.max_restarts:
                for ci in pending:
                    graph, index = context[ci]
                    timeout = deadline.remaining if deadline else None
                    started = now()
                    for entry in _run_chunk(
                        chunks[ci],
                        graph,
                        timeout,
                        registry=registry,
                        store=self.store,
                        index=index,
                    ):
                        results[entry[0]] = entry[1:]
                    self._c_chunks_parent.inc()
                    if timing_enabled():
                        self._h_chunk_seconds.observe(now() - started)
                break
            executor = self._ensure_executor()
            broken: list[int] = []
            futures = []
            try:
                for ci in pending:
                    timeout = deadline.remaining if deadline else None
                    futures.append(
                        (executor.submit(_worker_run, chunks[ci], timeout), ci)
                    )
                    self._c_tasks_dispatched.inc()
            except BrokenProcessPool:
                # The pool died while we were still submitting: whatever
                # was not yet submitted retries with the rest.  The
                # already-submitted futures were dispatched and are now
                # lost with the pool.
                broken.extend(ci for _, ci in futures)
                broken.extend(pending[len(futures):])
                self._c_chunks_lost.inc(len(futures))
                futures = []
            for future, ci in futures:
                try:
                    entries, delta = future.result()
                except BrokenProcessPool:
                    broken.append(ci)
                    self._c_chunks_lost.inc()
                    continue
                for entry in entries:
                    results[entry[0]] = entry[1:]
                self._c_chunks_worker.inc()
                self._merge_worker_delta(delta)
            if broken:
                restarts += 1
                self._c_broken_restarts.inc()
                self.close()  # rebuild on next loop with the warm list
            pending = broken
        return results


@contextlib.contextmanager
def open_pool(
    processes: int | None = None,
    *,
    store: IndexStore | str | os.PathLike | None = None,
    **kwargs,
):
    """A :class:`WorkerPool` as a context — over ``store`` or a temp one.

    Without ``store`` an ephemeral store directory is created for the
    pool's lifetime and removed afterwards — the shape behind the legacy
    ``run_query_batch(processes=N)`` signature, where the caller has no
    store of their own but still wants the zero-copy fan-out (the
    parent persists once; workers attach by mmap).
    """
    tmp = None
    if store is None:
        tmp = tempfile.mkdtemp(prefix="repro-pool-")
        store = tmp
    try:
        pool = WorkerPool(store, processes=processes, **kwargs)
        try:
            yield pool
        finally:
            pool.close()
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
