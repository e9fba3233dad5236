"""Span-recording shims installed from outside the program.

:func:`install` replaces the layer entry points the benchmark attributes
time to — at the attributes their callers resolve — with wrappers that
record one span per call: name, start, end, parent span (per thread)
and a few attributes read from the arguments or the result.  Nothing
under ``src/`` changes; the shims only exist in a traced process.

Recording is off until :attr:`Recorder.enabled` is set, so one process
can measure a stretch untraced and then a stretch traced (the traced
run's ``trace.overhead_frac`` compares the two).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time


class Recorder:
    """In-memory span list; appended from any thread."""

    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None, when=None):
        """``fn`` recording a ``name`` span per call.

        ``attrs(args, kwargs, result)`` adds attributes after a normal
        return; an exception records its type (and a ``reason`` when it
        carries one, as :class:`FoldFallback` does).  ``when(args)``
        gates recording per call.
        """

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not self.enabled or (when is not None and not when(args)):
                return fn(*args, **kwargs)
            stack = self._stack()
            span = {"id": next(self._ids), "parent": stack[-1] if stack else None,
                    "name": name, "attrs": {}}
            stack.append(span["id"])
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["attrs"]["error"] = type(exc).__name__
                reason = getattr(exc, "reason", None)
                if reason is not None:
                    span["attrs"]["reason"] = reason
                raise
            else:
                if attrs is not None:
                    span["attrs"].update(attrs(args, kwargs, result))
                return result
            finally:
                span["t1"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)

        return shim

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _kernel_attrs(args, kwargs, result):
    graph = args[0]
    ts = kwargs.get("ts", args[2] if len(args) > 2 else None)
    te = kwargs.get("te", args[3] if len(args) > 3 else None)
    ts = 1 if ts is None else ts
    te = graph.tmax if te is None else te
    results = result.values() if isinstance(result, dict) else [result]
    vct = ecs = 0
    for res in results:
        vct += res.vct.size()
        ecs += res.ecs.size() if res.ecs is not None else 0
    levels = len(result) if isinstance(result, dict) else 1
    return {"ts": ts, "te": te, "levels": levels, "vct": vct, "ecs": ecs}


def _plan_attrs(args, kwargs, plan):
    return {key: plan.stats.get(key, 0) for key in ("requests", "windows", "deduped", "merged")}


def _execute_attrs(args, kwargs, results):
    plan = args[0]
    return {
        "cores": sum(r.num_results for r in results),
        "edges": sum(r.total_edges for r in results),
        "engines": sorted({group.engine for group in plan.groups}),
    }


def _fold_attrs(args, kwargs, result):
    report = result.report
    return {
        "fold_start": report.fold_start,
        "span_end": report.span_end,
        "window_fraction": report.window_fraction,
        "cascade": report.cascade_vertices,
        "delta": report.delta_edges,
    }


def _save_graph_attrs(args, kwargs, key):
    store = args[0]
    directory = store.root / key
    name = store.manifest(key).get("graph_file", "graph.bin")
    return {"bytes": os.path.getsize(directory / name)}


def _save_index_attrs(args, kwargs, key):
    store, index = args[0], args[1]
    return {"bytes": os.path.getsize(store.root / key / f"k{index.k}.idx")}


def _append_attrs(args, kwargs, result):
    return {"edges": result[1]}


def install(recorder: Recorder) -> None:
    """Replace every traced callable with its recording shim."""
    import repro.core.coretime as coretime
    import repro.core.enumerate as enumerate_mod
    import repro.core.incremental as incremental
    import repro.core.index as index_mod
    import repro.core.multik as multik
    import repro.serve.daemon as daemon
    import repro.serve.executor as executor
    import repro.serve.planner as planner
    from repro.core.windows import EdgeCoreSkyline
    from repro.graph.temporal_graph import TemporalGraph
    from repro.store.index_store import IndexStore
    from repro.store.wal import WriteAheadLog

    wrap = recorder.wrap

    def patch(owner, attr, name, attrs=None, when=None):
        setattr(owner, attr, wrap(name, getattr(owner, attr), attrs, when))

    # graph
    patch(TemporalGraph, "__init__", "graph.build")
    patch(TemporalGraph, "compiled", "graph.compile",
          when=lambda args: args[0]._compiled_cache is None)
    # kernel: every binding a caller resolves
    patch(multik, "compute_core_times_multi", "kernel", _kernel_attrs)
    for module in (multik, index_mod, coretime, enumerate_mod):
        patch(module, "compute_core_times", "kernel", _kernel_attrs)
    # enumerate / walk
    for module in (executor, enumerate_mod):
        patch(module, "run_columnar_walk", "walk")
    # planner / executor, both where the daemon bound them and where
    # lazy importers (CoreIndex.query_batch, TimeRangeCoreQuery) find them
    patch(daemon, "plan_for_index", "plan", _plan_attrs)
    patch(planner, "plan_for_index", "plan", _plan_attrs)
    patch(planner, "plan_queries", "plan", _plan_attrs)
    patch(daemon, "execute_plan", "execute", _execute_attrs)
    patch(executor, "execute_plan", "execute", _execute_attrs)
    for attr in ("start_cuts", "selection_from_cut", "active_arrays_from_selection",
                 "active_window_arrays"):
        patch(EdgeCoreSkyline, attr, "cut")
    patch(index_mod.CoreIndexRegistry, "get", "registry.get")
    # fold
    patch(incremental, "delta_fold", "fold", _fold_attrs)
    patch(incremental, "extend_graph", "fold.extend")
    # store and WAL
    patch(IndexStore, "load_index", "store.load_index")
    patch(IndexStore, "load_graph", "store.load_graph")
    patch(IndexStore, "save_graph", "store.save_graph", _save_graph_attrs)
    patch(IndexStore, "save_index", "store.save_index", _save_index_attrs)
    patch(IndexStore, "build_all", "store.rebuild")
    patch(WriteAheadLog, "append_edges", "wal.append", _append_attrs)
    patch(WriteAheadLog, "replay", "wal.replay")
    patch(WriteAheadLog, "trim", "wal.trim")
    # the daemon's execution lane: one span per admitted job
    patch(daemon.ServingDaemon, "_run_job", "lane",
          lambda args, kwargs, result: {"op": args[1].request.op})
