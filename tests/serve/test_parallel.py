"""WorkerPool tests: parallel answers == sequential == reference oracle."""

from __future__ import annotations

import asyncio
import os
import pathlib
import random
import signal
import time

import pytest

from repro.core.enumerate_ref import enumerate_temporal_kcores_ref
from repro.core.index import CoreIndex, CoreIndexRegistry
from repro.core.maintenance import StreamingCoreService
from repro.errors import InvalidParameterError
from repro.graph.generators import uniform_random_temporal
from repro.graph.temporal_graph import TemporalGraph
from repro.serve.executor import execute_batch, execute_plan
from repro.serve.parallel import WorkerPool, _partition, open_pool
from repro.serve.planner import (
    CoveringWindow,
    QueryRequest,
    plan_for_index,
    plan_queries,
)
from repro.store import IndexStore
from repro.obs.timing import Deadline

from tests.serve.test_executor import overlapping_ranges


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    """One 2-worker pool shared by the module (spawn cost paid once)."""
    store = tmp_path_factory.mktemp("pool-store")
    with WorkerPool(store, processes=2) as pool:
        yield pool


def counters(results):
    return [(r.num_results, r.total_edges, r.completed) for r in results]


def core_sets(results):
    return [
        {(c.tti, frozenset(c.edge_ids)) for c in (r.cores or [])}
        for r in results
    ]


def two_region_ranges(rng, tmax, count):
    """Overlap-heavy ranges in two disjoint halves of ``[1, tmax]``.

    Each half merges into shared covering windows of its own, so the
    plan always holds at least two windows and the pool dispatches.
    """
    half = tmax // 2
    first = overlapping_ranges(rng, half, count // 2)
    second = overlapping_ranges(rng, tmax - half, count - count // 2)
    return first + [(ts + half, te + half) for ts, te in second]


def unmerged_plan(graph, ranges):
    """A plan with one covering window per distinct range (pool-sized)."""
    return plan_for_index(CoreIndex(graph, 2), ranges, merge_overlaps=False)


class TestParallelEqualsSequential:
    @pytest.mark.parametrize("seed", range(4))
    def test_counts_match_executor_and_oracle(self, pool, seed):
        graph = uniform_random_temporal(13, 150, tmax=24, seed=seed)
        k = 2 + seed % 2
        rng = random.Random(7000 + seed)
        ranges = two_region_ranges(rng, graph.tmax, 10)
        requests = [QueryRequest(graph, k, ts, te) for ts, te in ranges]

        before = pool.tasks_dispatched
        parallel = execute_plan(plan_queries(requests), parallel=pool)
        assert pool.tasks_dispatched > before
        sequential = execute_plan(plan_queries(requests))
        assert counters(parallel) == counters(sequential)
        for (ts, te), got in zip(ranges, parallel):
            want = enumerate_temporal_kcores_ref(graph, k, ts, te)
            assert got.num_results == want.num_results
            assert got.total_edges == want.total_edges

    @pytest.mark.parametrize("seed", range(2))
    def test_collected_cores_match_executor(self, pool, seed):
        graph = uniform_random_temporal(12, 120, tmax=18, seed=30 + seed)
        rng = random.Random(8100 + seed)
        ranges = two_region_ranges(rng, graph.tmax, 8)
        requests = [QueryRequest(graph, 2, ts, te) for ts, te in ranges]
        before = pool.tasks_dispatched
        parallel = execute_plan(
            plan_queries(requests), collect=True, parallel=pool
        )
        assert pool.tasks_dispatched > before
        sequential = execute_plan(
            plan_queries([QueryRequest(graph, 2, ts, te) for ts, te in ranges]),
            collect=True,
        )
        assert core_sets(parallel) == core_sets(sequential)

    def test_direct_engine_windows_fan_out(self, pool, paper_graph):
        ranges = [(1, 4), (2, 6), (5, 7), (1, 7)]
        requests = [QueryRequest(paper_graph, 2, ts, te) for ts, te in ranges]
        before = pool.tasks_dispatched
        parallel = execute_plan(
            plan_queries(requests, engine="direct", merge_overlaps=False),
            parallel=pool,
        )
        sequential = execute_plan(
            plan_queries(
                [QueryRequest(paper_graph, 2, ts, te) for ts, te in ranges],
                engine="direct",
            )
        )
        assert counters(parallel) == counters(sequential)
        assert pool.tasks_dispatched > before

    def test_single_worker_pool(self, tmp_path, paper_graph):
        ranges = [(1, 4), (2, 6), (1, 7), (3, 5)]
        with WorkerPool(tmp_path / "store", processes=1) as single:
            parallel = execute_plan(
                unmerged_plan(paper_graph, ranges), parallel=single
            )
            assert single.tasks_dispatched > 0
        assert counters(parallel) == counters(
            CoreIndex(paper_graph, 2).query_batch(ranges)
        )

    def test_mixed_batch_through_pool(self, pool, paper_graph, triangle_graph):
        queries = [
            (paper_graph, 2, (1, 4)),
            (triangle_graph, 2, (1, 3)),
            (paper_graph, 3, (1, 7)),
            (paper_graph, 2, (2, 6)),
        ]
        registry = CoreIndexRegistry(capacity=8)
        _plan, sequential = execute_batch(
            [QueryRequest(g, k, ts, te) for g, k, (ts, te) in queries],
            registry=registry,
        )
        before = pool.tasks_dispatched
        parallel = execute_plan(
            plan_queries(
                [QueryRequest(g, k, ts, te) for g, k, (ts, te) in queries],
                engine="index",
            ),
            registry=registry,
            parallel=pool,
        )
        assert pool.tasks_dispatched > before
        assert counters(parallel) == counters(sequential)

    def test_streaming_service_batch(self, pool, paper_graph):
        edges = [
            (paper_graph.label_of(u), paper_graph.label_of(v), t)
            for u, v, t in paper_graph.edges
        ]
        service = StreamingCoreService(2, edges)
        ranges = [(1, 4), (2, 6), (1, 7)]
        sequential = service.query_batch(ranges)
        _graph, indexes = service.built
        parallel = execute_plan(
            plan_for_index(indexes[2], ranges, merge_overlaps=False),
            parallel=pool,
        )
        assert counters(parallel) == counters(sequential)


class TestDeadlines:
    RANGES = [(1, 4), (2, 6), (1, 7)]

    def test_expired_deadline_aborts_everywhere(self, pool, paper_graph):
        before = pool.tasks_dispatched
        results = execute_plan(
            unmerged_plan(paper_graph, self.RANGES),
            parallel=pool,
            deadline=Deadline(0.0),
        )
        assert pool.tasks_dispatched > before
        assert all(not r.completed for r in results)

    def test_generous_deadline_completes(self, pool, paper_graph):
        results = execute_plan(
            unmerged_plan(paper_graph, self.RANGES),
            parallel=pool,
            deadline=Deadline(60.0),
        )
        assert all(r.completed for r in results)
        assert counters(results) == counters(
            CoreIndex(paper_graph, 2).query_batch(self.RANGES)
        )


class TestRecovery:
    def test_sigkilled_worker_is_replaced_and_answers_survive(
        self, tmp_path, paper_graph
    ):
        fault = tmp_path / "kill-exactly-one-worker"
        fault.touch()
        ranges = [(1, 4), (2, 6), (1, 7), (3, 5), (5, 5), (2, 3)]
        with WorkerPool(
            tmp_path / "store", processes=2, _fault_path=os.fspath(fault)
        ) as pool:
            parallel = execute_plan(
                unmerged_plan(paper_graph, ranges), parallel=pool
            )
            assert pool.broken_restarts >= 1
        assert not fault.exists()  # the fault fired exactly once
        assert counters(parallel) == counters(
            CoreIndex(paper_graph, 2).query_batch(ranges)
        )

    def test_exhausted_restarts_degrade_to_parent_execution(
        self, tmp_path, paper_graph, monkeypatch
    ):
        import repro.serve.parallel as parallel_module

        ranges = [(1, 4), (2, 6), (1, 7)]
        with WorkerPool(tmp_path / "store", processes=1) as pool:

            # Every dispatch dies: the pool must finish the batch itself.
            class _DeadFuture:
                def result(self):
                    raise parallel_module.BrokenProcessPool("worker lost")

            class _DeadExecutor:
                def submit(self, fn, *args):
                    return _DeadFuture()

                def shutdown(self, **kwargs):
                    pass

            monkeypatch.setattr(
                pool, "_ensure_executor", lambda: _DeadExecutor()
            )
            answers = execute_plan(
                unmerged_plan(paper_graph, ranges), parallel=pool
            )
            stats = pool.stats()
        assert stats["broken_restarts"] == parallel_module._MAX_RESTARTS + 1
        assert stats["chunks_completed"]["parent"] > 0
        assert counters(answers) == counters(
            CoreIndex(paper_graph, 2).query_batch(ranges)
        )


class TestFallbacksAndValidation:
    def test_small_plans_stay_sequential(self, tmp_path, paper_graph):
        ranges = [(1, 4), (2, 6)]  # merge into one covering window
        with WorkerPool(tmp_path / "store", processes=2) as pool:
            answers = execute_plan(
                plan_for_index(CoreIndex(paper_graph, 2), ranges),
                parallel=pool,
            )
            assert pool.sequential_fallbacks == 1
            assert pool.tasks_dispatched == 0
        assert counters(answers) == counters(
            CoreIndex(paper_graph, 2).query_batch(ranges)
        )

    def test_validation(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            WorkerPool(tmp_path / "s", processes=0)

    def test_processes_with_store_uses_that_store(self, tmp_path, paper_graph):
        store = IndexStore(tmp_path / "store")
        # Disjoint ranges: several covering windows, so the pool
        # actually dispatches (and therefore persists) instead of
        # taking the small-plan sequential fallback.
        ranges = [(1, 2), (3, 4), (5, 7)]
        requests = [QueryRequest(paper_graph, 2, ts, te) for ts, te in ranges]
        _plan, answers = execute_batch(
            requests, registry=CoreIndexRegistry(capacity=2), processes=2,
            store=store,
        )
        assert counters(answers) == counters(
            CoreIndex(paper_graph, 2).query_batch(ranges)
        )
        # the pool persisted into the caller's store, not a temp one
        assert store.has_index(paper_graph, 2)


class TestSupersededGraph:
    def test_pool_serves_the_graph_committed_under_the_same_key(
        self, tmp_path
    ):
        """A snapshot that commits a new graph under an existing key
        (what a streamed flush does) must not leave workers answering
        from the graph they cached before."""
        full = uniform_random_temporal(13, 300, tmax=80, seed=3)
        raw = [
            (full.label_of(u), full.label_of(v), full.raw_time_of(t))
            for u, v, t in full.edges
        ]
        old = TemporalGraph([edge for edge in raw if edge[2] <= 40])
        new = TemporalGraph(raw)
        assert old.tmax < new.tmax
        store = IndexStore(tmp_path / "store")
        store.save_index(CoreIndex(old, 2), name="g")
        with WorkerPool(store, processes=2) as pool:
            # The first batch starts the workers; each warms the old graph.
            early = [(1, 10), (12, old.tmax)]
            execute_plan(
                plan_for_index(CoreIndex(old, 2), early), parallel=pool
            )
            store.commit(new, [CoreIndex(new, 2)], name="g", stream_lsn=1)

            ranges = [(1, 10), (50, new.tmax - 5)]
            before = pool.tasks_dispatched
            pooled = execute_plan(
                plan_for_index(CoreIndex(new, 2), ranges), parallel=pool
            )
            assert pool.tasks_dispatched > before
            assert pool.store.keys() == ["g"]
        assert counters(pooled) == counters(
            CoreIndex(new, 2).query_batch(ranges)
        )


class TestForkedSignals:
    def test_worker_sigterm_before_init_does_not_reach_the_parent_loop(
        self, tmp_path, monkeypatch
    ):
        """A SIGTERM that lands on a freshly forked worker before its
        initialiser resets the inherited signal state must not run the
        parent's asyncio SIGTERM handler (the daemon's drain)."""
        import repro.serve.parallel as parallel_module

        marker = tmp_path / "worker-in-init"
        real_init = parallel_module._worker_init

        def slow_init(*args):
            marker.write_text(str(os.getpid()))
            time.sleep(1.0)
            real_init(*args)

        monkeypatch.setattr(parallel_module, "_worker_init", slow_init)
        fired = []

        def prestart(pool):
            try:
                pool.prestart()
            except parallel_module.BrokenProcessPool:
                pass  # the SIGTERMed worker died: the pool is broken

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, fired.append, "SIGTERM")
            try:
                with WorkerPool(tmp_path / "store", processes=1) as pool:
                    started = loop.run_in_executor(None, prestart, pool)
                    give_up = time.monotonic() + 30
                    while not marker.exists():
                        assert time.monotonic() < give_up, "worker never forked"
                        await asyncio.sleep(0.01)
                    os.kill(int(marker.read_text()), signal.SIGTERM)
                    await started
                # Give a byte written to the loop's wakeup fd time to land.
                await asyncio.sleep(0.3)
            finally:
                loop.remove_signal_handler(signal.SIGTERM)

        asyncio.run(scenario())
        assert fired == []


class TestPoolInternals:
    def test_partition_balances_and_orders_by_cost(self):
        windows = [CoveringWindow(i, i + 1, [i]) for i in range(7)]
        costs = [5, 1, 1, 1, 8, 1, 1]
        packed = _partition(windows, costs, 3)
        assert sum(len(ws) for ws, _ in packed) == len(windows)
        totals = [total for _, total in packed]
        assert totals == sorted(totals, reverse=True)
        assert packed[0][0][0].ts == 4  # the cost-8 window leads
        seen = {w.ts for ws, _ in packed for w in ws}
        assert seen == set(range(7))

    def test_partition_with_more_bins_than_windows(self):
        windows = [CoveringWindow(1, 2, [0])]
        packed = _partition(windows, [3], 4)
        assert len(packed) == 1 and packed[0][0] == windows

    def test_prestart_spawns_workers(self, tmp_path):
        with WorkerPool(tmp_path / "store", processes=2) as pool:
            pids = pool.prestart()
            assert len(pids) == 2
            assert all(pid != os.getpid() for pid in pids)

    def test_store_persist_is_cached_across_batches(self, tmp_path, paper_graph):
        with WorkerPool(tmp_path / "store", processes=1) as pool:
            index = CoreIndex(paper_graph, 2)
            key = pool.ensure_index(index)
            assert pool.ensure_index(index) == key  # set-cached, no probe
            assert pool.store.has_index(paper_graph, 2, key=key)

    def test_unpersistable_graph_falls_back_sequential(self, tmp_path):
        # tuple labels: rejected by the store codec
        graph = TemporalGraph(
            [(("a",), ("b",), 1), (("b",), ("c",), 1), (("a",), ("c",), 2)]
        )
        ranges = [(1, 2), (1, 1), (2, 2)]
        with WorkerPool(tmp_path / "store", processes=1) as pool:
            answers = execute_plan(
                unmerged_plan(graph, ranges), parallel=pool
            )
            assert pool.sequential_fallbacks == 1
        assert counters(answers) == counters(
            CoreIndex(graph, 2).query_batch(ranges)
        )

    def test_open_pool_without_store_cleans_up(self, paper_graph):
        with open_pool(1) as pool:
            root = pathlib.Path(pool.store.root)
            execute_plan(
                unmerged_plan(paper_graph, [(1, 4), (2, 6)]), parallel=pool
            )
            assert pool.tasks_dispatched > 0
            assert root.exists()
        assert not root.exists()
