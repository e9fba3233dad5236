"""The benchmark's three workloads.

Each workload sets up from its seed several times (``setup_s`` is the
median), runs a closed loop for the measured stretch, checks the answers outside
the timed region and returns the run's result dict.  Daemon workloads
drive ``repro serve`` over its socket with at most two connections;
``build-cold`` calls the library in-process.

A traced run measures two halves: the first with the span shims
installed but not recording, the second recording.  Per-layer metrics
come from the second half; ``trace.overhead_frac`` compares the main
latency of the two.

The times behind the end-to-end metrics are scaled to a reference host
speed (:class:`harness.HostClock`, through :meth:`Tally.end_group`), so
a run measures the program rather than how fast the shared host ran
while it measured; per-layer times stay raw.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import resource
import shutil
import signal
import time
from collections import defaultdict
from types import SimpleNamespace

import numpy as np

from repro.bench.workloads import build_workload
from repro.core.enumerate_ref import enumerate_temporal_kcores_ref
from repro.core.index import CoreIndex
from repro.core.multik import build_core_indexes
from repro.core.query import TimeRangeCoreQuery
from repro.graph.temporal_graph import TemporalGraph
from repro.obs.metrics import get_registry
from repro.serve.client import DaemonError
from repro.store.index_store import IndexStore

import gens
import harness
import layers
from harness import median

#: The datasets are fixed, named graphs; ``--seed`` drives the traffic
#: generated on top of them (ranges, windows, appended edges).
BURSTY_SEED = 1
HOT_SEED = 11

SERVE_KS = (2, 3, 5)
BATCH_RANGES = 64
BATCH_POOL = 6
QUERY_WIDTHS = (20, 40, 60, 80, 100)
QUERY_POOL = 15
QUERIES_PER_BATCH = 2
ORACLE_SAMPLES = 4

HOT_KS = (2, 4, 8)
HOT_EDGES = 5_000
APPEND_EDGES = 10
FLUSH_EVERY = 200
READER_K = 4
FRONTIER = 300
#: A set-up takes about 1 s, so its median can afford more of them.
HOT_SETUP_REPS = 5
#: Flush cycles per ingest episode.  Each episode starts a fresh daemon
#: over a copy of the base store, so the graph a flush works on stops
#: growing where the episode ends, not where the host's speed let the
#: run get to.
EPISODE_FLUSHES = 8

DIRECT_QUERIES = 40
DIRECT_PER_CYCLE = 20
#: A cold set-up takes about 0.1 s, so its median needs more of them.
COLD_SETUP_REPS = 9
#: Build k=4 alone on every ``SINGLE_EVERY``-th cycle only: it times no
#: end-to-end metric, and a shorter cycle gives ``main_ms`` more samples.
SINGLE_EVERY = 4

now = time.perf_counter


class Tally:
    """Every attempted op, every failure, every wrong answer.

    It also scales the times behind the end-to-end metrics: a measured
    stretch is a run of groups of ops, and :meth:`end_group` probes the
    host between groups (outside every timed region) and appends the
    group's times, scaled to the reference host, to their lists.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.begin()

    def begin(self) -> None:
        """Start a measured stretch: probe the host afresh."""
        self.clock = harness.HostClock()
        self._group: list[tuple[list, float]] = []

    def op(self, fn, samples: list | None = None, scaled: list | None = None):
        """Run one op; append its raw round trip to ``samples``, and its
        scaled one to ``scaled`` when the group ends.

        Error frames (``overloaded`` refusals included), timeouts and
        dropped connections count as failed and return ``None``.
        """
        self.attempted += 1
        started = now()
        try:
            result = fn()
        except (DaemonError, OSError) as exc:
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        seconds = now() - started
        if samples is not None:
            samples.append(seconds)
        if scaled is not None:
            self.defer(scaled, seconds)
        return result

    def defer(self, scaled: list, seconds: float) -> None:
        """Queue a raw time for ``scaled`` until the group ends."""
        self._group.append((scaled, seconds))

    def end_group(self) -> None:
        factor = self.clock.scale()
        for scaled, seconds in self._group:
            scaled.append(seconds * factor)
        self._group.clear()

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> None:
        """An answer check: a mismatch counts as a failed op."""
        if not ok:
            self.fail(problem)


def _counters(results) -> list[tuple[int, int]]:
    return [(r.num_results, r.total_edges) for r in results]


def _answer_counters(answers) -> list[tuple[int, int]]:
    return [(a["num_results"], a["total_edges"]) for a in answers]


def _flat_equal(a, b) -> bool:
    return all(
        np.array_equal(np.asarray(x), np.asarray(y))
        for left, right in ((a.vct.flat_parts(), b.vct.flat_parts()),
                            (a.ecs.flat_parts(), b.ecs.flat_parts()))
        for x, y in zip(left, right)
    )


def _stream_query(tally, client, k, ts, te, samples, scaled=None):
    """One streamed ``query``: ``(cores, terminal frame)``, or ``None`` if it failed.

    Only the read up to the terminal frame is timed; the core frames
    are decoded and checked after.
    """
    got = tally.op(lambda: client.query_lines(k=k, ts=ts, te=te), samples, scaled)
    if got is None:
        return None
    lines, done = got
    cores = [json.loads(line)["core"] for line in lines]
    tally.check(
        done.get("completed") is True
        and len(cores) == done["num_results"]
        and sum(c["num_edges"] for c in cores) == done["total_edges"],
        f"query k={k} [{ts}, {te}]: terminal frame disagrees with streamed cores",
    )
    return cores, done


class _DaemonRun:
    """Drive one daemon workload: set-up, halves, checks, reconcile, stop.

    :meth:`restart` swaps in a fresh daemon mid-run; every daemon is
    reconciled against the ops sent to it, and a traced run records
    from every daemon of its second half.
    """

    def __init__(self, ctx, build, reps=harness.SETUP_REPS):
        self.ctx = ctx
        self.tally = Tally()
        self.started = 0
        self.recording = False
        self.before: list[dict] = []
        self.after: list[dict] = []
        self.spans: list[dict] = []
        self.peak_rss_mb = 0.0
        self.state, self.daemon, self.setup_s = harness.set_up(
            build, self._daemon_for, reps=reps
        )
        self.sent_before = 0

    def _spans_path(self, n: int):
        return self.ctx.work / f"spans-{n}.ndjson" if self.ctx.trace else None

    def _daemon_for(self, state, last):
        return harness.Daemon(
            state.store_root, self.ctx.work, self._spans_path(0) if last else None
        )

    def _record(self, on: bool) -> None:
        """Start or stop the span recording (and the scrapes around it)."""
        if on:
            self.before.append(self.daemon.scrape())
            self.daemon.signal(signal.SIGUSR1)
        else:
            self.daemon.signal(signal.SIGUSR2)
        time.sleep(0.05)
        if not on:
            self.after.append(self.daemon.scrape())
        self.recording = on

    def measure(self, phase):
        """Run ``phase(seconds)`` once, or twice (untraced, traced) when tracing."""
        ctx = self.ctx
        if not ctx.trace:
            self.measured = phase(ctx.seconds)
            self.untraced = self.measured
        else:
            self.untraced = phase(ctx.seconds / 2)
            self._record(True)
            self.measured = phase(ctx.seconds / 2)
            self._record(False)

    def restart(self, appended_edges: int, restore) -> None:
        """Reconcile and stop the daemon, ``restore()`` its store, start anew."""
        recording = self.recording
        if recording:
            self._record(False)
        self._stop(appended_edges)
        restore()
        self.started += 1
        self.daemon = harness.Daemon(
            self.state.store_root, self.ctx.work, self._spans_path(self.started)
        )
        self.daemon.wait_ready()
        if recording:
            self._record(True)

    def finish(self, appended_edges: int | None = None):
        """Reconcile with the last daemon's ``stats`` and stop it."""
        self._stop(appended_edges)

    def _stop(self, appended_edges: int | None) -> None:
        tally = self.tally
        sent = tally.attempted - self.sent_before
        self.sent_before = tally.attempted
        try:
            self.peak_rss_mb = max(self.peak_rss_mb, self.daemon.peak_rss_mb())
            with self.daemon.client() as client:
                stats = client.stats()
            counters = stats["daemon"]
            tally.check(
                counters["accepted"]
                == counters["completed"] + counters["cancelled"] + counters["failed"],
                f"daemon counters do not reconcile: {counters}",
            )
            rejected = sum(counters["rejected"].values())
            tally.check(
                counters["accepted"] + rejected == sent,
                f"daemon accepted {counters['accepted']} + rejected {rejected} "
                f"!= {sent} sent to it",
            )
            if appended_edges is not None:
                got = stats["ingest"]["appended_edges"]
                tally.check(
                    got == appended_edges,
                    f"daemon appended {got} edges, client saw {appended_edges} acked",
                )
        except (DaemonError, OSError) as exc:
            tally.fail(f"stats: {exc}")
        finally:
            self.daemon.stop()
        spans_path = self._spans_path(self.started)
        if spans_path is not None and spans_path.exists():
            # Span ids count from 1 in every daemon: qualify them by daemon.
            with open(spans_path, encoding="utf-8") as lines:
                for line in lines:
                    span = json.loads(line)
                    span["id"] = (self.started, span["id"])
                    span["parent"] = (self.started, span["parent"])
                    self.spans.append(span)

    def layer_values(self, main_ms, client) -> dict | None:
        """Per-layer metrics of a traced run (``None`` untraced).

        ``main_ms(stretch)`` is the workload's ``main_ms`` over one
        measured stretch.
        """
        if not self.ctx.trace:
            return None
        reasons = layers.fallback_reasons(self.spans)
        print(f"fold fallbacks by reason: {reasons}", flush=True)
        values = layers.compute(
            self.spans, _merged(self.before), _merged(self.after), client,
            self.measured.wall,
            main_ms(self.measured) / main_ms(self.untraced) - 1.0,
        )
        values["host.probe_ms"] = self.tally.clock.probe_ms()
        return values


# ----------------------------------------------------------------------
# serve-read
# ----------------------------------------------------------------------


def serve_read(ctx) -> dict:
    def build():
        graph = gens.bursty_graph(BURSTY_SEED)
        root = ctx.work / "store"
        store = IndexStore(root)
        store.save_graph(graph, name="g")
        indexes = store.build_all(graph, SERVE_KS, name="g")
        return SimpleNamespace(store_root=root, graph=graph, indexes=indexes)

    run = _DaemonRun(ctx, build)
    graph, indexes, tally = run.state.graph, run.state.indexes, run.tally
    rng = random.Random(ctx.seed)
    pool = [
        (SERVE_KS[i % len(SERVE_KS)], gens.contended_ranges(rng, graph.tmax, BATCH_RANGES))
        for i in range(BATCH_POOL)
    ]
    windows = gens.stratified_windows(1, graph.tmax, QUERY_POOL, SERVE_KS, QUERY_WIDTHS)
    start = rng.randrange(QUERY_POOL)
    batches = itertools.cycle(range(BATCH_POOL))
    queries = itertools.cycle(windows[start:] + windows[:start])
    batch_answers: dict[int, list] = {}
    query_answers: dict[tuple, tuple] = {}
    sampled: dict[tuple, list] = {}

    def phase(seconds):
        """Alternate one ``batch`` (first connection) and
        ``QUERIES_PER_BATCH`` streamed ``query`` ops (second connection)
        until ``seconds`` have passed."""
        s = SimpleNamespace(
            batch=[], query=[], cores=0, query_bytes=0,
            by_batch=defaultdict(list), by_window=defaultdict(list),
        )
        tally.begin()
        started = now()
        with run.daemon.client() as bc, run.daemon.client() as qc:

            def query(key) -> bool:
                got = _stream_query(tally, qc, *key, s.query, s.by_window[key])
                if got is None:
                    return False
                cores, done = got
                s.cores += len(cores)
                answer = (done["num_results"], done["total_edges"])
                tally.check(
                    query_answers.setdefault(key, answer) == answer,
                    f"query {key}: unstable answer",
                )
                if len(sampled) < ORACLE_SAMPLES and cores:
                    sampled.setdefault(key, cores)
                return True

            while now() - started < seconds:
                i = next(batches)
                k, ranges = pool[i]
                answers = tally.op(lambda: bc.batch(ranges, k=k), s.batch, s.by_batch[i])
                if answers is None:
                    break
                got = _answer_counters(answers)
                tally.check(
                    all(a["completed"] for a in answers)
                    and batch_answers.setdefault(i, got) == got,
                    f"batch {i}: incomplete or unstable answer",
                )
                if not all(query(key) for key in itertools.islice(queries, QUERIES_PER_BATCH)):
                    break
                tally.end_group()
            s.wall = now() - started
            s.query_bytes = qc.bytes_read
        return s

    run.measure(phase)
    m = run.measured
    # -- answer checks, outside the timed region --
    for i, got in batch_answers.items():
        k, ranges = pool[i]
        want = _counters(indexes[k].query_batch(ranges))
        tally.check(got == want, f"batch {i} (k={k}) differs from in-process query_batch")
    for (k, ts, te), got in query_answers.items():
        want = indexes[k].query(ts, te, collect=False)
        tally.check(
            got == (want.num_results, want.total_edges),
            f"query k={k} [{ts}, {te}] differs from the in-process index",
        )
    for (k, ts, te), cores in sampled.items():
        oracle = enumerate_temporal_kcores_ref(graph, k, ts, te, collect=True)
        want = {(tuple(c.tti), frozenset(c.edge_ids)) for c in oracle.cores}
        got = {(tuple(c["tti"]), frozenset(c["edge_ids"])) for c in cores}
        tally.check(got == want, f"query k={k} [{ts}, {te}] differs from enumerate_ref")
    run.finish()
    metrics = {
        "setup_s": (run.setup_s, "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MiB"),
        "main_ms": (_typical(m.by_batch) * 1e3, "ms"),
        "aux_ms": (_typical(m.by_window) * 1e3, "ms"),
        "rate_per_s": (_rate(m.by_window, query_answers), "1/s"),
    }
    client = SimpleNamespace(
        rtts={"batch": m.batch, "query": m.query}, query_bytes=m.query_bytes,
        query_cores=m.cores,
    )
    return _result(
        tally, metrics, run.layer_values(lambda stretch: _typical(stretch.by_batch), client)
    )


# ----------------------------------------------------------------------
# ingest-community
# ----------------------------------------------------------------------


def _hot_build(ctx):
    def build():
        base = gens.HotStream(HOT_SEED).take(HOT_EDGES)
        graph = TemporalGraph(base)
        root = ctx.work / "store"
        store = IndexStore(root)
        store.save_graph(graph, name="g")
        indexes = store.build_all(graph, HOT_KS, name="g")
        pristine = ctx.work / "store-base"
        shutil.rmtree(pristine, ignore_errors=True)
        shutil.copytree(root, pristine)
        return SimpleNamespace(
            store_root=root, pristine=pristine, base=base, graph=graph, indexes=indexes
        )

    return build


def ingest_community(ctx) -> dict:
    run = _DaemonRun(ctx, _hot_build(ctx), reps=HOT_SETUP_REPS)
    state, tally = run.state, run.tally
    graph = state.graph
    rng = random.Random(ctx.seed)
    labels = gens.hot_members(graph, state.indexes)
    frontier = gens.stratified_windows(
        max(1, graph.tmax - FRONTIER), graph.tmax, QUERY_POOL, (READER_K,), QUERY_WIDTHS
    )
    start = rng.randrange(QUERY_POOL)
    frontier = [(ts, te) for _, ts, te in frontier[start:] + frontier[:start]]
    reader_answers: dict[tuple, tuple] = {}
    episode = SimpleNamespace(number=-1)

    def new_episode() -> None:
        """Fresh appends (a seed of their own) and the same reads, from
        the base store: a fold's cost depends on which community edges a
        batch draws, and one draw per run would make the run's figures
        measure that draw."""
        episode.number += 1
        episode.flushes = 0
        episode.acked = []
        episode.source = gens.CommunityDelta(
            labels, state.base[-1][2], ctx.seed * 1_000 + episode.number
        )
        episode.windows = itertools.cycle(frontier)

    def restore() -> None:
        shutil.rmtree(state.store_root)
        shutil.copytree(state.pristine, state.store_root)

    def read_frontier(rc, s) -> bool:
        """One streamed k=4 ``query`` on the next frontier window."""
        ts, te = next(episode.windows)
        got = _stream_query(tally, rc, READER_K, ts, te, s.query)
        if got is None:
            return False
        cores, done = got
        s.cores += len(cores)
        answer = (done["num_results"], done["total_edges"])
        tally.check(
            reader_answers.setdefault((ts, te), answer) == answer,
            f"reader window [{ts}, {te}]: unstable answer",
        )
        return True

    def flush_cycle(wc, rc, s) -> bool:
        """10-edge ``append``s up to ``FLUSH_EVERY`` edges, a ``flush``,
        then one frontier read; ``False`` if an op failed."""
        source = episode.source
        source.start_flush_batch()
        first_sent = now()
        for _ in range(FLUSH_EVERY // APPEND_EDGES):
            edges = source.batch(APPEND_EDGES)
            ack = tally.op(lambda: wc.append(edges), s.append)
            if ack is None:
                return False
            tally.check(
                ack["appended"] == len(edges),
                f"append acked {ack['appended']} of {len(edges)} edges",
            )
            episode.acked.extend(edges)
        step = episode.flushes
        if tally.op(wc.flush, s.flush, s.flush_by_step[step]) is None:
            return False
        tally.defer(s.lag_by_step[step], now() - first_sent)
        source.mark_flushed()
        if not read_frontier(rc, s):
            return False
        tally.defer(s.cycle_by_step[step], now() - first_sent)
        tally.end_group()
        episode.flushes += 1
        return True

    def phase(seconds):
        """Flush cycles until ``seconds`` have passed, in episodes of
        ``EPISODE_FLUSHES`` on a fresh daemon over the base store."""
        s = SimpleNamespace(
            append=[], flush=[], query=[], cores=0, query_bytes=0,
            flush_by_step=defaultdict(list), lag_by_step=defaultdict(list),
            cycle_by_step=defaultdict(list),
        )
        tally.begin()
        started = now()
        ok = True
        while ok and now() - started < seconds:
            if episode.flushes == EPISODE_FLUSHES:
                run.restart(len(episode.acked), restore)
                new_episode()
                tally.clock.rebase()
            with run.daemon.client() as wc, run.daemon.client() as rc:
                while ok and episode.flushes < EPISODE_FLUSHES and now() - started < seconds:
                    ok = flush_cycle(wc, rc, s)
                s.query_bytes += rc.bytes_read
        s.wall = now() - started
        return s

    new_episode()
    run.measure(phase)
    m = run.measured
    # -- answer checks: daemon answers vs an in-process build of base + acked --
    final = TemporalGraph(state.base + episode.acked)
    ref = build_core_indexes(final, HOT_KS)
    top, base_top = final.tmax, graph.tmax
    ranges = [
        (top - 200, top),
        (top - 120, top - 40),
        (max(1, base_top - 60), min(top, base_top + 60)),
        (max(1, base_top - 200), base_top - 100),
    ]
    with run.daemon.client() as client:
        for k in HOT_KS:
            answers = tally.op(lambda: client.batch(ranges, k=k), [])
            if answers is not None:
                tally.check(
                    _answer_counters(answers) == _counters(ref[k].query_batch(ranges)),
                    f"k={k}: daemon answers differ from base + acked rebuilt in-process",
                )
    for (ts, te), got in reader_answers.items():
        want = ref[READER_K].query(ts, te, collect=False)
        tally.check(
            got == (want.num_results, want.total_edges),
            f"reader window [{ts}, {te}] differs from the in-process rebuild",
        )
    run.finish(appended_edges=len(episode.acked))
    metrics = {
        "setup_s": (run.setup_s, "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MiB"),
        "main_ms": (_typical(m.flush_by_step) * 1e3, "ms"),
        "aux_ms": (_typical(m.lag_by_step) * 1e3, "ms"),
        "rate_per_s": (FLUSH_EVERY / _typical(m.cycle_by_step), "1/s"),
    }
    client = SimpleNamespace(
        rtts={"append": m.append, "flush": m.flush, "query": m.query},
        query_bytes=m.query_bytes, query_cores=m.cores,
    )
    return _result(
        tally, metrics, run.layer_values(lambda stretch: _typical(stretch.flush_by_step), client)
    )


# ----------------------------------------------------------------------
# build-cold
# ----------------------------------------------------------------------


def build_cold(ctx) -> dict:
    def build():
        edges = gens.HotStream(HOT_SEED).take(HOT_EDGES)
        graph = TemporalGraph(edges)
        workload = build_workload(graph, "hot", num_queries=DIRECT_QUERIES, seed=HOT_SEED)
        return SimpleNamespace(edges=edges, workload=workload)

    state, _, setup_s = harness.set_up(build, reps=COLD_SETUP_REPS)
    edges, workload = state.edges, state.workload
    ranges = list(workload.ranges)
    random.Random(ctx.seed).shuffle(ranges)
    tally = Tally()
    kept: dict = {}
    direct_answers: dict[tuple, tuple] = {}
    cycles = itertools.count()
    queue = itertools.cycle(ranges)

    def phase(seconds):
        """Build and persist ks {2,4,8}, build k=4 alone (every
        ``SINGLE_EVERY``-th cycle), then run the next ``DIRECT_PER_CYCLE``
        direct queries, until ``seconds`` have passed."""
        s = SimpleNamespace(multik=[], single=[], by_range=defaultdict(list))
        tally.begin()
        started = now()
        while now() - started < seconds:
            cycle = next(cycles)
            root = ctx.work / f"cold-{cycle}"
            built = tally.op(
                lambda: IndexStore(root).build_all(TemporalGraph(edges), HOT_KS, name="g"),
                scaled=s.multik,
            )
            tally.end_group()
            if cycle % SINGLE_EVERY == 0:
                kept.setdefault(
                    "single", tally.op(lambda: CoreIndex(TemporalGraph(edges), 4), s.single)
                )
            graph = built[HOT_KS[0]].graph
            for ts, te in itertools.islice(queue, DIRECT_PER_CYCLE):
                result = tally.op(
                    lambda: TimeRangeCoreQuery(
                        graph, workload.k, (ts, te), engine="enum", collect=False
                    ).run(),
                    scaled=s.by_range[(ts, te)],
                )
                if result is None:
                    continue
                got = (result.num_results, result.total_edges)
                tally.check(
                    direct_answers.setdefault((ts, te), got) == got,
                    f"direct [{ts}, {te}]: unstable answer",
                )
            tally.end_group()
            kept.setdefault("built", built)
            shutil.rmtree(root, ignore_errors=True)
        s.wall = now() - started
        return s

    recorder, layer_values = ctx.recorder, None
    if recorder is None:
        measured = phase(ctx.seconds)
    else:
        untraced = phase(ctx.seconds / 2)
        before = harness.parse_prometheus(get_registry().render_prometheus())
        recorder.enabled = True
        measured = phase(ctx.seconds / 2)
        recorder.enabled = False
        after = harness.parse_prometheus(get_registry().render_prometheus())
        layer_values = layers.compute(
            recorder.spans, before, after, layers.NO_CLIENT, measured.wall,
            median(measured.multik) / median(untraced.multik) - 1.0,
        )
        layer_values["host.probe_ms"] = tally.clock.probe_ms()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # -- answer checks --
    built = kept["built"]
    graph = built[HOT_KS[0]].graph
    for k in HOT_KS:
        ref = kept["single"] if k == 4 else CoreIndex(graph, k)
        tally.check(_flat_equal(built[k], ref), f"multi-k k={k} differs from compute_core_times")
    index = CoreIndex(graph, workload.k)
    for (ts, te), got in direct_answers.items():
        want = index.query(ts, te, collect=False)
        tally.check(
            got == (want.num_results, want.total_edges),
            f"direct [{ts}, {te}] differs from the index engine",
        )
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "main_ms": (median(measured.multik) * 1e3, "ms"),
        "aux_ms": (_typical(measured.by_range) * 1e3, "ms"),
        "rate_per_s": (_rate(measured.by_range, direct_answers), "1/s"),
    }
    return _result(tally, metrics, layer_values)


def _merged(scrapes: list[dict]) -> dict:
    """Scrapes of several daemons as one: a counter's delta sums over them."""
    out: dict = defaultdict(list)
    for scrape in scrapes:
        for name, series in scrape.items():
            out[name].extend(series)
    return out


def _typical(samples_by_request: dict) -> float:
    """Geometric mean, over a fixed request set, of each request's median.

    Requests in a set differ tenfold in cost, so a plain median over a
    run jumps between cost levels with how far through the set the run
    got; weighting every request once does not.
    """
    medians = [median(v) for v in samples_by_request.values() if v]
    return math.exp(sum(math.log(x) for x in medians) / len(medians))


def _rate(samples_by_request: dict, answers: dict) -> float:
    """Cores per second over a fixed request set: the answered requests'
    cores over the sum of their median times."""
    timed = [key for key, v in samples_by_request.items() if v and key in answers]
    seconds = sum(median(samples_by_request[key]) for key in timed)
    return sum(answers[key][0] for key in timed) / seconds if seconds else 0.0


def _result(tally, metrics, layer_values) -> dict:
    """The run's result line: end-to-end metrics, or per-layer ones when traced."""
    if layer_values is not None:
        metrics = {name: (layer_values[name], unit) for name, unit, _ in layers.PER_LAYER}
    for problem in tally.problems[:20]:
        print(f"problem: {problem}", flush=True)
    return {
        "correct": not tally.problems and tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


WORKLOADS = {
    "serve-read": serve_read,
    "ingest-community": ingest_community,
    "build-cold": build_cold,
}
