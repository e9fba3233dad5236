"""Per-layer metrics from recorded spans and ``/metrics`` scrapes.

``PER_LAYER`` is the table every traced run prints in full: a layer that
does no work on a workload reads 0 there.  Times are means per call of
the wrapped entry point (self time where a layer calls another traced
layer), counts are totals over the traced stretch, and ratios divide
totals.  The map from each metric to the end-to-end metric it should
move lives in ``perfbench/README.md``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from types import SimpleNamespace

#: (name, unit, better) for every per-layer metric.
PER_LAYER = [
    ("graph.build_ms", "ms/graph", "lower"),
    ("kernel.multik_build_s", "s/build", "lower"),
    ("kernel.single_build_s", "s/build", "lower"),
    ("kernel.range_ms", "ms/query", "lower"),
    ("kernel.subspan_ms", "ms/fold", "lower"),
    ("kernel.us_per_timestamp", "us/step", "lower"),
    ("kernel.vct_entries", "count", "lower"),
    ("kernel.ecs_windows", "count", "lower"),
    ("enum.direct_ms", "ms/query", "lower"),
    ("enum.ns_per_result_edge", "ns/edge", "lower"),
    ("walk.ms", "ms/call", "lower"),
    ("walk.cores", "count", "higher"),
    ("walk.ns_per_core", "ns/core", "lower"),
    ("fold.ms", "ms/call", "lower"),
    ("fold.extend_ms", "ms/call", "lower"),
    ("fold.search_merge_ms", "ms/fold", "lower"),
    ("fold.window_fraction", "fraction", "lower"),
    ("fold.window_timestamps", "count", "lower"),
    ("fold.cascade_vertices", "count", "lower"),
    ("fold.attempts", "count", "lower"),
    ("fold.fallbacks", "count", "lower"),
    ("fold.useful_ratio", "ratio", "higher"),
    ("fold.wasted_ms", "ms/call", "lower"),
    ("store.load_index_ms", "ms/call", "lower"),
    ("store.load_graph_ms", "ms/call", "lower"),
    ("store.save_graph_ms", "ms/call", "lower"),
    ("store.save_index_ms", "ms/call", "lower"),
    ("store.rebuild_ms", "ms/call", "lower"),
    ("store.bytes_per_appended_byte", "ratio", "lower"),
    ("wal.append_ms", "ms/call", "lower"),
    ("wal.fsyncs_per_append", "ratio", "lower"),
    ("wal.bytes_per_edge", "B/edge", "lower"),
    ("wal.replay_ms", "ms/call", "lower"),
    ("wal.trim_ms", "ms/call", "lower"),
    ("registry.resolve_ms", "ms/call", "lower"),
    ("registry.store_loads", "count", "lower"),
    ("plan.ms", "ms/call", "lower"),
    ("plan.windows_per_request", "ratio", "lower"),
    ("plan.dedupe_ratio", "ratio", "higher"),
    ("plan.merge_ratio", "ratio", "higher"),
    ("cut.ms", "ms/exec", "lower"),
    ("execute.ms", "ms/call", "lower"),
    ("sink.flush_ms", "ms/call", "lower"),
    ("router.targets_per_window", "ratio", "higher"),
    *[
        (f"daemon.{op}.{part}_ms", "ms/req", "lower")
        for op in ("query", "batch", "append", "flush")
        for part in ("request", "wire", "unattributed")
    ],
    ("daemon.bytes_per_core", "B/core", "lower"),
    ("daemon.lane_busy_frac", "fraction", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("host.probe_ms", "ms/probe", "lower"),
]

DAEMON_OPS = ("query", "batch", "append", "flush")

#: The client side of a run that talks to no daemon.
NO_CLIENT = SimpleNamespace(rtts={}, query_bytes=0, query_cores=0)


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _delta(before: dict, after: dict, name: str, **labels) -> float:
    def total(scrape):
        return sum(
            value
            for got, value in scrape.get(name, [])
            if all(got.get(key) == want for key, want in labels.items())
        )

    return total(after) - total(before)


class SpanTree:
    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_id = {span["id"]: span for span in spans}
        self.children: dict[int, list[dict]] = defaultdict(list)
        for span in spans:
            if span["parent"] in self.by_id:
                self.children[span["parent"]].append(span)

    @staticmethod
    def dur(span: dict) -> float:
        return span["t1"] - span["t0"]

    def ancestors(self, span: dict):
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent["parent"])

    def top(self, name: str) -> list[dict]:
        """Spans called ``name`` not nested in another span of that name."""
        return [
            span
            for span in self.spans
            if span["name"] == name
            and not any(a["name"] == name for a in self.ancestors(span))
        ]

    def self_time(self, span: dict) -> float:
        return self.dur(span) - sum(self.dur(c) for c in self.children[span["id"]])

    def child_time(self, span: dict, name: str) -> float:
        total = 0.0
        stack = list(self.children[span["id"]])
        while stack:
            child = stack.pop()
            if child["name"] == name:
                total += self.dur(child)
            else:
                stack.extend(self.children[child["id"]])
        return total

    def mean_ms(self, name: str) -> float:
        spans = self.top(name)
        return _ratio(sum(self.dur(s) for s in spans) * 1e3, len(spans))


def fallback_reasons(spans) -> dict[str, int]:
    """``FoldFallback.reason`` counts over the recorded fold attempts."""
    return dict(
        Counter(s["attrs"]["reason"] for s in spans if s["name"] == "fold" and "reason" in s["attrs"])
    )


def compute(spans, before, after, client, wall_s: float, overhead: float) -> dict:
    """Every ``PER_LAYER`` metric for one traced stretch.

    ``before``/``after`` are ``/metrics`` scrapes around the stretch;
    ``client`` carries the client's round trips per daemon op
    (``rtts``), the bytes its query connection read and the cores it
    received.
    """
    tree = SpanTree(spans)
    out: dict[str, float] = {}

    graphs = tree.top("graph.build")
    compile_s = sum(tree.dur(s) for s in tree.top("graph.compile"))
    out["graph.build_ms"] = _ratio(
        (sum(tree.dur(s) for s in graphs) + compile_s) * 1e3, len(graphs)
    )

    kernels = defaultdict(list)
    steps = kernel_s = vct = ecs = 0.0
    for span in tree.top("kernel"):
        names = {a["name"] for a in tree.ancestors(span)}
        attrs = span["attrs"]
        if "fold" in names:
            kind = "subspan"
        elif "execute" in names:
            kind = "range"
        else:
            kind = "multik" if attrs.get("levels", 1) > 1 else "single"
        seconds = tree.self_time(span)
        kernels[kind].append(seconds)
        kernel_s += seconds
        steps += attrs.get("te", 0) - attrs.get("ts", 0) + 1
        vct += attrs.get("vct", 0)
        ecs += attrs.get("ecs", 0)
    out["kernel.multik_build_s"] = _ratio(sum(kernels["multik"]), len(kernels["multik"]))
    out["kernel.single_build_s"] = _ratio(sum(kernels["single"]), len(kernels["single"]))
    out["kernel.range_ms"] = _ratio(sum(kernels["range"]) * 1e3, len(kernels["range"]))
    out["kernel.subspan_ms"] = _ratio(sum(kernels["subspan"]) * 1e3, len(kernels["subspan"]))
    out["kernel.us_per_timestamp"] = _ratio(kernel_s * 1e6, steps)
    out["kernel.vct_entries"] = vct
    out["kernel.ecs_windows"] = ecs

    executes = tree.top("execute")
    direct = [s for s in executes if s["attrs"].get("engines") == ["direct"]]
    enum_s = sum(tree.dur(s) - tree.child_time(s, "kernel") for s in direct)
    out["enum.direct_ms"] = _ratio(enum_s * 1e3, len(direct))
    out["enum.ns_per_result_edge"] = _ratio(
        enum_s * 1e9, sum(s["attrs"].get("edges", 0) for s in direct)
    )
    walks = tree.top("walk")
    walk_s = sum(tree.dur(s) for s in walks)
    cores = sum(s["attrs"].get("cores", 0) for s in executes)
    out["walk.ms"] = _ratio(walk_s * 1e3, len(walks))
    out["walk.cores"] = cores
    out["walk.ns_per_core"] = _ratio(walk_s * 1e9, cores)

    folds = tree.top("fold")
    good = [s for s in folds if "error" not in s["attrs"]]
    bad = [s for s in folds if "error" in s["attrs"]]
    out["fold.ms"] = tree.mean_ms("fold")
    out["fold.extend_ms"] = tree.mean_ms("fold.extend")
    out["fold.search_merge_ms"] = _ratio(
        sum(
            tree.dur(s) - tree.child_time(s, "fold.extend") - tree.child_time(s, "kernel")
            for s in good
        )
        * 1e3,
        len(good),
    )
    out["fold.window_fraction"] = _ratio(
        sum(s["attrs"]["window_fraction"] for s in good), len(good)
    )
    out["fold.window_timestamps"] = _ratio(
        sum(s["attrs"]["span_end"] - s["attrs"]["fold_start"] + 1 for s in good), len(good)
    )
    out["fold.cascade_vertices"] = _ratio(sum(s["attrs"]["cascade"] for s in good), len(good))
    out["fold.attempts"] = len(folds)
    out["fold.fallbacks"] = len(bad)
    out["fold.useful_ratio"] = _ratio(len(good), len(folds))
    out["fold.wasted_ms"] = _ratio(sum(tree.dur(s) for s in bad) * 1e3, len(bad))

    for name in ("load_index", "load_graph", "save_graph", "save_index"):
        out[f"store.{name}_ms"] = tree.mean_ms(f"store.{name}")
    out["store.rebuild_ms"] = tree.mean_ms("store.rebuild")
    saved = sum(
        s["attrs"].get("bytes", 0)
        for s in tree.spans
        if s["name"] in ("store.save_graph", "store.save_index")
    )
    wal_bytes = _delta(before, after, "repro_wal_bytes_total")
    out["store.bytes_per_appended_byte"] = _ratio(saved, wal_bytes)

    appends = tree.top("wal.append")
    out["wal.append_ms"] = tree.mean_ms("wal.append")
    out["wal.fsyncs_per_append"] = _ratio(
        _delta(before, after, "repro_wal_fsyncs_total"),
        _delta(before, after, "repro_wal_appends_total"),
    )
    out["wal.bytes_per_edge"] = _ratio(
        wal_bytes, sum(s["attrs"].get("edges", 0) for s in appends)
    )
    out["wal.replay_ms"] = tree.mean_ms("wal.replay")
    out["wal.trim_ms"] = tree.mean_ms("wal.trim")

    out["registry.resolve_ms"] = tree.mean_ms("registry.get")
    out["registry.store_loads"] = _delta(before, after, "repro_store_index_loads_total")
    plans = tree.top("plan")
    requests = sum(s["attrs"].get("requests", 0) for s in plans)
    out["plan.ms"] = tree.mean_ms("plan")
    out["plan.windows_per_request"] = _ratio(
        sum(s["attrs"].get("windows", 0) for s in plans), requests
    )
    out["plan.dedupe_ratio"] = _ratio(sum(s["attrs"].get("deduped", 0) for s in plans), requests)
    out["plan.merge_ratio"] = _ratio(sum(s["attrs"].get("merged", 0) for s in plans), requests)
    out["cut.ms"] = _ratio(sum(tree.dur(s) for s in tree.top("cut")) * 1e3, len(executes))
    out["execute.ms"] = tree.mean_ms("execute")
    out["sink.flush_ms"] = _ratio(
        _delta(before, after, "repro_sink_flush_seconds_sum") * 1e3,
        _delta(before, after, "repro_sink_flush_seconds_count"),
    )
    out["router.targets_per_window"] = _ratio(
        _delta(before, after, "repro_router_targets_total"),
        _delta(before, after, "repro_execute_windows_total", mode="shared"),
    )

    lanes = tree.top("lane")
    for op in DAEMON_OPS:
        request_ms = _ratio(
            _delta(before, after, "repro_daemon_request_seconds_sum", op=op) * 1e3,
            _delta(before, after, "repro_daemon_request_seconds_count", op=op),
        )
        rtts = client.rtts.get(op, [])
        op_lanes = [s for s in lanes if s["attrs"].get("op") == op]
        inside = _ratio(
            sum(sum(tree.dur(c) for c in tree.children[s["id"]]) for s in op_lanes) * 1e3,
            len(op_lanes),
        )
        out[f"daemon.{op}.request_ms"] = request_ms
        out[f"daemon.{op}.wire_ms"] = _ratio(sum(rtts) * 1e3, len(rtts)) - request_ms if rtts else 0.0
        out[f"daemon.{op}.unattributed_ms"] = request_ms - inside if op_lanes else 0.0
    out["daemon.bytes_per_core"] = _ratio(client.query_bytes, client.query_cores)
    out["daemon.lane_busy_frac"] = _ratio(sum(tree.dur(s) for s in lanes), wall_s)
    out["trace.overhead_frac"] = overhead
    return out
