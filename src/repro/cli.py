"""Command-line interface.

Subcommands::

    python -m repro query     --input edges.txt -k 3 --range 10 80
    python -m repro query     --store var/idx -k 3 --range 10 80
    python -m repro query     --input edges.txt -k 3 --output ndjson
    python -m repro batch     --input edges.txt --queries q.txt
    python -m repro stats     --input edges.txt          (or --dataset CM)
    python -m repro generate  --dataset CM -o cm.txt
    python -m repro index     --dataset CM -k 2,3,5 --save-store var/idx
    python -m repro experiments fig6 --profile quick

``query`` prints each temporal k-core's TTI, vertex count and edge count
(``--format json`` emits machine-readable output; ``--streaming`` counts
without materialising, for huge result sets).  ``--output ndjson``
streams one JSON line per core to stdout as it is enumerated —
nothing is buffered, so wide windows cost O(1) memory; ``--output
count`` reports the counters only.  Both are delivered through the
serving layer's result sinks (``repro.serve.sinks``).  ``--store DIR``
answers from the on-disk index store — precomputed indexes are opened
via mmap instead of recomputed; missing entries are built once and
persisted.

``batch`` answers a whole query file (one ``k ts te`` triple per line)
through the query planner (``repro.serve.planner``): identical ranges
are answered once, overlapping ranges share one enumeration, and all
``k`` values missing from the registry are built in one shared scan
(with ``--store``, loaded from and persisted to it, like ``query``).

``index`` accepts several ``k`` values and builds all the missing ones
in a single shared decremental scan (``repro.core.multik``); with
``--save-store`` it prebuilds a store so daemons cold-start warm.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from repro.bench.experiments import main as experiments_main
from repro.core.index import CoreIndexRegistry
from repro.core.multik import build_core_indexes
from repro.core.query import ENGINES, TimeRangeCoreQuery
from repro.datasets.registry import ALL_DATASETS, load_dataset
from repro.datasets.stats import compute_stats
from repro.errors import ReproError
from repro.graph.io import dump_edge_list, load_edge_list
from repro.graph.temporal_graph import TemporalGraph
from repro.obs.metrics import get_registry
from repro.obs.report import report as obs_report
from repro.obs.timing import Deadline
from repro.obs.trace import Trace
from repro.serve import CountSink, NDJSONSink, QueryRequest, execute_batch
from repro.store import IndexStore
from repro.store.index_store import _pid_alive


def _write_metrics(path: str) -> None:
    """Dump the process metrics registry as JSON to ``path`` (``-`` = stdout)."""
    rendered = get_registry().render_json() + "\n"
    if path == "-":
        sys.stdout.write(rendered)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    except OSError as exc:
        raise ReproError(f"cannot write metrics to {path!r}: {exc}") from exc


def _write_trace(trace: Trace, path: str) -> None:
    """Dump ``trace`` as NDJSON span events to ``path`` (``-`` = stdout)."""
    if path == "-":
        trace.write_ndjson(sys.stdout)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            trace.write_ndjson(handle)
    except OSError as exc:
        raise ReproError(f"cannot write trace to {path!r}: {exc}") from exc


def _load_graph(args: argparse.Namespace) -> TemporalGraph:
    if getattr(args, "dataset", None):
        return load_dataset(args.dataset)
    if getattr(args, "input", None):
        return load_edge_list(args.input, layout=args.layout)
    raise ReproError("provide --input FILE or --dataset NAME")


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="edge-list file (u v t per line)")
    parser.add_argument(
        "--layout", choices=("snap", "konect"), default="snap",
        help="edge-list layout (default: snap)",
    )
    parser.add_argument(
        "--dataset", choices=ALL_DATASETS,
        help="use a registry dataset instead of a file",
    )


def _query_via_store(args: argparse.Namespace, sink):
    """Resolve (graph, result) for ``query --store``: disk before compute."""
    store = IndexStore(args.store)
    if args.input or args.dataset:
        graph = _load_graph(args)
        # The graph is served from wherever it is stored; ``--store-graph``
        # names the key only for a graph the store does not hold yet.
        key = store.find(graph) or args.store_graph
    else:
        try:
            key = store.only_key(args.store_graph)
        except ReproError as exc:
            raise ReproError(f"{exc} (--store-graph NAME)") from None
        graph = store.load_graph(key)
    index = store.build_all(graph, [args.k], name=key)[args.k]
    ts, te = tuple(args.range) if args.range else (1, graph.tmax)
    deadline = Deadline(args.timeout) if args.timeout is not None else None
    result = index.query(
        ts, te, collect=not args.streaming, sink=sink, deadline=deadline
    )
    return graph, (ts, te), result


def _query_sink(args: argparse.Namespace):
    """The delivery sink for ``query --output``, or ``None`` (materialise)."""
    if args.output == "ndjson":
        return NDJSONSink(sys.stdout)
    if args.output == "count":
        return CountSink()
    return None


def cmd_query(args: argparse.Namespace) -> int:
    sink = _query_sink(args)
    if args.store:
        graph, time_range, result = _query_via_store(args, sink)
        engine = "store"
    else:
        graph = _load_graph(args)
        query = TimeRangeCoreQuery(
            graph,
            k=args.k,
            time_range=tuple(args.range) if args.range else None,
            engine=args.engine,
            collect=not args.streaming,
            timeout=args.timeout,
        )
        result = query.run(sink=sink)
        time_range = query.time_range
        engine = args.engine
    if args.metrics_out:
        _write_metrics(args.metrics_out)
    if args.output == "ndjson":
        # Cores already streamed line by line; nothing is buffered to print.
        return 0 if result.completed else 1
    if args.output == "count":
        # Always exactly two fields on stdout (scripts field-split this);
        # a timeout goes to stderr and the exit code, like ndjson.
        print(f"{result.num_results} {result.total_edges}")
        if not result.completed:
            print("warning: timed out - counts are partial", file=sys.stderr)
            return 1
        return 0
    if args.format == "json":
        payload: dict = {
            "k": args.k,
            "time_range": list(time_range),
            "engine": engine,
            "num_results": result.num_results,
            "total_edges": result.total_edges,
            "completed": result.completed,
        }
        if not args.streaming:
            payload["cores"] = [
                {
                    "tti": list(core.tti),
                    "vertices": sorted(map(str, core.vertex_labels(graph))),
                    "num_edges": core.num_edges,
                }
                for core in result
            ]
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"{result.num_results} temporal {args.k}-core(s) in "
        f"[{time_range[0]}, {time_range[1]}], "
        f"|R| = {result.total_edges} edges"
        + ("" if result.completed else "  [TIMED OUT - partial]")
    )
    if not args.streaming:
        for core in result:
            vertices = sorted(map(str, core.vertex_labels(graph)))
            print(f"  TTI [{core.tti[0]}, {core.tti[1]}]: "
                  f"{len(vertices)} vertices, {core.num_edges} edges: "
                  f"{', '.join(vertices[:8])}"
                  f"{', ...' if len(vertices) > 8 else ''}")
    return 0


def _parse_query_file(path: str) -> list[tuple[int, int, int]]:
    """Parse a batch query file: one ``k ts te`` triple per line.

    Blank lines and ``#`` comments are skipped; malformed lines raise
    :class:`ReproError` naming the line number.
    """
    queries: list[tuple[int, int, int]] = []
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ReproError(f"cannot read query file {path!r}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ReproError(
                f"{path}:{lineno}: expected 'k ts te', got {line!r}"
            )
        try:
            k, ts, te = (int(part) for part in parts)
        except ValueError:
            raise ReproError(
                f"{path}:{lineno}: expected integers, got {line!r}"
            ) from None
        queries.append((k, ts, te))
    if not queries:
        raise ReproError(f"query file {path!r} holds no queries")
    return queries


def cmd_batch(args: argparse.Namespace) -> int:
    """Answer a query file through the planner (one plan, shared windows)."""
    graph = _load_graph(args)
    queries = _parse_query_file(args.queries)
    store = IndexStore(args.store) if args.store else None
    try:
        requests = [QueryRequest(graph, k, ts, te) for k, ts, te in queries]
    except ReproError as exc:
        raise ReproError(f"invalid query: {exc}") from exc
    trace = Trace("batch") if args.trace_out else None
    # A dedicated registry sized for the file: every distinct k stays
    # resident from the prefetch through execution (the process-wide
    # default holds 8 and would evict — and then rebuild — beyond that).
    plan, results = execute_batch(
        requests,
        registry=CoreIndexRegistry(capacity=len({k for k, _, _ in queries}), store=store),
        trace=trace,
    )
    if trace is not None:
        _write_trace(trace, args.trace_out)
    if args.metrics_out:
        _write_metrics(args.metrics_out)
    stats = plan.stats
    if args.format == "json":
        print(json.dumps({
            "plan": stats,
            "answers": [
                {
                    "k": k,
                    "time_range": [ts, te],
                    "num_results": result.num_results,
                    "total_edges": result.total_edges,
                    "completed": result.completed,
                }
                for (k, ts, te), result in zip(queries, results)
            ],
        }, indent=2))
        return 0
    for (k, ts, te), result in zip(queries, results):
        print(f"k={k} [{ts}, {te}]: {result.num_results} core(s), "
              f"|R| = {result.total_edges}")
    print(f"plan: {stats['requests']} queries -> {stats['windows']} window(s) "
          f"in {stats['groups']} group(s); {stats['deduped']} identical "
          f"deduped, {stats['merged']} merged into shared windows")
    return 0


def _store_stats(args: argparse.Namespace) -> int:
    """``stats --store DIR``: persisted keys, sizes, and lock liveness."""
    store = IndexStore(args.store)
    keys = []
    for key in store.keys():
        manifest = store.manifest(key)
        fingerprint = manifest.get("fingerprint", {})
        lock = store.lock_info(key)
        if lock is not None:
            lock = dict(lock)
            lock["alive"] = _pid_alive(int(lock.get("pid", 0)))
        keys.append({
            "key": key,
            "vertices": fingerprint.get("num_vertices"),
            "temporal_edges": fingerprint.get("num_edges"),
            "tmax": fingerprint.get("tmax"),
            "indexes": [
                {
                    "k": int(k),
                    "vct_size": entry.get("vct_size"),
                    "ecs_size": entry.get("ecs_size"),
                }
                for k, entry in sorted(
                    manifest.get("indexes", {}).items(),
                    key=lambda item: int(item[0]),
                )
            ],
            "lock": lock,
        })
    payload = {
        "root": str(store.root),
        "keys": keys,
        "stale_takeovers": store.stale_takeovers,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
        return 0
    print(f"store {payload['root']}: {len(keys)} graph(s), "
          f"{payload['stale_takeovers']} stale lock takeover(s) this process")
    for entry in keys:
        print(f"  {entry['key']}: {entry['vertices']} vertices, "
              f"{entry['temporal_edges']} edges, tmax={entry['tmax']}")
        for index in entry["indexes"]:
            print(f"    k={index['k']}: |VCT| = {index['vct_size']}, "
                  f"|ECS| = {index['ecs_size']}")
        lock = entry["lock"]
        if lock is None:
            print("    lock: free")
        else:
            state = "live" if lock["alive"] else "stale (holder dead)"
            print(f"    lock: held by pid {lock['pid']} [{state}], "
                  f"acquired_at={lock.get('acquired_at')}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    if args.store:
        return _store_stats(args)
    if args.metrics:
        # The live process registry: whatever this process instrumented
        # (with --input/--dataset the graph stats are computed first, so
        # their instruments appear in the report too).
        if args.input or args.dataset:
            compute_stats(_load_graph(args))
        if args.format == "json":
            print(get_registry().render_json())
        else:
            print(obs_report(), end="")
        return 0
    graph = _load_graph(args)
    stats = compute_stats(graph)
    rows = {
        "vertices": stats.num_vertices,
        "temporal_edges": stats.num_edges,
        "distinct_timestamps": stats.tmax,
        "kmax": stats.kmax,
        "avg_degree": round(stats.avg_degree, 3),
    }
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        for key, value in rows.items():
            print(f"{key:>20}: {value}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset)
    dump_edge_list(graph, args.output, raw_timestamps=False)
    print(f"wrote {graph.num_edges} edges ({graph.num_vertices} vertices, "
          f"tmax={graph.tmax}) to {args.output}")
    return 0


def _parse_k_list(value: str) -> list[int]:
    """``"3"`` or ``"2,3,5"`` -> list of ints (argparse type helper)."""
    try:
        ks = [int(part) for part in value.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected K or K,K,... (integers), got {value!r}"
        ) from None
    if not ks:
        raise argparse.ArgumentTypeError("expected at least one k value")
    return ks


def cmd_index(args: argparse.Namespace) -> int:
    if not args.output and not args.save_store:
        raise ReproError("provide -o FILE (debug text dump) and/or --save-store DIR")
    ks = sorted(set(args.k))
    if args.output and len(ks) > 1:
        raise ReproError("-o writes a single text dump; use it with exactly one -k")
    graph = _load_graph(args)
    # `reused` holds the ks that actually loaded from disk (fingerprint +
    # checksum pass): a manifest row whose blob rotted is rebuilt and
    # reported as such, not as reused.
    reused: set[int] = set()
    if args.save_store:
        # One shared scan for every missing k; existing entries reused.
        indexes = IndexStore(args.save_store).build_all(
            graph, ks, name=args.name or args.dataset, reused=reused
        )
    else:
        indexes = build_core_indexes(graph, ks)
    for k in ks:
        index = indexes[k]
        sinks = []
        if args.output:
            index.dump_skyline(args.output)
            sinks.append(f"{args.output} (debug text)")
        if k in reused:
            sinks.append(f"{args.save_store} (already stored, reused)")
        elif args.save_store:
            sinks.append(f"{args.save_store} (binary store)")
        print(f"k={k}: |VCT| = {index.vct.size()}, |ECS| = {index.ecs.size()} "
              f"-> {'; '.join(sinks)}")
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    """Scrub a store: verify checksums, quarantine corruption, repair."""
    import json as _json

    from repro.store.fsck import scrub_store

    report = scrub_store(
        args.store, repair=not args.dry_run, verify=not args.no_verify
    )
    if args.format == "json":
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.clean else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the serving daemon in the foreground until drained."""
    import asyncio

    from repro.serve.daemon import ServingDaemon

    daemon = ServingDaemon(
        args.store,
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        outbox_depth=args.outbox_depth,
        capacity=args.capacity,
        default_timeout=args.deadline,
        terminal_grace=args.terminal_grace,
        warm=not args.no_warm,
        max_lag=args.max_lag,
    )
    return asyncio.run(daemon.run(announce=True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Temporal k-core enumeration (EDBT 2026 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="enumerate temporal k-cores")
    _add_graph_source(query)
    query.add_argument("-k", type=int, required=True, help="minimum degree")
    query.add_argument(
        "--range", nargs=2, type=int, metavar=("TS", "TE"),
        help="query time range in normalised timestamps (default: full span)",
    )
    query.add_argument("--engine", choices=ENGINES, default="enum")
    query.add_argument("--format", choices=("text", "json"), default="text")
    query.add_argument(
        "--streaming", action="store_true",
        help="count results without materialising them",
    )
    query.add_argument("--timeout", type=float, default=None)
    query.add_argument(
        "--store", metavar="DIR",
        help="answer from an on-disk index store (open + filter instead of "
             "recompute); missing entries are built once and persisted",
    )
    query.add_argument(
        "--store-graph", metavar="KEY",
        help="store key to serve when no --input/--dataset is given "
             "(defaults to the store's only graph)",
    )
    query.add_argument(
        "--output", choices=("ndjson", "count"),
        help="stream results through a serving sink: 'ndjson' writes one "
             "JSON line per core to stdout as enumerated (O(1) memory), "
             "'count' prints 'num_results total_edges' only",
    )
    query.add_argument(
        "--metrics-out", metavar="FILE",
        help="dump the process metrics registry as JSON after answering "
             "('-' = stdout)",
    )
    query.set_defaults(func=cmd_query)

    batch = sub.add_parser(
        "batch", help="answer a query file through the query planner"
    )
    _add_graph_source(batch)
    batch.add_argument(
        "--queries", required=True, metavar="FILE",
        help="query file: one 'k ts te' triple per line (# comments ok)",
    )
    batch.add_argument(
        "--store", metavar="DIR",
        help="index store consulted before computing missing (graph, k) "
             "indexes; missing entries are built once and persisted",
    )
    batch.add_argument("--format", choices=("text", "json"), default="text")
    batch.add_argument(
        "--metrics-out", metavar="FILE",
        help="dump the process metrics registry as JSON after the batch "
             "('-' = stdout)",
    )
    batch.add_argument(
        "--trace-out", metavar="FILE",
        help="record plan/execute spans and write them as NDJSON "
             "('-' = stdout)",
    )
    batch.set_defaults(func=cmd_batch)

    stats = sub.add_parser(
        "stats", help="Table III statistics of a graph, or of an index store"
    )
    _add_graph_source(stats)
    stats.add_argument(
        "--store", metavar="DIR",
        help="report an index store instead: persisted keys, index sizes, "
             "writer-lock liveness, stale takeovers",
    )
    stats.add_argument(
        "--metrics", action="store_true",
        help="report the live process metrics registry instead "
             "(counters, gauges, latency histograms)",
    )
    stats.add_argument("--format", choices=("text", "json"), default="text")
    stats.set_defaults(func=cmd_stats)

    generate = sub.add_parser("generate", help="materialise a registry dataset")
    generate.add_argument("--dataset", choices=ALL_DATASETS, required=True)
    generate.add_argument("-o", "--output", required=True)
    generate.set_defaults(func=cmd_generate)

    index = sub.add_parser("index", help="build and save core indexes")
    _add_graph_source(index)
    index.add_argument(
        "-k", type=_parse_k_list, required=True, metavar="K[,K...]",
        help="one k, or several comma-separated (built in one shared scan)",
    )
    index.add_argument(
        "-o", "--output",
        help="text skyline dump (debug format; the binary store is primary)",
    )
    index.add_argument(
        "--save-store", metavar="DIR",
        help="persist graph + index into an on-disk index store",
    )
    index.add_argument(
        "--name", help="store key to save under (default: dataset name or "
                       "a fingerprint-derived key)",
    )
    index.set_defaults(func=cmd_index)

    serve = sub.add_parser(
        "serve", help="run the serving daemon (NDJSON protocol + /metrics)"
    )
    serve.add_argument("--store", required=True, metavar="DIR",
                       help="index store to serve (see `repro index "
                            "--save-store`)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7471,
        help="TCP port (0 binds an ephemeral port; default: 7471)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=64, metavar="N",
        help="admission-control bound; excess requests are rejected "
             "with an `overloaded` error frame (default: 64)",
    )
    serve.add_argument(
        "--outbox-depth", type=int, default=32, metavar="N",
        help="per-connection send-buffer bound, in chunks of up to 64 KiB (default: 32)",
    )
    serve.add_argument(
        "--capacity", type=int, default=16, metavar="N",
        help="index-registry LRU capacity (default: 16)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default per-request deadline for requests without a "
             "`timeout` field (default: none)",
    )
    serve.add_argument(
        "--terminal-grace", type=float, default=5.0, metavar="SECONDS",
        help="after a request's deadline expires, how long a client "
             "gets to accept the terminal frame before the daemon "
             "hangs up on it (default: 5)",
    )
    serve.add_argument(
        "--no-warm", action="store_true",
        help="skip preloading stored indexes at boot",
    )
    serve.add_argument(
        "--max-lag", type=float, default=None, metavar="SECONDS",
        help="freshness budget: a query against a key whose oldest "
             "unflushed append is older than this triggers a flush "
             "first (default: none, flush only on request)",
    )
    serve.set_defaults(func=cmd_serve)

    fsck = sub.add_parser(
        "fsck",
        help="scrub a store: verify checksums and manifest consistency, "
             "quarantine corrupt files to *.corrupt, repair what is "
             "rebuildable (exit 1 when issues were found)",
    )
    fsck.add_argument(
        "--store", required=True, metavar="DIR", help="store directory to scrub"
    )
    fsck.add_argument(
        "--dry-run", action="store_true",
        help="report issues without changing anything on disk",
    )
    fsck.add_argument(
        "--no-verify", action="store_true",
        help="skip payload checksum passes (structure/consistency only)",
    )
    fsck.add_argument("--format", choices=("text", "json"), default="text")
    fsck.set_defaults(func=cmd_fsck)

    experiments = sub.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments.add_argument("experiment")
    experiments.add_argument("--profile", choices=("quick", "full"))
    experiments.set_defaults(func=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "experiments":
        forward = [args.experiment]
        if args.profile:
            forward += ["--profile", args.profile]
        return experiments_main(forward)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
