"""PR 9 durability benchmark: what does the write-ahead log cost?

PR 9 makes ingestion durable: every accepted append is written to a
crc32-framed WAL and fsynced before it is acknowledged.  This prices
that discipline:

* **no-wal** — appends into the in-memory streaming service only, the
  PR 3 baseline with zero durability;
* **wal-always** — one fsync per append (the log's only discipline, and
  the daemon's acknowledgement);

and measures the flip side, recovery: how long replaying a WAL of
N events takes when a store reopens.

There are **no hard performance gates** — fsync cost is hardware
truth, not a regression to fail on.  The report exists so drift is
visible across machines and revisions; only correctness (replay
completeness) fails the run.

Standalone script (not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_pr9_wal.py --smoke

writes ``BENCH_PR9.json`` next to the repository root.  ``--smoke``
appends 2k edges per mode (CI budget); the default 10k.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.maintenance import StreamingCoreService  # noqa: E402
from repro.store.wal import WriteAheadLog  # noqa: E402

SEED = 11
NODES = 600


def workload(count: int) -> list[tuple[str, str, int]]:
    rng = random.Random(SEED)
    edges, t = [], 1
    while len(edges) < count:
        if rng.random() < 0.5:
            t += 1
        u = rng.randrange(NODES)
        v = rng.randrange(NODES)
        if u == v:
            v = (v + 1) % NODES
        edges.append((f"n{u}", f"n{v}", t))
    return edges


def counted(wal: WriteAheadLog, name: str) -> int:
    """This log's sample of the ``repro_wal_*`` counter ``name``."""
    return int(wal.metrics.get(name).labels(wal.instance).value)


def time_mode(edges, make_wal) -> tuple[float, dict]:
    """Seconds to append every edge through a fresh service; WAL counts."""
    with tempfile.TemporaryDirectory() as tmp:
        wal = make_wal(pathlib.Path(tmp) / "wal")
        service = StreamingCoreService((2,), wal=wal)
        start = time.perf_counter()
        for u, v, t in edges:
            service.append(u, v, t)
        elapsed = time.perf_counter() - start
        stats = {}
        if wal is not None:
            stats = {
                "last_lsn": wal.last_lsn,
                "fsyncs": counted(wal, "repro_wal_fsyncs_total"),
                "rotations": counted(wal, "repro_wal_rotations_total"),
            }
            wal.close()
        return elapsed, stats


def time_replay(count: int) -> tuple[float, int]:
    """Seconds to open + replay a WAL holding ``count`` events."""
    edges = workload(count)
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp) / "wal"
        with WriteAheadLog(directory) as wal:
            for edge in edges:
                wal.append_edges([edge])
        start = time.perf_counter()
        with WriteAheadLog(directory) as wal:
            events = wal.replay()
        elapsed = time.perf_counter() - start
        return elapsed, len(events)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller workload (CI budget)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=REPO / "BENCH_PR9.json",
        help="output JSON path (default: <repo>/BENCH_PR9.json)",
    )
    args = parser.parse_args(argv)
    count = 2000 if args.smoke else 10000
    replay_lengths = [500, 2000] if args.smoke else [1000, 5000, 20000]

    edges = workload(count)
    failures: list[str] = []
    report: dict = {
        "bench": "pr9_wal",
        "smoke": bool(args.smoke),
        "appends": count,
        "modes": {},
        "replay": [],
    }

    modes = {
        "no-wal": lambda directory: None,
        "wal-always": WriteAheadLog,
    }
    for name, make_wal in modes.items():
        elapsed, stats = time_mode(edges, make_wal)
        entry = {
            "seconds": round(elapsed, 4),
            "appends_per_sec": round(count / elapsed, 1),
        }
        if stats:
            entry["fsyncs"] = stats["fsyncs"]
            entry["rotations"] = stats["rotations"]
            if stats["last_lsn"] != count:
                failures.append(
                    f"{name}: WAL holds {stats['last_lsn']} events, "
                    f"appended {count}"
                )
        report["modes"][name] = entry
        print(f"{name:11s}: {elapsed:7.3f}s  "
              f"{count / elapsed:9.1f} appends/s"
              + (f"  ({entry['fsyncs']} fsyncs)" if stats else ""))

    for length in replay_lengths:
        elapsed, replayed = time_replay(length)
        report["replay"].append({
            "events": length,
            "seconds": round(elapsed, 4),
            "events_per_sec": round(length / elapsed, 1),
        })
        if replayed != length:
            failures.append(
                f"replay of {length} events returned {replayed}"
            )
        print(f"replay {length:6d}: {elapsed:7.3f}s  "
              f"{length / elapsed:9.1f} events/s")

    report["ok"] = not failures
    if failures:
        report["failures"] = failures
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report: {args.out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
