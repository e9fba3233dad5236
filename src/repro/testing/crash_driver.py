"""The crash-campaign ingestion child: ``python -m repro.testing.crash_driver``.

Appends the deterministic :func:`~repro.testing.harness.campaign_edges`
workload into a WAL-backed :class:`~repro.core.maintenance.StreamingCoreService`
one edge at a time, printing ``ACK <index>`` (flushed) only *after*
each append's write-ahead record is durable, and snapshotting every
``--snapshot-every`` appends.  Run with ``REPRO_CRASHPOINT`` armed it
SIGKILLs itself mid-operation; the parent harness then audits what the
wreck recovers to.

The ACK line is the durability contract under test: everything printed
must survive the crash, anything not printed may vanish (or survive,
if the crash landed between the write and the acknowledgement — but
never partially).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.maintenance import StreamingCoreService
from repro.store.index_store import IndexStore
from repro.testing.harness import campaign_edges


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", required=True)
    parser.add_argument("--key", default="campaign")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--count", type=int, default=40)
    parser.add_argument("--snapshot-every", type=int, default=10)
    parser.add_argument("--ks", default="2")
    parser.add_argument("--segment-bytes", type=int, default=512)
    args = parser.parse_args(argv)

    ks = tuple(int(k) for k in args.ks.split(","))
    store = IndexStore(args.store)
    # Resume from whatever a previous (crashed) run left behind (an
    # empty stream on the first run), exactly like a restarted daemon
    # would — the workload index picks up at the number of edges
    # already recovered.
    service = StreamingCoreService.restore(
        store, ks, name=args.key, wal=True,
        wal_segment_bytes=args.segment_bytes,
    )

    workload = campaign_edges(args.seed, args.count)
    start = service.num_edges
    for index in range(start, len(workload)):
        u, v, t = workload[index]
        # Refresh at strict timestamp boundaries: the pending batch then
        # starts past the graph's last instant, so the incremental
        # delta-fold engages (instead of its boundary-tie fallback) and
        # the campaign deterministically reaches the ``fold.merge``
        # crash point.  A fold is pure memory — a crash inside it loses
        # nothing durable, which is exactly what the audit checks.
        if (
            service.num_pending > 0
            and index > 0
            and t > workload[index - 1][2]
        ):
            service.refresh(mode="incremental")
            print(f"FOLD {index}", flush=True)
        service.append(u, v, t)
        # The append returned: its WAL record is fsynced.  This line is
        # the acknowledgement the campaign holds us to.
        print(f"ACK {index}", flush=True)
        done = index + 1
        if args.snapshot_every and done % args.snapshot_every == 0:
            service.snapshot(store, name=args.key)
            print(f"SNAPSHOT {done}", flush=True)
    if service.wal is not None:
        service.wal.close()
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
