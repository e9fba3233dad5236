"""On-disk persistence for compiled graphs and core indexes.

The store subsystem gives a serving process a warm start: instead of
paying a full Algorithm-2 run per ``(graph, k)`` on boot, precomputed
indexes are opened from disk in milliseconds —

* :mod:`repro.store.format` — the versioned binary blob container
  (little-endian flat int64 sections, crc32 integrity, mmap zero-copy
  reads with a plain-read fallback);
* :mod:`repro.store.codec` — graph and index encoders/decoders plus the
  graph fingerprint used for staleness detection;
* :mod:`repro.store.index_store` — the :class:`IndexStore` directory
  abstraction (JSON manifest, one directory per graph, one index file
  per ``k``);
* :mod:`repro.store.wal` — the per-key write-ahead edge log behind
  durable streaming ingestion (crc32-framed segments, one fsync per
  append, torn-tail recovery);
* :mod:`repro.store.fsck` — the scrubber behind ``repro fsck``
  (verify checksums and manifest↔file consistency, quarantine to
  ``<name>.corrupt``, repair what is rebuildable).

Typical use::

    from repro.store import IndexStore

    store = IndexStore("var/indexes")
    store.build_all(graph, [2, 3])               # offline prebuild
    ...
    registry = CoreIndexRegistry(store=store)
    index = registry.get(graph, 3)               # disk before compute

This binary store is the index's one persisted form;
``CoreIndex.dump_skyline`` (``repro index -o``) writes a text listing
of the skyline for inspection that nothing reads back.
"""

from repro.store.codec import (
    dump_graph,
    dump_index,
    graph_fingerprint,
    load_graph,
    load_index,
)
from repro.store.format import FORMAT_VERSION, Blob, read_blob, write_blob
from repro.store.fsck import FsckIssue, FsckReport, scrub_store
from repro.store.index_store import IndexStore, StreamRecovery
from repro.store.wal import WalEvent, WriteAheadLog, scan_segment

__all__ = [
    "Blob",
    "FORMAT_VERSION",
    "FsckIssue",
    "FsckReport",
    "IndexStore",
    "StreamRecovery",
    "WalEvent",
    "WriteAheadLog",
    "dump_graph",
    "dump_index",
    "graph_fingerprint",
    "load_graph",
    "load_index",
    "read_blob",
    "scan_segment",
    "scrub_store",
    "write_blob",
]
