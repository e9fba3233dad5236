"""Encoding and decoding of graphs and core indexes as store blobs.

Two blob kinds exist:

* ``"compiled-graph"`` — a :class:`~repro.graph.temporal_graph.TemporalGraph`
  together with its :class:`~repro.graph.csr.CompiledGraph` flat arrays.
  Loading reconstructs both without re-normalising, re-sorting or
  re-compiling; the compiled arrays are zero-copy views of the file
  mapping.  Vertex labels ride in the blob meta (JSON), which restricts
  persistable graphs to ``str``/``int`` labels.
* ``"core-index"`` — a :class:`~repro.core.index.CoreIndex` (VCT + ECS).
  The offset-indexed flat arrays written here are the index classes'
  *native* representation, so dumping copies the arrays out verbatim and
  loading hands the blob's sections straight to their ``from_flat``
  constructors — the in-memory and on-disk layouts coincide and a load
  is zero-copy.

Both blob kinds carry the graph *fingerprint* (edge count, span, raw
span and an edge-array crc32) in their meta, so staleness is detectable
from the file alone: an index whose fingerprint disagrees with the graph
it is asked to serve is treated as absent and rebuilt.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

from repro.core.coretime import CoreTimeResult, VertexCoreTimeIndex
from repro.core.index import CoreIndex
from repro.core.windows import EdgeCoreSkyline
from repro.errors import StoreError
from repro.graph.csr import TABLES, CompiledGraph
from repro.graph.temporal_graph import TemporalGraph
from repro.store.format import read_blob, write_blob

GRAPH_KIND = "compiled-graph"
INDEX_KIND = "core-index"


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------

def raw_time_column(graph: TemporalGraph) -> np.ndarray:
    """``raw_time_of(t)`` for ``t`` in ``1..tmax`` as one int64 array: the
    graph's raw-timestamp table, or ``1..tmax`` when it is not normalised."""
    if graph._raw_times:
        return np.asarray(graph._raw_times, dtype=np.int64)
    return np.arange(1, graph.tmax + 1, dtype=np.int64)


def graph_fingerprint(graph: TemporalGraph) -> dict:
    """A cheap content fingerprint: counts, spans and content crc32s.

    Computed straight from the graph's edge columns (no compile needed)
    in one numpy pass, plus crc32s of the vertex labels and the
    raw-timestamp table.  Two graphs with equal fingerprints hold the
    same edges with the same internal ids *and* the same labels and raw
    times — without the label/raw coverage, two structurally identical
    graphs over different vertex sets would silently share one store
    entry and a restore would resurrect the wrong labels.  A graph opened
    by :func:`load_graph` (which verifies the blob's checksum) returns (a
    copy of) the fingerprint the blob recorded for it instead of
    rehashing.
    """
    stored = graph._fingerprint
    if stored is not None:
        return {**stored, "raw_span": list(stored["raw_span"])}
    m = graph.num_edges
    if m:
        raw_span = [graph.raw_time_of(1), graph.raw_time_of(graph.tmax)]
    else:
        raw_span = [0, 0]
    # Type-tagged reprs hash any hashable label (fingerprints are also
    # taken of graphs the store could never persist).
    labels_blob = "\x00".join(
        [f"{type(label).__name__}:{label!r}" for label in graph._labels]
    ).encode("utf-8", "backslashreplace")
    return {
        "num_vertices": graph.num_vertices,
        "num_edges": m,
        "tmax": graph.tmax,
        "raw_span": raw_span,
        "edge_crc32": _crc32(np.column_stack(graph.edge_columns())),
        "label_crc32": zlib.crc32(labels_blob),
        "raw_time_crc32": _crc32(raw_time_column(graph)),
    }


def _crc32(values: np.ndarray) -> int:
    """crc32 of an int array's little-endian int64 bytes."""
    return zlib.crc32(np.ascontiguousarray(values, dtype="<i8"))


# ----------------------------------------------------------------------
# Graph blobs
# ----------------------------------------------------------------------

def _json_safe_labels(graph: TemporalGraph) -> list:
    labels = [graph.label_of(u) for u in range(graph.num_vertices)]
    for label in labels:
        if not isinstance(label, (str, int)) or isinstance(label, bool):
            raise StoreError(
                f"cannot persist vertex label {label!r} of type "
                f"{type(label).__name__}; the store requires str or int labels"
            )
    return labels


def dump_graph(
    path: str | os.PathLike[str], graph: TemporalGraph, *, fingerprint: dict | None = None
) -> int:
    """Write a graph (and its compiled flat arrays) as one blob.

    ``fingerprint`` passes the graph's :func:`graph_fingerprint` when the
    caller already holds it.
    """
    cg = graph.compiled()
    meta = {
        "num_vertices": cg.num_vertices,
        "num_edges": cg.num_edges,
        "tmax": cg.tmax,
        "num_slots": cg.num_slots,
        "num_pairs": cg.num_pairs,
        "num_dropped_self_loops": graph.num_dropped_self_loops,
        "labels": _json_safe_labels(graph),
        "fingerprint": fingerprint or graph_fingerprint(graph),
    }
    sections = {name: getattr(cg, name) for name in TABLES}
    sections["time_offset"] = cg.time_offset
    sections["raw_times"] = raw_time_column(graph)
    return write_blob(path, GRAPH_KIND, meta, sections)


def load_graph(path: str | os.PathLike[str]) -> TemporalGraph:
    """Reconstruct a graph blob: exact ids, compiled view attached.

    The graph's edge columns and prefix table and every compiled table
    are zero-copy views of the blob's mapping; only the raw-time table is
    materialised (O(tmax), no sorting).  The blob's checksum is verified,
    so the graph keeps the fingerprint the blob recorded, and opening its
    indexes does not rehash the edges and labels.
    """
    blob = read_blob(path)
    if blob.kind != GRAPH_KIND:
        raise StoreError(f"{blob.path}: expected a {GRAPH_KIND} blob, got {blob.kind!r}")
    meta = blob.meta
    parts = blob.sections
    graph = TemporalGraph._from_parts(
        edge_columns=(parts["edge_u"], parts["edge_v"], parts["edge_t"]),
        labels=tuple(meta["labels"]),
        raw_times=tuple(parts["raw_times"]),
        time_offset=parts["time_offset"],
        num_dropped_self_loops=meta.get("num_dropped_self_loops", 0),
    )
    graph._compiled_cache = CompiledGraph._from_parts(meta, parts, graph.time_offsets())
    stored = meta.get("fingerprint")
    if stored is not None:
        # The payload (edges, raw times) passed its checksum, so this is
        # the fingerprint dump_graph took of exactly these parts.
        graph._fingerprint = stored
    return graph


# ----------------------------------------------------------------------
# Index blobs
# ----------------------------------------------------------------------

def dump_index(
    path: str | os.PathLike[str], index: CoreIndex, *, fingerprint: dict | None = None
) -> int:
    """Write a CoreIndex (VCT + ECS) as one flat-array blob.

    The flat arrays *are* the index classes' native representation, so
    this is a straight copy-out — no per-entry conversion loop.
    ``fingerprint`` passes the graph's :func:`graph_fingerprint` when the
    caller already holds it.
    """
    vct, ecs = index.vct, index.ecs
    vct_offsets, vct_starts, vct_cts = vct.flat_parts()
    ecs_offsets, ecs_t1, ecs_t2 = ecs.flat_parts()

    if vct.span != ecs.span:
        raise StoreError(f"index spans disagree: vct {vct.span} vs ecs {ecs.span}")
    meta = {
        "k": index.k,
        "span": list(vct.span),
        "num_vertices": vct.num_vertices,
        "num_edges": ecs.num_edges,
        "vct_size": vct.size(),
        "ecs_size": ecs.size(),
        "fingerprint": fingerprint or graph_fingerprint(index.graph),
    }
    sections = {
        "vct_offsets": vct_offsets,
        "vct_starts": vct_starts,
        "vct_cts": vct_cts,
        "ecs_offsets": ecs_offsets,
        "ecs_t1": ecs_t1,
        "ecs_t2": ecs_t2,
    }
    return write_blob(path, INDEX_KIND, meta, sections)


def load_index(path: str | os.PathLike[str], graph: TemporalGraph) -> CoreIndex:
    """Open an index blob against ``graph`` (zero-copy flat arrays).

    The blob's sections feed the index classes' native ``from_flat``
    constructors directly — nothing is materialised at load time.
    Raises :class:`StoreError` when the blob's fingerprint does not
    match ``graph`` — serving an index for a different or stale graph
    would silently return wrong answers.
    """
    blob = read_blob(path)
    if blob.kind != INDEX_KIND:
        raise StoreError(f"{blob.path}: expected a {INDEX_KIND} blob, got {blob.kind!r}")
    meta = blob.meta
    if meta.get("fingerprint") != graph_fingerprint(graph):
        raise StoreError(
            f"{blob.path}: index fingerprint does not match the graph "
            f"(stale or foreign index)"
        )
    k = meta["k"]
    span = tuple(meta["span"])
    parts = blob.sections
    vct = VertexCoreTimeIndex.from_flat(
        parts["vct_offsets"], parts["vct_starts"], parts["vct_cts"], k, span
    )
    ecs = EdgeCoreSkyline.from_flat(
        parts["ecs_offsets"], parts["ecs_t1"], parts["ecs_t2"], k, span
    )
    return CoreIndex.from_core_times(graph, k, CoreTimeResult(vct, ecs))
