"""Result sink unit tests: counters, delivery semantics, streaming."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import native
from repro.core.enumerate import enumerate_temporal_kcores
from repro.serve.sinks import CountSink, MaterializingSink, NDJSONSink


def emit_batches(sink):
    """Two hand-built batches: ts=2 with two cores, ts=3 with one."""
    sink.emit(
        2,
        np.array([5, 7], dtype=np.int64),
        np.array([2, 3], dtype=np.int64),
        np.array([10, 11, 12], dtype=np.int64),
    )
    sink.emit(
        3,
        np.array([7], dtype=np.int64),
        np.array([1], dtype=np.int64),
        np.array([12], dtype=np.int64),
    )
    sink.finish(True)


class TestCounters:
    @pytest.mark.parametrize(
        "factory",
        [CountSink, MaterializingSink, lambda: NDJSONSink(io.StringIO())],
    )
    def test_every_sink_counts_identically(self, factory):
        sink = factory()
        emit_batches(sink)
        assert sink.num_results == 3
        assert sink.total_edges == 6
        assert sink.completed

    def test_result_packaging(self):
        sink = CountSink()
        emit_batches(sink)
        result = sink.result("enum", 2, (2, 7))
        assert (result.num_results, result.total_edges) == (3, 6)
        assert result.cores is None
        assert result.completed

    def test_finish_false_is_sticky(self):
        sink = CountSink()
        sink.finish(False)
        sink.finish(True)
        assert not sink.completed


class TestMaterializing:
    def test_cores_are_prefixes_of_the_run(self):
        sink = MaterializingSink()
        emit_batches(sink)
        assert [core.tti for core in sink.cores] == [(2, 5), (2, 7), (3, 7)]
        assert [core.edge_ids for core in sink.cores] == [
            (10, 11), (10, 11, 12), (12,)]
        result = sink.result("enum", 2, (2, 7))
        assert result.cores is sink.cores


class TestNDJSON:
    def test_one_line_per_core(self):
        stream = io.StringIO()
        sink = NDJSONSink(stream)
        emit_batches(sink)
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert lines == [
            {"tti": [2, 5], "num_edges": 2, "edge_ids": [10, 11]},
            {"tti": [2, 7], "num_edges": 3, "edge_ids": [10, 11, 12]},
            {"tti": [3, 7], "num_edges": 1, "edge_ids": [12]},
        ]

    def test_without_edge_ids_lines_are_constant_size(self):
        stream = io.StringIO()
        sink = NDJSONSink(stream, edge_ids=False)
        emit_batches(sink)
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert lines[0] == {"tti": [2, 5], "num_edges": 2}
        assert all("edge_ids" not in line for line in lines)

    def test_streams_during_enumeration_not_after(self, paper_graph):
        written_at: list[int] = []

        class Spy(io.StringIO):
            def write(self, text):
                written_at.append(text.count("\n"))
                return super().write(text)

        stream = Spy()
        enumerate_temporal_kcores(paper_graph, 2, sink=NDJSONSink(stream))
        assert sum(written_at) == 13  # one line per core, as emitted


def reference_ndjson(batches, *, edge_ids: bool = True) -> str:
    """The per-core ``json.dumps`` line builder — the NDJSON format oracle."""
    lines = []
    for ts, ends, prefix_lens, eids in batches:
        run = eids.tolist()
        for te, n in zip(ends.tolist(), prefix_lens.tolist()):
            core = {"tti": [ts, te], "num_edges": n}
            if edge_ids:
                core["edge_ids"] = run[:n]
            lines.append(json.dumps(core) + "\n")
    return "".join(lines)


def ndjson_of(batches, *, edge_ids: bool = True) -> str:
    stream = io.StringIO()
    sink = NDJSONSink(stream, edge_ids=edge_ids)
    for batch in batches:
        sink.emit(*batch)
    sink.finish(True)
    return stream.getvalue()


def batch(ts, ends, prefix_lens, run):
    return (
        ts,
        np.array(ends, dtype=np.int64),
        np.array(prefix_lens, dtype=np.int64),
        np.array(run, dtype=np.int64),
    )


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

#: Edge ids of every decimal width, the boundaries in particular.
edge_id = st.one_of(
    st.sampled_from([0, 9, 10, 99, 100, 99999, 100000, INT64_MAX]),
    st.integers(0, INT64_MAX),
)

#: Raw times of every sign and width, the int64 extremes in particular.
raw_time = st.one_of(
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -100, -1, 0, 9, INT64_MAX - 1, INT64_MAX]),
    st.integers(INT64_MIN, INT64_MAX),
)


@st.composite
def ndjson_batches(draw):
    out = []
    for _ in range(draw(st.integers(0, 4))):
        run = draw(st.lists(edge_id, min_size=1, max_size=40))
        cores = draw(st.integers(1, 12))
        prefix_lens = sorted(
            draw(st.lists(st.integers(0, len(run)), min_size=cores, max_size=cores))
        )
        ts = draw(raw_time)
        ends = sorted(
            draw(st.lists(st.integers(ts, INT64_MAX), min_size=cores, max_size=cores))
        )
        out.append(batch(ts, ends, prefix_lens, run))
    return out


class TestNDJSONOracle:
    """``NDJSONSink``'s prefix-shared encoder against per-core ``json.dumps``."""

    @settings(max_examples=200, deadline=None)
    @given(ndjson_batches(), st.booleans())
    @example([batch(3, [4], [4], [0, 9, 10, 99999])], True)
    @example([batch(3, [4], [1], [99999, 0])], True)
    @example([batch(1, [7], [3], [5, 6, 7])], False)
    @example([batch(INT64_MIN, [-1, INT64_MAX], [1, 2], [INT64_MAX, 0])], True)
    @example([batch(INT64_MIN, [INT64_MIN, INT64_MAX], [0, 3], [1, 2, 3])], False)
    def test_byte_identical_to_json_dumps(self, batches, edge_ids):
        assert ndjson_of(batches, edge_ids=edge_ids) == reference_ndjson(
            batches, edge_ids=edge_ids
        )

    @pytest.mark.parametrize("edge_ids", [True, False])
    def test_many_cores_share_one_run(self, edge_ids):
        run = list(range(0, 200_000, 997))
        prefix_lens = list(range(1, len(run) + 1))
        batches = [batch(5, range(5, 5 + len(run)), prefix_lens, run)]
        assert ndjson_of(batches, edge_ids=edge_ids) == reference_ndjson(
            batches, edge_ids=edge_ids
        )

    def test_single_core_whose_prefix_is_the_whole_run(self):
        batches = [batch(2, [9], [4], [0, 9, 10, 99999])]
        assert ndjson_of(batches) == (
            '{"tti": [2, 9], "num_edges": 4, "edge_ids": [0, 9, 10, 99999]}\n'
        )
        assert ndjson_of(batches) == reference_ndjson(batches)

    def test_one_write_per_batch(self):
        writes = []

        class Spy(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        sink = NDJSONSink(Spy())
        emit_batches(sink)
        assert [text.count("\n") for text in writes] == [2, 1]
        assert all(text.endswith("\n") for text in writes)


    @pytest.mark.parametrize(
        "column, bad",
        [
            (1, np.arange(3, dtype=np.int32)),
            (2, np.arange(6, dtype=np.int64)[::2]),
            (3, np.arange(3, dtype=np.float64)),
            (3, np.arange(12, dtype=np.int64)[::4]),
        ],
    )
    def test_a_malformed_batch_is_refused_before_the_kernel(self, monkeypatch, column, bad):
        kernels = native.library()

        def render_frames(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(native, "library", lambda: kernels._replace(render_frames=render_frames))
        sink = NDJSONSink(io.StringIO())
        args = list(batch(2, [5, 7, 9], [1, 2, 3], [10, 11, 12]))
        args[column] = bad
        with pytest.raises(ValueError):
            sink.emit(*args)

    def test_a_prefix_longer_than_the_run_is_refused(self):
        sink = NDJSONSink(io.StringIO())
        with pytest.raises(ValueError):
            sink.emit(*batch(2, [5, 7], [1, 4], [10, 11, 12]))
