"""Command-line interface tests (in-process via ``main(argv)``)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.graph.io import dump_edge_list


@pytest.fixture()
def graph_file(tmp_path, paper_graph):
    path = tmp_path / "example.txt"
    dump_edge_list(paper_graph, path, raw_timestamps=False)
    return str(path)


class TestQuery:
    def test_text_output(self, graph_file, capsys):
        assert main(["query", "--input", graph_file, "-k", "2",
                     "--range", "1", "4"]) == 0
        out = capsys.readouterr().out
        assert "2 temporal 2-core(s)" in out
        assert "TTI [1, 4]" in out
        assert "TTI [2, 3]" in out

    def test_json_output(self, graph_file, capsys):
        assert main(["query", "--input", graph_file, "-k", "2",
                     "--range", "1", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_results"] == 2
        assert {tuple(c["tti"]) for c in payload["cores"]} == {(1, 4), (2, 3)}

    def test_streaming_mode(self, graph_file, capsys):
        assert main(["query", "--input", graph_file, "-k", "2",
                     "--streaming", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_results"] == 13
        assert "cores" not in payload

    def test_engine_selection(self, graph_file, capsys):
        assert main(["query", "--input", graph_file, "-k", "2",
                     "--engine", "otcd", "--range", "1", "4"]) == 0
        assert "2 temporal 2-core(s)" in capsys.readouterr().out

    def test_full_span_default(self, graph_file, capsys):
        assert main(["query", "--input", graph_file, "-k", "2"]) == 0
        assert "13 temporal 2-core(s)" in capsys.readouterr().out

    def test_missing_source_errors(self, capsys):
        assert main(["query", "-k", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_output_ndjson_streams_one_line_per_core(self, graph_file, capsys):
        assert main(["query", "--input", graph_file, "-k", "2",
                     "--range", "1", "4", "--output", "ndjson"]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        assert {tuple(line["tti"]) for line in lines} == {(1, 4), (2, 3)}
        for line in lines:
            assert line["num_edges"] == len(line["edge_ids"])

    def test_output_count_prints_counters_only(self, graph_file, capsys):
        assert main(["query", "--input", graph_file, "-k", "2",
                     "--output", "count"]) == 0
        fields = capsys.readouterr().out.split()
        assert int(fields[0]) == 13
        assert int(fields[1]) > 13  # |R| counts edges across cores

    def test_output_ndjson_from_store(self, graph_file, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["query", "--input", graph_file, "-k", "2",
                     "--range", "1", "4", "--store", store_dir,
                     "--output", "ndjson"]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        assert {tuple(line["tti"]) for line in lines} == {(1, 4), (2, 3)}


class TestBatch:
    @pytest.fixture()
    def query_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text(
            "# mixed-k batch over the paper example\n"
            "2 1 4\n"
            "2 2 4\n"
            "2 1 4\n"
            "3 1 7\n",
            encoding="utf-8",
        )
        return str(path)

    def test_text_answers_and_plan_summary(self, graph_file, query_file, capsys):
        assert main(["batch", "--input", graph_file,
                     "--queries", query_file]) == 0
        out = capsys.readouterr().out
        assert "k=2 [1, 4]: 2 core(s)" in out
        assert "plan: 4 queries" in out
        assert "1 identical deduped" in out

    def test_json_answers_match_single_queries(self, graph_file, query_file, capsys):
        assert main(["batch", "--input", graph_file, "--queries", query_file,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"]["requests"] == 4
        answers = payload["answers"]
        assert [a["time_range"] for a in answers] == [
            [1, 4], [2, 4], [1, 4], [1, 7]]
        # The deduped repeat answers identically.
        assert answers[0] == answers[2]
        assert answers[0]["num_results"] == 2

    def test_store_persists_missing_entries(
        self, graph_file, query_file, tmp_path, capsys
    ):
        from repro.store import IndexStore

        store_dir = tmp_path / "store"
        for _ in range(2):  # cold (build + commit), then warm (load)
            assert main(["batch", "--input", graph_file, "--queries", query_file,
                         "--store", str(store_dir), "--format", "json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert [a["num_results"] for a in payload["answers"]] == [2, 1, 2, 0]
        store = IndexStore(store_dir)
        (key,) = store.keys()
        assert store.stored_ks(key) == [2, 3]

    def test_malformed_line_names_line_number(self, graph_file, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 4\nnot a query\n", encoding="utf-8")
        assert main(["batch", "--input", graph_file,
                     "--queries", str(path)]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_empty_query_file_errors(self, graph_file, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# only comments\n", encoding="utf-8")
        assert main(["batch", "--input", graph_file,
                     "--queries", str(path)]) == 2
        assert "no queries" in capsys.readouterr().err


class TestObservabilitySurfaces:
    @pytest.fixture()
    def query_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text("2 1 4\n2 1 4\n2 2 6\n", encoding="utf-8")
        return str(path)

    def test_query_metrics_out_writes_registry_json(
        self, graph_file, tmp_path, capsys
    ):
        metrics = tmp_path / "metrics.json"
        assert main(["query", "--input", graph_file, "-k", "2",
                     "--range", "1", "4", "--metrics-out", str(metrics)]) == 0
        snap = json.loads(metrics.read_text(encoding="utf-8"))
        assert snap["repro_plan_requests_total"]["kind"] == "counter"
        assert "repro_execute_seconds" in snap

    def test_query_metrics_out_respects_streaming_outputs(
        self, graph_file, tmp_path, capsys
    ):
        # The count/ndjson paths return early; metrics must still land.
        metrics = tmp_path / "metrics.json"
        assert main(["query", "--input", graph_file, "-k", "2",
                     "--output", "count", "--metrics-out", str(metrics)]) == 0
        assert "repro_plan_requests_total" in json.loads(
            metrics.read_text(encoding="utf-8")
        )

    def test_batch_metrics_and_trace_out(
        self, graph_file, query_file, tmp_path, capsys
    ):
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.ndjson"
        assert main(["batch", "--input", graph_file, "--queries", query_file,
                     "--metrics-out", str(metrics),
                     "--trace-out", str(trace)]) == 0
        snap = json.loads(metrics.read_text(encoding="utf-8"))
        assert "repro_plan_deduped_total" in snap
        events = [
            json.loads(line)
            for line in trace.read_text(encoding="utf-8").splitlines()
        ]
        names = {event["name"] for event in events}
        assert {"plan", "execute", "enumerate", "sink_flush"} <= names
        (plan,) = (e for e in events if e["name"] == "plan")
        assert plan["attrs"]["requests"] == 3

    def test_batch_metrics_out_unwritable_path_errors(
        self, graph_file, query_file, capsys
    ):
        assert main(["batch", "--input", graph_file, "--queries", query_file,
                     "--metrics-out", "/nonexistent-dir/m.json"]) == 2
        assert "cannot write metrics" in capsys.readouterr().err

    def test_stats_store_reports_keys_sizes_and_free_lock(
        self, graph_file, tmp_path, capsys
    ):
        store_dir = tmp_path / "store"
        assert main(["index", "--input", graph_file, "-k", "2,3",
                     "--save-store", str(store_dir), "--name", "demo"]) == 0
        capsys.readouterr()
        assert main(["stats", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert "k=2" in out and "k=3" in out
        assert "lock: free" in out
        assert "stale lock takeover" in out

    def test_stats_store_json_reports_lock_liveness(
        self, graph_file, tmp_path, capsys
    ):
        store_dir = tmp_path / "store"
        assert main(["index", "--input", graph_file, "-k", "2",
                     "--save-store", str(store_dir), "--name", "demo"]) == 0
        capsys.readouterr()
        # Plant a lock file owned by a dead pid: liveness must read stale.
        lock = store_dir / "demo" / ".lock"
        lock.write_text(
            json.dumps({"pid": 2 ** 22 + 1, "acquired_at": 1.0}),
            encoding="utf-8",
        )
        assert main(["stats", "--store", str(store_dir),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload["keys"]
        assert entry["key"] == "demo"
        assert entry["indexes"][0]["k"] == 2
        assert entry["lock"]["alive"] is False
        assert payload["stale_takeovers"] == 0
        # And the text rendering names the stale holder.
        assert main(["stats", "--store", str(store_dir)]) == 0
        assert "stale (holder dead)" in capsys.readouterr().out

    def test_stats_store_live_lock_reads_alive(
        self, graph_file, tmp_path, capsys
    ):
        import os

        store_dir = tmp_path / "store"
        assert main(["index", "--input", graph_file, "-k", "2",
                     "--save-store", str(store_dir), "--name", "demo"]) == 0
        capsys.readouterr()
        lock = store_dir / "demo" / ".lock"
        lock.write_text(
            json.dumps({"pid": os.getpid(), "acquired_at": 1.0}),
            encoding="utf-8",
        )
        assert main(["stats", "--store", str(store_dir),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["keys"][0]["lock"]["alive"] is True

    def test_stats_metrics_reports_live_registry(self, capsys):
        assert main(["stats", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "== counters ==" in out
        assert "repro_plan_requests_total" in out

    def test_stats_metrics_json_is_a_registry_snapshot(
        self, graph_file, capsys
    ):
        assert main(["stats", "--input", graph_file, "--metrics",
                     "--format", "json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["repro_plan_requests_total"]["kind"] == "counter"

    def test_stats_store_needs_no_graph_source(self, tmp_path, capsys):
        store_dir = tmp_path / "empty-store"
        store_dir.mkdir()
        assert main(["stats", "--store", str(store_dir)]) == 0
        assert "0 graph(s)" in capsys.readouterr().out


class TestStats:
    def test_text(self, graph_file, capsys):
        assert main(["stats", "--input", graph_file]) == 0
        out = capsys.readouterr().out
        assert "vertices: 9" in out.replace("  ", " ").replace("  ", " ") or "9" in out
        assert "kmax" in out

    def test_json(self, graph_file, capsys):
        assert main(["stats", "--input", graph_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vertices"] == 9
        assert payload["kmax"] == 2

    def test_dataset_source(self, capsys):
        assert main(["stats", "--dataset", "FB", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["temporal_edges"] == 1200


class TestGenerateAndIndex:
    def test_generate(self, tmp_path, capsys):
        out_file = tmp_path / "fb.txt"
        assert main(["generate", "--dataset", "FB", "-o", str(out_file)]) == 0
        assert out_file.exists()
        assert "wrote 1200 edges" in capsys.readouterr().out

    def test_index_round_trip(self, graph_file, tmp_path, capsys):
        out_file = tmp_path / "skyline.ecs"
        assert main(["index", "--input", graph_file, "-k", "2",
                     "-o", str(out_file)]) == 0
        from repro.core.index import CoreIndex
        from repro.graph.io import load_edge_list

        ecs = CoreIndex(load_edge_list(graph_file), 2).ecs
        header, *lines = out_file.read_text().splitlines()
        assert header == f"# ecs k=2 span=1,{ecs.span[1]} edges={ecs.num_edges}"
        listed = {}
        for line in lines:
            eid, windows = line.split(": ")
            listed[int(eid)] = tuple(
                tuple(int(t) for t in window.split(","))
                for window in windows.split()
            )
        assert listed == {
            eid: ecs.windows_of(eid)
            for eid in range(ecs.num_edges)
            if ecs.windows_of(eid)
        }
        assert sum(map(len, listed.values())) == 18  # Table II window count


class TestIndexStoreCli:
    def test_index_requires_some_sink(self, graph_file, capsys):
        assert main(["index", "--input", graph_file, "-k", "2"]) == 2
        assert "save-store" in capsys.readouterr().err

    def test_index_save_store(self, graph_file, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(["index", "--input", graph_file, "-k", "2",
                     "--save-store", str(store_dir), "--name", "paper"]) == 0
        assert "binary store" in capsys.readouterr().out
        from repro.store import IndexStore

        store = IndexStore(store_dir)
        assert store.keys() == ["paper"]
        assert store.stored_ks("paper") == [2]

    def test_index_save_store_prebuilds_a_dataset(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(["index", "--save-store", str(store_dir), "--dataset", "FB",
                     "-k", "2,3"]) == 0
        out = capsys.readouterr().out
        assert "k=2" in out and "k=3" in out
        from repro.store import IndexStore

        assert IndexStore(store_dir).stored_ks("FB") == [2, 3]

    def test_index_save_store_sorts_and_dedups_comma_ks(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(["index", "--save-store", str(store_dir), "--dataset", "FB",
                     "-k", "3,2,3"]) == 0
        from repro.store import IndexStore

        assert IndexStore(store_dir).stored_ks("FB") == [2, 3]

    def test_index_rejects_space_separated_ks(self, tmp_path, capsys):
        # "-k 2 3" must fail loudly, not silently build k=2 alone.
        store_dir = tmp_path / "store"
        with pytest.raises(SystemExit) as exited:
            main(["index", "--save-store", str(store_dir), "--dataset", "FB",
                  "-k", "2", "3"])
        assert exited.value.code == 2
        assert "unrecognized arguments: 3" in capsys.readouterr().err
        assert not store_dir.exists()

    def test_index_comma_separated_ks(self, graph_file, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(["index", "--input", graph_file, "-k", "2,3,5",
                     "--save-store", str(store_dir), "--name", "paper"]) == 0
        out = capsys.readouterr().out
        assert "k=2" in out and "k=3" in out and "k=5" in out
        from repro.store import IndexStore

        assert IndexStore(store_dir).stored_ks("paper") == [2, 3, 5]

    def test_index_text_dump_rejects_multiple_ks(self, graph_file, tmp_path, capsys):
        assert main(["index", "--input", graph_file, "-k", "2,3",
                     "-o", str(tmp_path / "dump.ecs")]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_index_save_store_is_idempotent_and_reports_reuse(
        self, tmp_path, capsys
    ):
        store_dir = tmp_path / "store"
        assert main(["index", "--save-store", str(store_dir), "--dataset", "FB",
                     "-k", "2"]) == 0
        capsys.readouterr()
        assert main(["index", "--save-store", str(store_dir), "--dataset", "FB",
                     "-k", "2,3"]) == 0
        out = capsys.readouterr().out
        assert "already stored" in out and "k=3" in out

    def test_index_save_store_reports_rebuild_not_reuse_for_corrupt_entry(
        self, tmp_path, capsys
    ):
        store_dir = tmp_path / "store"
        assert main(["index", "--save-store", str(store_dir), "--dataset", "FB",
                     "-k", "2"]) == 0
        capsys.readouterr()
        path = store_dir / "FB" / "k2.idx"
        path.write_bytes(path.read_bytes()[:-32])  # truncate: crc fails
        assert main(["index", "--save-store", str(store_dir), "--dataset", "FB",
                     "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "already stored" not in out  # it was rebuilt, say so
        assert "k=2" in out

    def test_index_requires_some_k(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["index", "--save-store", str(tmp_path / "s"),
                  "--dataset", "FB"])
        assert exited.value.code == 2
        assert "-k" in capsys.readouterr().err

    def test_query_from_store_without_input(self, graph_file, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(["index", "--input", graph_file, "-k", "2",
                     "--save-store", str(store_dir)]) == 0
        capsys.readouterr()
        # No --input: the store's only graph is served straight from disk.
        assert main(["query", "--store", str(store_dir), "-k", "2",
                     "--range", "1", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "store"
        assert payload["num_results"] == 2
        assert {tuple(c["tti"]) for c in payload["cores"]} == {(1, 4), (2, 3)}

    def test_query_with_store_builds_and_persists_on_miss(
        self, graph_file, tmp_path, capsys
    ):
        store_dir = tmp_path / "store"
        assert main(["query", "--input", graph_file, "-k", "2",
                     "--store", str(store_dir)]) == 0
        assert "13 temporal 2-core(s)" in capsys.readouterr().out
        from repro.store import IndexStore

        store = IndexStore(store_dir)
        assert len(store.keys()) == 1
        assert store.stored_ks(store.keys()[0]) == [2]

    def test_query_with_store_graph_finds_graph_under_another_key(
        self, graph_file, tmp_path, capsys, monkeypatch
    ):
        store_dir = tmp_path / "store"
        assert main(["index", "--input", graph_file, "-k", "2",
                     "--save-store", str(store_dir), "--name", "paper"]) == 0
        capsys.readouterr()
        import repro.core.multik as multik_module

        def explode(*args, **kwargs):
            raise AssertionError("a stored index was rebuilt")

        monkeypatch.setattr(multik_module, "compute_core_times_multi", explode)
        assert main(["query", "--input", graph_file, "-k", "2",
                     "--store", str(store_dir), "--store-graph", "other"]) == 0
        assert "13 temporal 2-core(s)" in capsys.readouterr().out
        from repro.store import IndexStore

        store = IndexStore(store_dir)
        assert store.keys() == ["paper"]
        assert store.stored_ks("paper") == [2]

    def test_query_empty_store_without_input_errors(self, tmp_path, capsys):
        assert main(["query", "--store", str(tmp_path / "store"), "-k", "2"]) == 2
        assert "store-graph" in capsys.readouterr().err


class TestFsck:
    @pytest.fixture()
    def store_dir(self, tmp_path, paper_graph):
        from repro.core.index import CoreIndex
        from repro.store import IndexStore

        root = tmp_path / "store"
        store = IndexStore(root)
        store.save_graph(paper_graph, name="g")
        store.save_index(CoreIndex(paper_graph, 2), name="g")
        return root

    def test_clean_store_exits_zero(self, store_dir, capsys):
        assert main(["fsck", "--store", str(store_dir)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_issues_exit_one_and_quarantine(self, store_dir, capsys):
        index = store_dir / "g" / "k2.idx"
        data = bytearray(index.read_bytes())
        data[-4] ^= 0xFF
        index.write_bytes(bytes(data))
        assert main(["fsck", "--store", str(store_dir)]) == 1
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert (store_dir / "g" / "k2.idx.corrupt").exists()

    def test_dry_run_reports_without_touching(self, store_dir, capsys):
        index = store_dir / "g" / "k2.idx"
        data = bytearray(index.read_bytes())
        data[-4] ^= 0xFF
        index.write_bytes(bytes(data))
        assert main(["fsck", "--store", str(store_dir), "--dry-run"]) == 1
        assert "would-quarantine" in capsys.readouterr().out
        assert index.exists()

    def test_json_format(self, store_dir, capsys):
        assert main(["fsck", "--store", str(store_dir),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True

    def test_missing_store_errors(self, tmp_path, capsys):
        assert main(["fsck", "--store", str(tmp_path / "nope")]) == 2
        assert capsys.readouterr().err


class TestExperimentsPassthrough:
    def test_table1(self, capsys):
        assert main(["experiments", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out
