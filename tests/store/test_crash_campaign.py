"""The crash-point matrix: SIGKILL a child at every registered point,
then prove recovery holds (tests of :mod:`repro.testing.harness`)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.store import IndexStore
from repro.store.fsck import scrub_store
from repro.testing.crashpoints import registered_crashpoints
from repro.testing.harness import (
    CAMPAIGN_KEY,
    CAMPAIGN_SEGMENT_BYTES,
    audit_recovery,
    campaign_edges,
    campaign_store,
    run_campaign_point,
    run_crash_child,
)


def fail_report(audit) -> str:
    return (
        f"problems={audit.problems}\n"
        f"acked={len(audit.outcome.acked)} recovered={audit.recovered_count}\n"
        f"stderr tail:\n{audit.outcome.stderr[-1500:]}"
    )


class TestCampaignMatrix:
    @pytest.mark.parametrize("point", registered_crashpoints())
    def test_first_hit(self, tmp_path, point):
        """Crash at the very first time each point is reached."""
        audit = run_campaign_point(campaign_store(tmp_path), point)
        assert audit.ok, fail_report(audit)

    @pytest.mark.parametrize("point", [
        "wal.append.post-fsync:7",
        "wal.append.post-write.pre-fsync:13",
        "snapshot.post-blobs.pre-commit:2",
        "snapshot.post-indexes.pre-trim:3",
        "manifest.post-rename:4",
    ])
    def test_deep_hits(self, tmp_path, point):
        """Crash later in the run, after snapshots have already landed."""
        audit = run_campaign_point(campaign_store(tmp_path), point)
        assert audit.ok, fail_report(audit)

    def test_clean_run_satisfies_every_invariant(self, tmp_path):
        """An arm-count past the workload means the child runs to DONE —
        the invariants must hold for the undamaged store too."""
        audit = run_campaign_point(
            campaign_store(tmp_path), "wal.append.post-fsync:9999"
        )
        assert audit.ok, fail_report(audit)
        assert not audit.outcome.crashed
        assert audit.recovered_count == 40


class TestCrashThenResume:
    def test_killed_child_resumes_to_completion(self, tmp_path):
        """The real recovery story: crash mid-run, restart the *same*
        driver against the wreck, and it finishes the workload exactly —
        acknowledged appends are never re-sent, none are lost."""
        root = campaign_store(tmp_path)
        outcome = run_crash_child(root, "wal.append.post-fsync:15")
        assert outcome.crashed

        env = dict(os.environ)
        env.pop("REPRO_CRASHPOINT", None)
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.testing.crash_driver",
                "--store", str(root),
                "--key", CAMPAIGN_KEY,
                "--seed", "11", "--count", "40",
                "--snapshot-every", "10",
                "--segment-bytes", str(CAMPAIGN_SEGMENT_BYTES),
            ],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-1500:]
        assert "DONE" in proc.stdout
        resumed_acks = [
            int(line.split()[1])
            for line in proc.stdout.splitlines()
            if line.startswith("ACK ")
        ]
        # The resumed run picked up where the recovered store ended —
        # strictly after every append the first run acknowledged.
        if resumed_acks and outcome.acked:
            assert min(resumed_acks) > max(outcome.acked)
        assert resumed_acks[-1] == 39

        store = IndexStore(root)
        recovery = store.recover(
            CAMPAIGN_KEY, segment_bytes=CAMPAIGN_SEGMENT_BYTES
        )
        recovery.wal.close()
        total = (
            (recovery.graph.num_edges if recovery.graph is not None else 0)
            + len(recovery.events)
        )
        assert total == 40
        assert scrub_store(root).clean

    def test_audit_flags_lost_acknowledged_appends(self, tmp_path):
        """The harness itself must catch a durability hole: wreck the
        store behind its back and the audit must go red."""
        root = campaign_store(tmp_path)
        outcome = run_crash_child(root, "wal.append.post-fsync:20")
        assert outcome.crashed
        # Sabotage: delete the whole WAL — acknowledged appends vanish.
        for segment in (root / CAMPAIGN_KEY / "wal").glob("wal-*.seg"):
            segment.unlink()
        audit = audit_recovery(root, outcome)
        assert not audit.ok
        assert any("lost acknowledged" in p for p in audit.problems)


class TestWorkload:
    def test_campaign_edges_deterministic_and_ordered(self):
        a = campaign_edges(11, 40)
        b = campaign_edges(11, 40)
        assert a == b
        assert len(a) == 40
        times = [t for _, _, t in a]
        assert times == sorted(times)
        assert all(u != v for u, v, _ in a)

    def test_different_seeds_differ(self):
        assert campaign_edges(11, 40) != campaign_edges(12, 40)
