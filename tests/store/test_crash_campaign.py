"""The crash-point matrix: SIGKILL ``repro serve`` at every registered
point, restart it, and prove recovery holds (tests of
:mod:`tests.store.crash_harness`)."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.store import IndexStore
from repro.testing.crashpoints import (
    CRASHPOINT_ENV,
    FAULTPOINT_ENV,
    registered_crashpoints,
    registered_faultpoints,
)
from tests.store.crash_harness import (
    CAMPAIGN_KEY,
    COUNT,
    KILLED,
    CampaignRun,
    campaign_base,
    campaign_edges,
    campaign_plan,
    campaign_store,
    campaign_workload,
    run_campaign_point,
    seed_store,
)


#: Later crashes, after snapshots landed; the blob one lands while the
#: registry commits the ``k=3`` index a read built under the streamed key.
DEEP_HITS = (
    "wal.append.post-fsync:7",
    "wal.append.post-write.pre-fsync:13",
    "snapshot.post-blobs.pre-commit:2",
    "snapshot.post-indexes.pre-trim:3",
    "manifest.post-rename:4",
    "blob.post-temp.pre-rename:7",
)

#: An arm-count past the plan: the daemon finishes it undamaged.
CLEAN = "wal.append.post-fsync:9999"

#: The crash the resume test restarts from.
RESUME = "wal.append.post-fsync:15"


def crash(point: str) -> dict:
    return {CRASHPOINT_ENV: point}


def fault(point: str) -> dict:
    """Arm a fault point from the sixth append on."""
    return {FAULTPOINT_ENV: f"{point}:6"}


#: The armed environment of every :func:`campaign` case, in test order.
CASES = (
    [crash(point) for point in registered_crashpoints() + DEEP_HITS]
    + [fault(point) for point in registered_faultpoints()]
    + [crash(CLEAN), crash(RESUME)]
)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """``campaign(armed)``: the finished :class:`CampaignRun` of a case.

    Cases share nothing (each has its own store and daemons), so while a
    test waits for its own case the next one in :data:`CASES` order
    runs in the background: two cases at a time, each one's daemon
    lives strictly in turn.
    """
    futures = {}
    with ThreadPoolExecutor(max_workers=2) as pool:

        def submit(index: int) -> None:
            if index < len(CASES) and index not in futures:
                root = campaign_store(tmp_path_factory.mktemp("case"))
                futures[index] = pool.submit(run_campaign_point, root, CASES[index])

        def case(armed: dict) -> CampaignRun:
            index = CASES.index(armed)
            submit(index)
            submit(index + 1)
            return futures[index].result()

        yield case
        for future in futures.values():
            future.cancel()


def assert_recovered(run: CampaignRun, returncodes: list[int]) -> None:
    """Every audit passed, each daemon ended as expected, the plan finished,
    and the restarted daemon applied exactly what the wreck was missing."""
    assert run.ok, run.report()
    assert run.returncodes == returncodes, run.report()
    assert all(
        life.stopped == "connection"
        for life in run.lives if life.returncode == KILLED
    )
    assert run.position == len(run.plan)
    appended = run.lives[-1].stats["ingest"]["appended_edges"]
    total = len(campaign_base()) + COUNT
    assert run.wreck_edges[-1] + appended == total


class TestCampaignMatrix:
    @pytest.mark.parametrize("point", registered_crashpoints())
    def test_first_hit(self, campaign, point):
        """Crash the daemon the first time each point is reached."""
        run = campaign(crash(point))
        lives = 3 if point == "wal.open.post-truncate" else 2
        assert_recovered(run, [KILLED] * (lives - 1) + [0])

    @pytest.mark.parametrize("point", DEEP_HITS)
    def test_deep_hits(self, campaign, point):
        """Crash later in the run, after snapshots have already landed —
        the last one while the registry commits the ``k=3`` index a read
        built under the streamed key."""
        run = campaign(crash(point))
        assert_recovered(run, [KILLED, 0])
        if point.startswith("blob."):
            assert run.plan[run.lives[0].position].op == "read"

    @pytest.mark.parametrize("point", registered_faultpoints())
    def test_fault_then_restart(self, campaign, point):
        """A WAL disk error turns the daemon read-only mid-append; it
        drains, restarts, and the retried token lands exactly once."""
        run = campaign(fault(point))
        assert_recovered(run, [0, 0])
        assert run.lives[0].stopped == "read-only"

    def test_clean_run_satisfies_every_invariant(self, campaign):
        """An arm-count past the workload means the daemon finishes the
        plan — the invariants must hold for the undamaged store too, and
        the first daemon took every path the plan aims at."""
        run = campaign(crash(CLEAN))
        assert run.ok, run.report()
        assert run.returncodes == [0, 0]
        ingest = run.lives[0].stats["ingest"]
        assert ingest["appended_edges"] == COUNT
        assert ingest["incremental_folds"] == ingest["flushes"] > 0
        assert ingest["lag_flushes"] > 0
        # The first read built k=3 once; the stream maintained it after.
        assert run.lives[0].stats["registry"]["multik_builds_by_k"]["3"] == 1
        # ... and committed it under the streamed key.
        assert IndexStore(run.root).stored_ks(CAMPAIGN_KEY) == [2, 3, 4]
        # The restart re-sent every acknowledged token and applied nothing.
        assert run.lives[1].stats["ingest"]["appended_edges"] == 0


class TestCrashThenResume:
    def test_killed_child_resumes_to_completion(self, campaign):
        """The real recovery story: crash mid-run, restart the daemon on
        the wreck, and it finishes the workload exactly — every
        acknowledged append retried answers its first ack and applies
        nothing, none are lost."""
        run = campaign(crash(RESUME))
        assert_recovered(run, [KILLED, 0])
        assert len(run.acks) == sum(step.op == "append" for step in run.plan)

    def test_audit_flags_lost_acknowledged_appends(self, tmp_path):
        """The harness itself must catch a durability hole: wreck the
        store behind its back and the audit must go red."""
        root = seed_store(campaign_store(tmp_path))
        run = CampaignRun(root)
        life = run.live({CRASHPOINT_ENV: "wal.append.post-fsync:20"})
        assert life.returncode == KILLED
        assert run.audit_wreck() == [], run.report()
        # Sabotage: delete the whole WAL — acknowledged appends vanish.
        for segment in (root / CAMPAIGN_KEY / "wal").glob("wal-*.seg"):
            segment.unlink()
        problems = run.audit_wreck()
        assert any("lost acknowledged" in p for p in problems)


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

    def test_plan_appends_the_workload_once_with_unique_tokens(self):
        plan = campaign_plan()
        appends = [step for step in plan if step.op == "append"]
        assert [edge for step in appends for edge in step.edges] \
            == campaign_workload()
        assert len({step.token for step in appends}) == len(appends)
        assert {step.op for step in plan} == {"append", "flush", "read"}
        assert plan[-1].op == "flush"
