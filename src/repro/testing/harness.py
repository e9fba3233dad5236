"""The subprocess crash campaign: kill a child at a point, audit the wreck.

The campaign's shape, shared by the test suite and the CI smoke job:

1. spawn :mod:`repro.testing.crash_driver` as a subprocess with
   ``REPRO_CRASHPOINT=<name>[:N]`` armed — the child appends a
   deterministic edge workload into a WAL-backed store, printing one
   ``ACK`` line *after* each append is durable, snapshotting
   periodically, and is SIGKILLed by its own crash point mid-operation;
2. reopen the wrecked store in *this* process via
   :meth:`IndexStore.recover <repro.store.index_store.IndexStore.recover>`
   and audit the recovery invariants
   (:func:`audit_recovery`): every acknowledged append survived, no
   phantom edges appeared, prefix order held, the recovered state
   answers queries identically to the seed oracle
   (:func:`repro.core.enumerate_ref.enumerate_temporal_kcores_ref`),
   and ``fsck`` has nothing left to quarantine afterwards.

The workload (:func:`campaign_edges`) is seeded and pure, so the
parent can regenerate exactly what the child was sending and check the
recovered store against it without any side channel beyond the ACK
lines on the child's stdout.
"""

from __future__ import annotations

import os
import pathlib
import random
import signal
import subprocess
import sys
from dataclasses import dataclass, field

from repro.core.enumerate_ref import enumerate_temporal_kcores_ref
from repro.graph.temporal_graph import TemporalGraph
from repro.store.fsck import FsckReport, scrub_store
from repro.store.index_store import IndexStore
from repro.testing.crashpoints import CRASHPOINT_ENV

#: The store key every campaign child writes under.
CAMPAIGN_KEY = "campaign"

#: Small segments so one campaign run exercises rotation and trim.
CAMPAIGN_SEGMENT_BYTES = 512


def _canon(
    seq: list[tuple[str, str, int]]
) -> list[tuple[int, tuple[str, str]]]:
    """Order/orientation-canonical form of an edge sequence.

    :class:`~repro.graph.temporal_graph.TemporalGraph` canonicalises
    per-edge endpoint orientation and reorders edges sharing a
    timestamp, so a snapshot round trip is *multiset*-equal to what was
    appended, not tuple-equal.  Comparisons sort by ``(t, endpoints)``
    with endpoints themselves sorted — exactly the identity an
    undirected temporal edge has.
    """
    return sorted((t, tuple(sorted((str(u), str(v))))) for u, v, t in seq)


def campaign_edges(
    seed: int, count: int, *, nodes: int = 12
) -> list[tuple[str, str, int]]:
    """The deterministic append workload: ``count`` ordered edge events.

    Timestamps are non-decreasing with occasional repeats (multiple
    events per instant), labels drawn from a small vertex pool so cores
    actually form.  Pure function of ``(seed, count, nodes)`` — parent
    and child regenerate the identical list independently.
    """
    rng = random.Random(seed)
    edges: list[tuple[str, str, int]] = []
    t = 1
    while len(edges) < count:
        if rng.random() < 0.6:
            t += rng.randint(0, 2)
        u = rng.randrange(nodes)
        v = rng.randrange(nodes)
        if u == v:
            v = (v + 1) % nodes
        edges.append((f"n{u}", f"n{v}", t))
    return edges


@dataclass
class CrashOutcome:
    """What one campaign child run left behind."""

    crashpoint: str
    returncode: int
    acked: list[int] = field(default_factory=list)  # 0-based workload indexes
    stdout: str = ""
    stderr: str = ""

    @property
    def crashed(self) -> bool:
        """Whether the child died by SIGKILL (vs exiting normally)."""
        return self.returncode == -signal.SIGKILL


def run_crash_child(
    store_root: str | os.PathLike[str],
    crashpoint: str,
    *,
    seed: int = 11,
    count: int = 40,
    snapshot_every: int = 10,
    ks: tuple[int, ...] = (2,),
    timeout: float = 120.0,
) -> CrashOutcome:
    """Run one ingestion child armed to die at ``crashpoint``.

    The child appends :func:`campaign_edges` one at a time (so every
    append crosses every ``wal.append.*`` instant), snapshots every
    ``snapshot_every`` appends (crossing the ``snapshot.*`` and
    ``manifest.*``/``blob.*`` instants) and prints ``ACK <index>``
    after each durable acknowledgement.  Arm-counts deep enough into
    the run (``name:N``) are the caller's choice via ``crashpoint``
    syntax.
    """
    env = dict(os.environ)
    env[CRASHPOINT_ENV] = crashpoint
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.testing.crash_driver",
            "--store", os.fspath(store_root),
            "--key", CAMPAIGN_KEY,
            "--seed", str(seed),
            "--count", str(count),
            "--snapshot-every", str(snapshot_every),
            "--ks", ",".join(str(k) for k in ks),
            "--segment-bytes", str(CAMPAIGN_SEGMENT_BYTES),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    acked = [
        int(line.split()[1])
        for line in proc.stdout.splitlines()
        if line.startswith("ACK ")
    ]
    return CrashOutcome(
        crashpoint=crashpoint.split(":")[0],
        returncode=proc.returncode,
        acked=acked,
        stdout=proc.stdout,
        stderr=proc.stderr,
    )


@dataclass
class RecoveryAudit:
    """The parent-side verdict on a wrecked store."""

    outcome: CrashOutcome
    recovered_count: int
    fsck_before: FsckReport
    fsck_after: FsckReport
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def audit_recovery(
    store_root: str | os.PathLike[str],
    outcome: CrashOutcome,
    *,
    seed: int = 11,
    count: int = 40,
    ks: tuple[int, ...] = (2,),
) -> RecoveryAudit:
    """Recover the wrecked store and check every campaign invariant.

    * the store reopens (recovery itself must not raise);
    * **durability** — every ACKed append is present after recovery;
    * **atomicity** — nothing *beyond* the sent prefix appears, and the
      recovered events are exactly a prefix of the workload (an
      unacknowledged in-flight append may legitimately survive — it
      was written, just not acknowledged — but nothing may be skipped
      or reordered);
    * **correctness** — a graph built from the recovered edges answers
      the seed oracle's enumeration for every ``k`` in ``ks``;
    * **indexes** — a recovered snapshot opens a stored index for every
      ``k`` in ``ks`` (a crash never leaves the graph without them);
    * **scrub** — ``fsck`` repairs whatever the crash tore (quarantine
      or repair, never delete), and a second pass right after is clean.

    Each violated invariant appends one line to ``problems``; the audit
    never asserts — callers (pytest, the CI smoke script) decide how to
    fail.
    """
    problems: list[str] = []
    workload = campaign_edges(seed, count)

    # fsck first — with repair on, exactly what an operator would run —
    # then recover from the repaired store.
    fsck_before = scrub_store(store_root, repair=True)
    for issue in fsck_before.issues:
        if issue.action not in ("quarantined", "repaired", "reported"):
            problems.append(f"fsck took unexpected action: {issue}")

    store = IndexStore(store_root)
    try:
        recovery = store.recover(CAMPAIGN_KEY,
                                 segment_bytes=CAMPAIGN_SEGMENT_BYTES)
    except Exception as exc:  # noqa: BLE001 - audit reports, never raises
        return RecoveryAudit(
            outcome=outcome,
            recovered_count=0,
            fsck_before=fsck_before,
            fsck_after=fsck_before,
            problems=[f"store failed to reopen after crash: {exc!r}"],
        )
    if recovery.wal is not None:
        recovery.wal.close()
    if recovery.graph is not None:
        missing = [
            k for k in ks
            if store.load_index(recovery.graph, k, key=CAMPAIGN_KEY) is None
        ]
        if missing:
            problems.append(f"snapshot recovered without its indexes for k={missing}")

    recovered: list[tuple[str, str, int]] = []
    if recovery.graph is not None:
        recovered.extend(
            (recovery.graph.label_of(u), recovery.graph.label_of(v),
             recovery.graph.raw_time_of(t))
            for u, v, t in recovery.graph.edges
        )
    recovered.extend((e.u, e.v, e.t) for e in recovery.events)

    # Durability: every acknowledged append must be present.
    acked_hwm = max(outcome.acked, default=-1)
    if len(recovered) < acked_hwm + 1:
        problems.append(
            f"lost acknowledged appends: {acked_hwm + 1} were ACKed, "
            f"only {len(recovered)} recovered"
        )
    # Atomicity/prefix: recovered must be exactly the sent prefix (as a
    # multiset of undirected temporal edges — snapshots canonicalise
    # orientation and same-instant order), nothing skipped, nothing
    # phantom.
    if len(recovered) > len(workload):
        problems.append(
            f"phantom edges: recovered {len(recovered)}, sent at most "
            f"{len(workload)}"
        )
    elif _canon(recovered) != _canon(workload[: len(recovered)]):
        problems.append(
            "recovered events are not a prefix of the sent workload"
        )

    # Oracle equivalence: the recovered state answers like a graph
    # built directly from the recovered prefix.
    if recovered and not problems:
        expected_graph = TemporalGraph(workload[: len(recovered)])
        got_graph = TemporalGraph(recovered)
        for k in ks:
            want = enumerate_temporal_kcores_ref(expected_graph, k)
            got = enumerate_temporal_kcores_ref(got_graph, k)
            # Edge *ids* are graph-local (the two graphs may order their
            # edge arrays differently); compare cores by their labelled
            # edge multisets instead.
            want_keys = sorted(
                (c.tti, _canon(c.edge_triples(expected_graph)))
                for c in want.cores
            )
            got_keys = sorted(
                (c.tti, _canon(c.edge_triples(got_graph)))
                for c in got.cores
            )
            if want_keys != got_keys:
                problems.append(
                    f"recovered graph answers differ from oracle at k={k}"
                )

    fsck_after = scrub_store(store_root, repair=True)
    real_after = [
        issue for issue in fsck_after.issues if issue.kind != "orphan"
    ]
    if real_after:
        problems.append(
            f"fsck not clean after repair pass: {real_after}"
        )

    return RecoveryAudit(
        outcome=outcome,
        recovered_count=len(recovered),
        fsck_before=fsck_before,
        fsck_after=fsck_after,
        problems=problems,
    )


def run_campaign_point(
    store_root: str | os.PathLike[str],
    crashpoint: str,
    *,
    seed: int = 11,
    count: int = 40,
    snapshot_every: int = 10,
    ks: tuple[int, ...] = (2,),
) -> RecoveryAudit:
    """One full campaign cycle: crash a child at ``crashpoint``, audit.

    A child that ran to completion without reaching the armed point
    (e.g. an arm-count deeper than the workload) is audited all the
    same — a clean run must satisfy every invariant too.
    """
    outcome = run_crash_child(
        store_root,
        crashpoint,
        seed=seed,
        count=count,
        snapshot_every=snapshot_every,
        ks=ks,
    )
    audit = audit_recovery(store_root, outcome, seed=seed, count=count, ks=ks)
    if outcome.returncode not in (0, -signal.SIGKILL):
        audit.problems.append(
            f"child died abnormally (returncode {outcome.returncode}): "
            f"{outcome.stderr[-2000:]}"
        )
    return audit


def campaign_store(tmp_root: str | os.PathLike[str]) -> pathlib.Path:
    """A fresh store directory for one campaign cycle."""
    root = pathlib.Path(tmp_root) / "store"
    root.mkdir(parents=True, exist_ok=True)
    return root
