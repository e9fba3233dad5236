"""The daemon crash campaign: kill ``repro serve`` at a point, restart, audit.

A case drives a deterministic plan of requests (:func:`campaign_plan`)
over :class:`~repro.serve.client.DaemonClient` into ``repro serve``
processes started by the daemon tests' launcher, on a store whose key
holds a committed base graph at :data:`BASE_KS`.  The first daemon runs
with a crash (or fault) point armed; :func:`run_campaign_point` audits
its wreck, restarts the daemon to finish the plan and audits the end
state.  ``docs/DURABILITY.md`` §4 lists what the plan reaches and what
the audits check.
"""

from __future__ import annotations

import functools
import os
import pathlib
import random
import signal
from collections import Counter
from dataclasses import dataclass, field

from repro.core.enumerate_ref import enumerate_temporal_kcores_ref
from repro.core.multik import build_core_indexes
from repro.graph.temporal_graph import TemporalGraph
from repro.serve.client import DaemonClient, DaemonError
from repro.store.fsck import FsckReport, scrub_store
from repro.store.index_store import WAL_DIR, IndexStore
from repro.testing.crashpoints import CRASHPOINT_ENV
from tests.serve.daemon.conftest import launch_daemon

#: The store key every campaign writes under.
CAMPAIGN_KEY = "campaign"

#: Small segments so one campaign rotates and trims the log.
CAMPAIGN_SEGMENT_BYTES = 512

#: The ``k`` values of the committed base (and so of the stream).
BASE_KS = (2, 4)

#: The ``k`` the plan's reads ask for — built on a miss, then committed.
READ_K = 3

#: Every ``k`` whose answers the final audit checks against the oracle.
AUDIT_KS = (2, 3, 4)

#: Seed of the workload (the base graph's is the next one).
SEED = 11

#: Edges of the committed base graph.
BASE_COUNT = 120

#: Edges the plan appends.
COUNT = 40

#: Normalised ranges a plan ``read`` asks for (inside the base's span).
READ_RANGES = ((1, 12), (20, 40))

#: The hit of ``wal.append.post-write.pre-fsync`` that leaves the
#: unacknowledged record the ``wal.open.post-truncate`` case tears.
TEAR_HIT = 5

#: A daemon killed by its crash point exits with this code.
KILLED = -signal.SIGKILL


def campaign_edges(
    seed: int, count: int, *, nodes: int = 12, start: int = 1
) -> list[tuple[str, str, int]]:
    """``count`` ordered edge events, timestamps from ``start`` on.

    Timestamps are non-decreasing with repeats (several events per
    instant), labels drawn from a small vertex pool so cores actually
    form.  A pure function of its arguments.
    """
    rng = random.Random(seed)
    edges: list[tuple[str, str, int]] = []
    t = start
    while len(edges) < count:
        if rng.random() < 0.6:
            t += rng.randint(0, 2)
        u = rng.randrange(nodes)
        v = rng.randrange(nodes)
        if u == v:
            v = (v + 1) % nodes
        edges.append((f"n{u}", f"n{v}", t))
    return edges


def campaign_base() -> list[tuple[str, str, int]]:
    """The base graph committed before the first daemon starts."""
    return campaign_edges(SEED + 1, BASE_COUNT)


def campaign_workload() -> list[tuple[str, str, int]]:
    """The appended edges: over the base's vertices, strictly after it."""
    return campaign_edges(SEED, COUNT, start=campaign_base()[-1][2] + 1)


@dataclass(frozen=True)
class Step:
    """One request of the plan: ``append`` (with its token), ``flush`` or ``read``."""

    op: str
    token: str | None = None
    edges: tuple[tuple[str, str, int], ...] = ()


def campaign_plan() -> list[Step]:
    """The workload as requests: batches of one or two edges, and after
    every four appends a flush or (alternately) a read, each at a strict
    timestamp boundary; a final flush."""
    workload = campaign_workload()
    steps: list[Step] = []
    position = since = maintenance = 0
    while position < len(workload):
        batch = tuple(workload[position:position + 1 + len(steps) % 2])
        steps.append(Step("append", f"append-{position:03d}", batch))
        position += len(batch)
        since += 1
        if (
            since >= 4
            and position < len(workload)
            and workload[position][2] > workload[position - 1][2]
        ):
            steps.append(Step("read" if maintenance % 2 else "flush"))
            maintenance += 1
            since = 0
    steps.append(Step("flush"))
    return steps


def seed_store(root: pathlib.Path) -> pathlib.Path:
    """Commit the base graph and its :data:`BASE_KS` indexes under the key."""
    graph = TemporalGraph(campaign_base())
    IndexStore(root).commit(
        graph, build_core_indexes(graph, BASE_KS).values(), name=CAMPAIGN_KEY
    )
    return root


def _canon(edges) -> list[tuple[int, tuple[str, str]]]:
    """Order/orientation-canonical form of labelled edges: graphs
    canonicalise endpoint order and reorder same-instant edges."""
    return sorted((t, tuple(sorted((str(u), str(v))))) for u, v, t in edges)


def _labelled(graph: TemporalGraph, eids) -> list[tuple[str, str, int]]:
    return [
        (graph.label_of(u), graph.label_of(v), graph.raw_time_of(t))
        for u, v, t in (graph.edges[eid] for eid in eids)
    ]


@functools.cache
def oracle_answers() -> dict:
    """``{(k, ts, te): sorted (tti, canonical edges)}`` of the seed
    enumerator over the whole workload, for every audited range."""
    graph = TemporalGraph(campaign_base() + campaign_workload())
    top = graph.tmax
    ranges = ((1, 12), (top - 25, top - 8), (top - 10, top))
    return {
        (k, ts, te): sorted(
            (core.tti, _canon(_labelled(graph, core.edge_ids)))
            for core in enumerate_temporal_kcores_ref(graph, k, ts, te).cores
        )
        for k in AUDIT_KS
        for ts, te in ranges
    }


@dataclass
class Life:
    """One daemon process of a case."""

    stopped: str | None  # "connection"/"read-only" when it stopped the plan
    position: int  # the plan step it ended at (in flight, if it stopped)
    returncode: int
    stderr: str
    stats: dict | None = None  # the ``stats`` payload, when it finished the plan


@dataclass
class CampaignRun:
    """One case: the plan, how far the daemons got, and every verdict.

    A step stays at :attr:`position` until a daemon answers it, so the
    step there after a crash is the one that was in flight.
    """

    root: pathlib.Path
    plan: list[Step] = field(default_factory=campaign_plan)
    position: int = 0
    acks: dict[str, tuple[int, int]] = field(default_factory=dict)
    lives: list[Life] = field(default_factory=list)
    fsck_reports: list[FsckReport] = field(default_factory=list)
    wreck_edges: list[int] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def returncodes(self) -> list[int]:
        return [life.returncode for life in self.lives]

    def report(self) -> str:
        tail = self.lives[-1].stderr[-1500:] if self.lives else ""
        return (
            f"problems={self.problems}\nreturncodes={self.returncodes} "
            f"position={self.position}/{len(self.plan)} acked={len(self.acks)}\n"
            f"stderr tail:\n{tail}"
        )

    # -- driving ----------------------------------------------------------

    def live(self, env: dict | None = None) -> Life:
        """Start a daemon with ``env``, run the rest of the plan on it.

        A daemon that stops answering (killed at its crash point) or
        turns read-only (a fault point) ends the life there, leaving
        the step it was answering in flight; one that finishes the plan
        has its answers checked.  A daemon still alive is drained with
        SIGTERM.
        """
        handle = launch_daemon(
            self.root, "--max-lag", "0", env=env,
            segment_bytes=CAMPAIGN_SEGMENT_BYTES,
        )
        stats = None
        try:
            try:
                with DaemonClient("127.0.0.1", handle.port) as client:
                    self._retry_acked(client)
                    while self.position < len(self.plan):
                        self._send(client, self.plan[self.position])
                        self.position += 1
                    self._check_answers(client)
                    stats = client.stats()
                stopped = None
            except DaemonError as exc:
                if exc.code not in ("connection", "read-only"):
                    raise
                stopped = exc.code
            if handle.alive():
                handle.sigterm()
            returncode = handle.wait()
        finally:
            handle.stop()
        life = Life(stopped, self.position, returncode, handle.stderr, stats)
        self.lives.append(life)
        return life

    def _send(self, client: DaemonClient, step: Step) -> None:
        if step.op == "append":
            ack = client.append(
                list(step.edges), graph=CAMPAIGN_KEY, dedupe=step.token
            )
            self.acks[step.token] = (ack["lsn"], ack["appended"])
            if ack["appended"] != len(step.edges):
                self.problems.append(
                    f"{step.token} acknowledged {ack['appended']} of "
                    f"{len(step.edges)} edges"
                )
        elif step.op == "flush":
            client.flush(graph=CAMPAIGN_KEY)
        else:
            client.batch(list(READ_RANGES), k=READ_K, graph=CAMPAIGN_KEY)

    def _retry_acked(self, client: DaemonClient) -> None:
        """Re-send every acknowledged append: each answers its original ack."""
        for step in self.plan[:self.position]:
            if step.op != "append":
                continue
            again = client.append(
                list(step.edges), graph=CAMPAIGN_KEY, dedupe=step.token
            )
            if (again["lsn"], again["appended"]) != self.acks[step.token]:
                self.problems.append(
                    f"retried {step.token} answered "
                    f"{(again['lsn'], again['appended'])}, first acknowledged "
                    f"as {self.acks[step.token]}"
                )

    def _check_answers(self, client: DaemonClient) -> None:
        """The daemon's cores for every audited ``k`` and range == the oracle's."""
        graph = IndexStore(self.root).load_graph(CAMPAIGN_KEY)
        for (k, ts, te), want in oracle_answers().items():
            cores, done = client.query(k=k, ts=ts, te=te, graph=CAMPAIGN_KEY)
            got = sorted(
                (tuple(core["tti"]), _canon(_labelled(graph, core["edge_ids"])))
                for core in cores
            )
            if not done["completed"] or got != want:
                self.problems.append(
                    f"daemon answers differ from the oracle at k={k} "
                    f"[{ts}, {te}]: {len(got)} cores, want {len(want)}"
                )

    # -- auditing ---------------------------------------------------------

    def _acked_edges(self) -> list[tuple[str, str, int]]:
        return [
            edge
            for step in self.plan[:self.position]
            if step.op == "append"
            for edge in step.edges
        ]

    def _recover(self) -> tuple[list[tuple[str, str, int]] | None, list[str]]:
        """Every edge the store holds (snapshot + WAL), or ``None`` if it
        does not reopen, and the problems found: every stored ``k`` must
        open, the base's among them."""
        store = IndexStore(self.root)
        try:
            recovery = store.recover(CAMPAIGN_KEY)
        except Exception as exc:  # noqa: BLE001 - the audit reports, never raises
            return None, [f"store failed to reopen: {exc!r}"]
        recovery.wal.close()
        graph = recovery.graph
        stored = store.stored_ks(CAMPAIGN_KEY)
        if graph is None or not set(BASE_KS) <= set(stored):
            return [], [f"snapshot lost its base indexes: k={stored}"]
        broken = [
            k for k in stored
            if store.load_index(graph, k, key=CAMPAIGN_KEY) is None
        ]
        edges = _labelled(graph, range(graph.num_edges))
        edges += [(e.u, e.v, e.t) for e in recovery.events]
        return edges, [f"stored indexes do not open: k={broken}"] if broken else []

    def audit_wreck(self) -> list[str]:
        """Scrub and recover the store a stopped daemon left; returns the
        problems found.

        fsck (with repair, as an operator would run it) may only
        quarantine, repair or report, and finds no WAL damage: a SIGKILL
        after a record's ``write()`` cannot tear it, and a torn record
        the test made is the daemon's to truncate on open.  The store
        must reopen with every stored ``k``, and hold every acknowledged
        edge exactly once — the in-flight append wholly or not at all,
        nothing else.
        """
        report = scrub_store(self.root, repair=True)
        self.fsck_reports.append(report)
        found = [
            f"fsck found {issue}"
            for issue in report.issues
            if issue.kind == "wal"
            or issue.action not in ("quarantined", "repaired", "reported")
        ]
        recovered, problems = self._recover()
        found += problems
        if recovered is not None:
            self.wreck_edges.append(len(recovered))
            have = Counter(_canon(recovered))
            acked = Counter(_canon(campaign_base() + self._acked_edges()))
            # A daemon can also die past the plan, building an index for
            # the final answers: nothing is in flight then.
            inflight = Counter(_canon(
                self.plan[self.position].edges
                if self.position < len(self.plan) else ()
            ))
            if acked - have:
                found.append(
                    f"lost acknowledged appends: {sum((acked - have).values())} "
                    f"acknowledged edges missing"
                )
            elif have - acked not in (Counter(), inflight):
                found.append(
                    f"edges beyond the acknowledged ones and the in-flight "
                    f"append: {sorted((have - acked).elements())}"
                )
        self.problems += found
        return found

    def audit_final(self) -> None:
        """After the last daemon drained: the whole workload exactly once,
        every stored ``k`` opens, and a second fsck pass finds nothing
        but temp files the first pass already reported."""
        last = self.lives[-1]
        if last.stopped is not None or last.returncode != 0:
            self.problems.append(
                f"last daemon did not drain cleanly: stopped={last.stopped} "
                f"returncode={last.returncode}"
            )
        recovered, problems = self._recover()
        self.problems += problems
        workload = campaign_base() + campaign_workload()
        if recovered is not None and _canon(recovered) != _canon(workload):
            self.problems.append(
                f"recovered {len(recovered)} edges, not the {len(workload)} "
                f"of the workload exactly once"
            )
        reported = {
            issue.path
            for report in self.fsck_reports
            for issue in report.issues
            if issue.action == "reported"
        }
        second = scrub_store(self.root, repair=True)
        fresh = [
            issue for issue in second.issues
            if not (issue.action == "reported" and issue.path in reported)
        ]
        if fresh:
            self.problems.append(f"second fsck pass not clean: {fresh}")


def tear_last_record(root: pathlib.Path) -> None:
    """Cut the live WAL segment's last record short (a torn write)."""
    segment = sorted((root / CAMPAIGN_KEY / WAL_DIR).glob("wal-*.seg"))[-1]
    with open(segment, "r+b") as handle:
        handle.truncate(os.path.getsize(segment) - 3)


def run_campaign_point(root: pathlib.Path, armed: dict) -> CampaignRun:
    """One full case: a daemon with the ``armed`` environment (a
    ``REPRO_CRASHPOINT`` or ``REPRO_FAULTPOINT``), its wreck audited, a
    restarted daemon finishing the plan, the final audit.

    ``wal.open.post-truncate`` needs a torn record to truncate: a first
    daemon dies right after writing an unacknowledged record, the record
    is torn, and the daemon armed at the point dies truncating it on its
    first append.
    """
    run = CampaignRun(seed_store(root))
    if armed.get(CRASHPOINT_ENV, "").startswith("wal.open.post-truncate"):
        run.live({CRASHPOINT_ENV: f"wal.append.post-write.pre-fsync:{TEAR_HIT}"})
        run.audit_wreck()
        tear_last_record(root)
    if run.live(armed).stopped:
        run.audit_wreck()
    run.live()
    run.audit_final()
    return run


def campaign_store(tmp_root: str | os.PathLike[str]) -> pathlib.Path:
    """A fresh store directory for one case."""
    root = pathlib.Path(tmp_root) / "store"
    root.mkdir(parents=True, exist_ok=True)
    return root
