"""Fixtures for the daemon test campaign.

Every test here drives a **real** daemon subprocess over a real TCP
socket — signals (SIGTERM drain) and disconnect semantics only mean
anything across a process boundary.  The session store is built once;
tests that mutate the store (the drain-snapshot test) copy it first.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.core.index import CoreIndex
from repro.graph.generators import uniform_random_temporal
from repro.store.index_store import IndexStore

REPO_ROOT = Path(__file__).resolve().parents[3]
SRC = REPO_ROOT / "src"

STORE_KEY = "g"
STORE_KS = (2, 3)


def build_store(root, *, seed=11, nodes=24, edges=700, tmax=48, ks=STORE_KS):
    """A store holding one random graph plus its indexes (k=2,3 unless
    ``ks`` says otherwise)."""
    graph = uniform_random_temporal(nodes, edges, tmax=tmax, seed=seed)
    store = IndexStore(root)
    store.save_graph(graph, name=STORE_KEY)
    for k in ks:
        store.save_index(CoreIndex(graph, k), name=STORE_KEY)
    return store, graph


@pytest.fixture(scope="session")
def daemon_store(tmp_path_factory):
    """``(store_root, graph)`` shared by the read-only daemon tests."""
    root = tmp_path_factory.mktemp("daemon") / "store"
    _store, graph = build_store(root)
    return root, graph


class DaemonHandle:
    """One daemon subprocess: its Popen, bound port, and teardown."""

    def __init__(self, proc: subprocess.Popen, port: int):
        self.proc = proc
        self.port = port
        self.stderr = ""  # what the daemon wrote there, once it exited

    def sigterm(self) -> None:
        self.proc.send_signal(15)

    def wait(self, timeout: float = 30.0) -> int:
        """Wait for exit; returns the return code (pipes drained)."""
        _out, self.stderr = self.proc.communicate(timeout=timeout)
        return self.proc.returncode

    def alive(self) -> bool:
        return self.proc.poll() is None

    def stop(self) -> None:
        """SIGKILL the daemon and wait until it is gone."""
        if self.alive():
            self.proc.kill()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover
            pass
        for stream in (self.proc.stdout, self.proc.stderr):
            if stream is not None:
                stream.close()


#: ``repro serve`` behind one assignment: the WAL segment size read
#: from ``argv[1]`` replaces :data:`repro.store.wal.DEFAULT_SEGMENT_BYTES`
#: before the CLI runs — how a test reaches rotation and trim in a real
#: daemon without a production option.
_SERVE_WITH_SEGMENT_BYTES = (
    "import sys\n"
    "from repro.store import wal\n"
    "wal.DEFAULT_SEGMENT_BYTES = int(sys.argv.pop(1))\n"
    "from repro.cli import main\n"
    "sys.exit(main())\n"
)


def launch_daemon(store, *extra_args, env=None, segment_bytes=None) -> DaemonHandle:
    """Start ``repro serve`` on ``store`` and an ephemeral port.

    ``env`` adds environment variables (the crash and fault hooks);
    ``segment_bytes`` overrides the daemon's WAL segment size.  Returns
    a :class:`DaemonHandle` once the ready line lands.
    """
    environ = dict(os.environ)
    environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)]
        + ([environ["PYTHONPATH"]] if environ.get("PYTHONPATH") else [])
    )
    if env:
        environ.update(env)
    if segment_bytes is None:
        entry = ["-m", "repro.cli"]
    else:
        entry = ["-c", _SERVE_WITH_SEGMENT_BYTES, str(segment_bytes)]
    proc = subprocess.Popen(
        [
            sys.executable,
            *entry,
            "serve",
            "--store",
            str(store),
            "--port",
            "0",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=environ,
    )
    line = proc.stdout.readline()
    if not line:
        _out, err = proc.communicate(timeout=10)
        raise RuntimeError(f"daemon failed to start:\n{err}")
    ready = json.loads(line)
    assert ready["event"] == "ready"
    return DaemonHandle(proc, ready["port"])


@pytest.fixture
def start_daemon(daemon_store):
    """Factory launching daemons (:func:`launch_daemon`) it stops at teardown.

    ``_start(*extra_args)`` serves the session store; pass ``store=``
    for a different one and ``env=`` for extra environment.
    """
    root, _graph = daemon_store
    handles: list[DaemonHandle] = []

    def _start(*extra_args, store=None, env=None) -> DaemonHandle:
        handle = launch_daemon(store if store is not None else root, *extra_args, env=env)
        handles.append(handle)
        return handle

    yield _start
    for handle in handles:
        handle.stop()


def scrape_metrics(port: int) -> str:
    """One ``GET /metrics`` scrape, as text."""
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=10
    ) as response:
        assert response.status == 200
        return response.read().decode("utf-8")


def metric_total(text: str, name: str, **labels) -> float:
    """Sum every sample of ``name`` whose labels include ``labels``."""
    total = 0.0
    pattern = re.compile(rf"^{re.escape(name)}(?:\{{(?P<labels>[^}}]*)\}})? (?P<value>\S+)$")
    for line in text.splitlines():
        match = pattern.match(line)
        if not match:
            continue
        present = dict(
            re.findall(r'(\w+)="([^"]*)"', match.group("labels") or "")
        )
        if all(present.get(key) == value for key, value in labels.items()):
            total += float(match.group("value"))
    return total
