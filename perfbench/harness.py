"""Process and measurement plumbing shared by the workloads.

The benchmark runs from the root of a checkout and keeps every file it
writes under ``.perfbench_work/`` there.  Daemons are started as
subprocesses: plain ``python -m repro serve`` for untraced runs, the
span-recording launcher (``traced_serve.py``) for traced ones.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

from repro.serve.client import DaemonClient, DaemonConnectionError
from repro.serve.protocol import core_frame_prefix

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: How many times a run sets up from the seed; ``setup_s`` is the median.
SETUP_REPS = 3
READY_TIMEOUT_S = 120.0
CLIENT_TIMEOUT_S = 120.0

#: Daemons started and not yet reaped; :func:`kill_all` is the last resort.
_LIVE: set["Daemon"] = set()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def make_workdir() -> pathlib.Path:
    WORK.mkdir(exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=WORK))


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


#: What one :func:`probe` takes on the reference host.  Scaled times
#: read as seconds on a host where the probe takes exactly this long.
PROBE_REF_S = 0.004


def _probe_loop() -> int:
    acc, table = 0, {}
    for i in range(24_000):
        table[i % 97] = table.get(i % 97, 0) + i
        acc += (i * 31) ^ (acc & 0xFFFF)
    return acc + max(table.values())


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now: the best of three.

    The program spends its time in the interpreter, and its op times
    follow this loop's: over a 3-minute trace, scaling a fixed build by
    it cut the spread of 16 s medians from 0.25 to 0.04, where a numpy
    sort-and-gather probe only cut it to 0.12.  Work that spends more of
    its time in numpy follows the loop less closely: ``build-cold``'s
    scaled figures still shift together with the host's state.
    """
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        _probe_loop()
        best = min(best, time.perf_counter() - started)
    return best


class HostClock:
    """Scales measured times to the speed of a reference host.

    A shared host runs a VM's CPUs at speeds up to 2x apart for tens of
    seconds at a time (other tenants), which neither run length nor a
    low quantile averages away: on a 2-vCPU VM the 10th percentile of
    16 s stretches of a fixed build spread 0.44 of its median.  The
    benchmark pins itself and the daemon to one CPU and times
    :func:`probe` on it between measured groups of ops; each group's
    times are multiplied by :data:`PROBE_REF_S` over the mean of the
    probes just before and just after the group.
    """

    def __init__(self):
        self.probes = [probe()]

    def scale(self) -> float:
        """The factor for the group that ran since the last call."""
        self.probes.append(probe())
        return PROBE_REF_S / ((self.probes[-2] + self.probes[-1]) / 2)

    def rebase(self) -> None:
        """Probe afresh after a pause, for the next group's factor."""
        self.probes.append(probe())

    def probe_ms(self) -> float:
        return median(self.probes) * 1e3


class CountingClient(DaemonClient):
    """A :class:`DaemonClient` that counts the response bytes it reads."""

    bytes_read = 0

    def _connect(self) -> None:
        super()._connect()
        raw, client = self._file, self

        class _Counting:
            def readline(self, limit=-1):
                line = raw.readline(limit)
                client.bytes_read += len(line)
                return line

            def close(self):
                raw.close()

        self._file = _Counting()

    def query_lines(self, *, k: int, ts: int, te: int) -> tuple[list[bytes], dict]:
        """One streamed ``query``: its raw core frames and its terminal frame.

        Reads up to the terminal frame without decoding the core frames,
        so a timed round trip holds the daemon's work and the wire, not
        the client's JSON parsing; the caller decodes the cores after
        its timer stops.
        """
        rid = self._take_id()
        self.send({"op": "query", "k": k, "ts": ts, "te": te, "id": rid})
        prefix = core_frame_prefix(rid).encode("utf-8")
        lines = []
        while True:
            line = self._file.readline()
            if not line.endswith(b"\n"):
                raise DaemonConnectionError("connection closed mid-stream by daemon")
            if not line.startswith(prefix):
                return lines, self._raise_on_error(json.loads(line))
            lines.append(line)


class Daemon:
    """One ``repro serve`` subprocess over a store directory."""

    def __init__(self, store_root: pathlib.Path, workdir: pathlib.Path, spans_path=None):
        args = ["--store", str(store_root), "--port", "0"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_serve.py"), str(spans_path), *args]
        self.log_path = workdir / f"daemon-{time.monotonic_ns()}.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            cmd, stdout=self._log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT
        )
        self.port: int | None = None
        _LIVE.add(self)

    def wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8") as log:
                for line in log:
                    if line.startswith('{"event": "ready"'):
                        self.port = json.loads(line)["port"]
                        return
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.kill()
        raise RuntimeError(f"daemon not ready:\n{self.log_tail()}")

    def log_tail(self) -> str:
        return self.log_path.read_text(encoding="utf-8")[-2000:]

    def client(self) -> CountingClient:
        return CountingClient("127.0.0.1", self.port, timeout=CLIENT_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def signal(self, signum) -> None:
        self.proc.send_signal(signum)

    def scrape(self) -> dict:
        """``GET /metrics``, parsed by :func:`parse_prometheus`."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as sock:
            sock.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return parse_prometheus(b"".join(chunks).split(b"\r\n\r\n", 1)[1].decode("utf-8"))

    def stop(self) -> None:
        """Drain through the ``shutdown`` op; SIGTERM, then SIGKILL, if it hangs."""
        if self.proc.poll() is None and self.port is not None:
            try:
                with self.client() as client:
                    client.shutdown()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        self._log.close()
        _LIVE.discard(self)


def kill_all() -> None:
    for daemon in list(_LIVE):
        daemon.kill()


def parse_prometheus(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Prometheus text exposition as ``{name: [(labels, value), ...]}``."""
    out: dict[str, list[tuple[dict, float]]] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, value = line.rsplit(" ", 1)
        name, _, rest = head.partition("{")
        labels = {}
        for part in rest.rstrip("}").split(","):
            if "=" in part:
                key, val = part.split("=", 1)
                labels[key] = val.strip('"')
        out.setdefault(name, []).append((labels, float(value)))
    return out


def set_up(build, start_daemon=None, reps=SETUP_REPS):
    """Set up ``reps`` times; keep the last one.

    Each set-up time is scaled by a :class:`HostClock`.

    ``build()`` generates the inputs (and, for a daemon workload,
    persists the store under the state's ``store_root``);
    ``start_daemon(state, last)`` starts the daemon, which counts until
    its ready line.  Returns
    ``(state, daemon, median setup seconds)``.
    """
    times = []
    daemon = None
    clock = HostClock()
    for rep in range(reps):
        last = rep == reps - 1
        started = time.perf_counter()
        state = build()
        if start_daemon is not None:
            daemon = start_daemon(state, last)
            daemon.wait_ready()
        times.append((time.perf_counter() - started) * clock.scale())
        if daemon is not None and not last:
            daemon.stop()
            shutil.rmtree(state.store_root, ignore_errors=True)
    return state, daemon, median(times)
