"""Seeded input generators for the benchmark workloads.

Every generator takes its seed as an argument and checks its own
precondition before any timing starts (:class:`GenError` otherwise), so
a workload never measures traffic the daemon would refuse.  Only the
generated graphs, edges and frames reach the program under test.
"""

from __future__ import annotations

import random

from repro.graph.generators import BurstyConfig, generate_bursty


class GenError(RuntimeError):
    """A generator's precondition does not hold for this seed."""


def bursty_config(seed: int) -> BurstyConfig:
    """The serving graph: 3000 vertices, 50.8k edges, tmax 2000."""
    return BurstyConfig(
        num_vertices=3000,
        background_edges=42000,
        tmax=2000,
        repeat_rate=0.25,
        num_bursts=40,
        burst_size=12,
        burst_width=25,
        edges_per_burst=220,
        seed=seed,
        name="bursty",
    )


def bursty_graph(seed: int):
    graph = generate_bursty(bursty_config(seed))
    if graph.num_edges < 50_000 or graph.tmax < 1000:
        raise GenError(f"bursty graph too small: m={graph.num_edges} tmax={graph.tmax}")
    return graph


def contended_ranges(rng: random.Random, tmax: int, count: int, hot_regions: int = 8):
    """Ranges piling onto ``hot_regions`` hot spots, 25% exact repeats."""
    span = tmax // hot_regions
    hots = [span // 2 + i * span for i in range(hot_regions)]
    ranges: list[tuple[int, int]] = []
    for _ in range(count):
        if rng.random() < 0.25 and ranges:
            ranges.append(rng.choice(ranges))
        else:
            hot = rng.choice(hots)
            lo = max(1, hot - span // 3 + rng.randint(-10, 10))
            hi = min(tmax, lo + rng.randint(span // 2, span - 1))
            ranges.append((lo, hi))
    for lo, hi in ranges:
        if not 1 <= lo <= hi <= tmax:
            raise GenError(f"range [{lo}, {hi}] outside [1, {tmax}]")
    return ranges


def stratified_windows(lo: int, hi: int, count: int, ks, widths):
    """``count`` query windows ``(k, ts, te)`` spread evenly over ``[lo, hi]``.

    Window ``i`` is centred in the ``i``-th of ``count`` equal strata and
    takes its ``k`` and width from ``ks`` and ``widths`` in turn, so the
    set mixes positions, widths and ``k`` values evenly.  It depends on
    the dataset only: a query's cost varies tenfold with where it lands
    on the bursts, and a per-seed draw of a few dozen windows would make
    the latency median measure the draw.
    """
    if hi - lo + 1 < max(widths):
        raise GenError(f"span [{lo}, {hi}] narrower than {max(widths)}")
    stratum = (hi - lo + 1) / count
    out = []
    for i in range(count):
        width = widths[i % len(widths)]
        ts = max(lo, min(lo + int((i + 0.5) * stratum) - width // 2, hi - width + 1))
        out.append((ks[i % len(ks)], ts, ts + width - 1))
    return out


class HotStream:
    """A community-skewed edge stream over a slowly drifting pool.

    Endpoints are beta-skewed into an 80-vertex active pool whose base
    drifts forward with every edge, so old vertices retire, new ones
    join, and a dense recurring community keeps k-cores alive near the
    frontier.  Raw timestamps never decrease.
    """

    def __init__(self, seed: int, nodes: int = 3000, pool: int = 80):
        self.rng = random.Random(seed)
        self.nodes = nodes
        self.pool = pool
        self.t = 1
        self.base = 0.0

    def _draw(self) -> str:
        offset = int(self.rng.betavariate(1.2, 3.0) * self.pool)
        return f"v{(int(self.base) + offset) % self.nodes}"

    def take(self, count: int) -> list[tuple[str, str, int]]:
        out: list[tuple[str, str, int]] = []
        while len(out) < count:
            if self.rng.random() < 0.55:
                self.t += 1
            u, v = self._draw(), self._draw()
            if u == v:
                continue
            out.append((u, v, self.t))
            self.base += 0.02
        return out


def hot_members(graph, indexes, window: int = 600) -> list[str]:
    """Labels of the top-k core community over the last ``window`` instants."""
    k = max(indexes)
    ts = max(1, graph.tmax - window)
    members = [graph.label_of(int(u)) for u in indexes[k].vct.core_members(ts, graph.tmax)]
    if len(members) < 2:
        raise GenError(f"no {k}-core community near the frontier")
    return members


class CommunityDelta:
    """Edges among a fixed community, each flush batch at a fresh timestamp.

    ``batch(count)`` continues the raw clock; :meth:`start_flush_batch`
    jumps it one instant past everything handed out so far, so every
    flush batch starts strictly past the last flushed raw timestamp,
    which is the fold path's frontier precondition.
    """

    def __init__(self, labels: list[str], last_raw_time: int, seed: int):
        self.labels = labels
        self.rng = random.Random(seed)
        self.t = last_raw_time
        self.flushed_upto = last_raw_time

    def start_flush_batch(self) -> None:
        self.t += 1
        if self.t <= self.flushed_upto:
            raise GenError(f"flush batch starts at {self.t} <= {self.flushed_upto}")

    def batch(self, count: int) -> list[tuple[str, str, int]]:
        out = []
        for i in range(count):
            if i and self.rng.random() < 0.55:
                self.t += 1
            u, v = self.rng.sample(self.labels, 2)
            out.append((u, v, self.t))
        return out

    def mark_flushed(self) -> None:
        self.flushed_upto = self.t
