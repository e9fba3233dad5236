"""Contact tracing: fleeting high-risk clusters in proximity streams.

The paper's second motivating scenario (Section I): during an outbreak,
"transmission clusters may emerge and dissipate rapidly over short and
irregular timeframes", so health authorities need *every* window's dense
contact cluster, not just daily snapshots.

This example simulates a proximity-contact stream (a workplace with a
canteen rush and an evening event), enumerates temporal k-cores to find
high-risk exposure clusters, and uses the index-reuse API
(:class:`repro.CoreIndex`) to answer several follow-up investigations
without recomputing anything.

Run:  python examples/contact_tracing.py
"""

from __future__ import annotations

import numpy as np

from repro import CoreIndex, TemporalGraph

PEOPLE = 150
MINUTES = 16 * 60  # a 16-hour observed day, minute resolution
BACKGROUND_CONTACTS = 300  # sparse: the whole day holds ~5k cores, swept in seconds
SEED = 11


def synthesize_contacts() -> tuple[TemporalGraph, dict[str, tuple[int, int]]]:
    rng = np.random.default_rng(SEED)
    edges: list[tuple[str, str, int]] = []
    for _ in range(BACKGROUND_CONTACTS):
        a, b = rng.choice(PEOPLE, size=2, replace=False)
        edges.append((f"p{a}", f"p{b}", int(rng.integers(1, MINUTES + 1))))

    events: dict[str, tuple[int, int]] = {}
    # Canteen rush: 25 people mixing intensively for 40 minutes.
    lunch = (12 * 60, 12 * 60 + 39)
    events["canteen-rush"] = lunch
    group = rng.choice(PEOPLE, size=25, replace=False)
    for _ in range(420):
        i, j = rng.choice(25, size=2, replace=False)
        edges.append((f"p{group[i]}", f"p{group[j]}",
                      int(rng.integers(lunch[0], lunch[1] + 1))))
    # Evening event: 12 people, 90 minutes.
    evening = (15 * 60, 15 * 60 + 89)
    events["evening-event"] = evening
    group = rng.choice(PEOPLE, size=12, replace=False)
    for _ in range(180):
        i, j = rng.choice(12, size=2, replace=False)
        edges.append((f"p{group[i]}", f"p{group[j]}",
                      int(rng.integers(evening[0], evening[1] + 1))))
    return TemporalGraph(edges), events


def main() -> None:
    graph, events = synthesize_contacts()
    k = 5  # "high-risk" = everyone met at least 5 distinct others
    print(f"Contact stream: {graph}; planted events: {events}\n")

    # Build the index once; investigators then probe arbitrary ranges.
    index = CoreIndex(graph, k)
    print(f"Index built: |VCT| = {index.vct.size()}, "
          f"|ECS| = {index.ecs.size()} minimal core windows\n")

    # Investigation 1: the whole day.
    day = index.query(1, graph.tmax)
    clusters: dict[frozenset[str], tuple[int, int]] = {}
    for core in day:
        members = frozenset(core.vertex_labels(graph))
        if members not in clusters or (
            core.tti[1] - core.tti[0]
            < clusters[members][1] - clusters[members][0]
        ):
            clusters[members] = core.tti
    print(f"Whole-day sweep: {day.num_results} temporal {k}-cores, "
          f"{len(clusters)} distinct exposure clusters")
    recovered = set()
    shown = 0
    for members, tti in sorted(
        clusters.items(), key=lambda kv: kv[1][1] - kv[1][0]
    ):
        lo = graph.raw_time_of(tti[0])
        hi = graph.raw_time_of(tti[1])
        for name, (elo, ehi) in events.items():
            if elo <= lo and hi <= ehi:
                recovered.add(name)
        if shown < 8:  # the tightest clusters are the interesting ones
            print(f"  cluster of {len(members):>2} people, minutes {lo}..{hi}")
            shown += 1
    if len(clusters) > shown:
        print(f"  ... and {len(clusters) - shown} looser clusters")
    print(f"Recovered events: {sorted(recovered)}\n")
    assert recovered == set(events)

    # Investigation 2: only the afternoon (no recomputation).
    afternoon_lo = graph.normalized_time_of(
        min(t for t in (graph.raw_time_of(i) for i in range(1, graph.tmax + 1))
            if t >= 13 * 60)
    )
    afternoon = index.query(afternoon_lo, graph.tmax)
    print(f"Afternoon-only query (index reuse): {afternoon.num_results} cores")

    # Investigation 3: was a specific person exposed, and when?
    person = sorted(clusters)[0]
    someone = sorted(person)[0]
    exposures = [
        core.tti for core in day
        if someone in core.vertex_labels(graph)
    ]
    print(f"Exposure windows of {someone}: "
          f"{sorted(set(exposures))[:5]}{'...' if len(exposures) > 5 else ''}")


if __name__ == "__main__":
    main()
