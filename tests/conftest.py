"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core import native
from repro.datasets.paper_example import paper_example_graph
from repro.graph.generators import uniform_random_temporal
from repro.graph.temporal_graph import TemporalGraph


@pytest.fixture()
def paper_graph() -> TemporalGraph:
    """The 9-vertex running example of the paper (Figure 1)."""
    return paper_example_graph()


@pytest.fixture()
def numpy_fixpoint(monkeypatch):
    """Multi-k builds, folds and columnar walks run their numpy paths, not the C kernels."""
    monkeypatch.setattr(native, "library", lambda: None)


@pytest.fixture()
def triangle_graph() -> TemporalGraph:
    """A minimal 2-core: one triangle spread over three timestamps."""
    return TemporalGraph([("a", "b", 1), ("b", "c", 2), ("a", "c", 3)])


@pytest.fixture(params=range(5))
def random_graph(request) -> TemporalGraph:
    """Five seeded random multigraphs, small enough for the oracle."""
    return uniform_random_temporal(12, 70, tmax=14, seed=request.param)


def canonical_triples(graph: TemporalGraph, core) -> frozenset:
    """Core edges as label triples with sorted endpoint order.

    Internal canonicalisation orders endpoints by first-seen vertex id,
    which differs from the paper's label order; tests compare against
    published data through this normalisation.
    """
    triples = set()
    for u, v, t in core.edge_triples(graph):
        a, b = sorted((str(u), str(v)))
        triples.add((a, b, t))
    return frozenset(triples)
