"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import functools

import pytest

from repro.core import native
from repro.datasets.paper_example import paper_example_graph
from repro.errors import KernelBuildError
from repro.graph.generators import uniform_random_temporal
from repro.graph.temporal_graph import TemporalGraph

#: The stderr of the failed compile that ``failed_compile`` stands in for.
COMPILER_STDERR = "cc: fatal error: no input"


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "failed_compile: run on a host whose compile of the C kernels failed",
    )


def _refused(test):
    """``test`` on a host whose compile failed: ``native.library()`` raises.

    There is no other implementation of the kernels, so the case passes
    only if it lets that :class:`KernelBuildError` through unchanged, or
    finishes without asking for the kernels at all; a case that asks and
    goes on fails.
    """

    @functools.wraps(test)
    def case(*args, **kwargs):
        calls: list[int] = []

        def failed() -> native.Kernels:
            calls.append(1)
            raise KernelBuildError(COMPILER_STDERR)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "library", failed)
            try:
                test(*args, **kwargs)
            except KernelBuildError as exc:
                assert COMPILER_STDERR in str(exc)
                return
        assert not calls, "the case asked for the kernels, was refused and went on"

    return case


@pytest.hookimpl(wrapper=True)
def pytest_pyfunc_call(pyfuncitem):
    """Runs a ``failed_compile`` case through :func:`_refused`."""
    if pyfuncitem.get_closest_marker("failed_compile") is None:
        return (yield)
    # Hypothesis runs each example through ``inner_test``: refusing there
    # leaves it no failure to shrink.
    owner = getattr(pyfuncitem.obj, "hypothesis", None)
    with pytest.MonkeyPatch.context() as patch:
        if owner is None:
            patch.setattr(pyfuncitem, "obj", _refused(pyfuncitem.obj))
        else:
            patch.setattr(owner, "inner_test", _refused(owner.inner_test))
        return (yield)


#: The two hosts a case can run on: ``numpy`` is the id the host without
#: the compiled kernels has always had (it ran numpy twins, now gone).
ON_BOTH_PATHS = ["compiled", pytest.param("numpy", marks=pytest.mark.failed_compile)]


@pytest.fixture()
def paper_graph() -> TemporalGraph:
    """The 9-vertex running example of the paper (Figure 1)."""
    return paper_example_graph()


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
