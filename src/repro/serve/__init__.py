"""repro.serve — the plan/execute serving layer.

Serving splits into three stages (see ``docs/SERVING.md``):

* **plan** (:mod:`repro.serve.planner`) — normalise any mix of range
  queries into a :class:`QueryPlan`: group by ``(graph, k)``, dedupe
  identical counting ranges, merge overlapping ones so shared work is
  counted once, pick the engine per group;
* **execute** (:mod:`repro.serve.executor`) — cut each covering window
  from its group's skyline (shared index or direct compute) and run the
  columnar Algorithm-5 walk (:mod:`repro.serve.columnar`) once per
  covering window, counting a shared window for every request it
  serves;
* **sink** (:mod:`repro.serve.sinks`) — deliver results: counters,
  materialised core objects or NDJSON lines.

:func:`execute_batch` answers a mixed ``(graph, k, range)`` batch in
one call (prefetch every ``k``, plan, execute).

The network front door (:mod:`repro.serve.daemon`,
:mod:`repro.serve.protocol`, :mod:`repro.serve.client`) puts the whole
pipeline behind one socket: a long-lived asyncio daemon with admission
control, streamed NDJSON-identical answers, graceful drain and an HTTP
``/metrics`` endpoint — see ``docs/DAEMON.md``.
"""

from repro.serve.client import DaemonClient
from repro.serve.columnar import run_columnar_walk
from repro.serve.daemon import ServingDaemon
from repro.serve.executor import execute_batch, execute_plan
from repro.serve.planner import (
    CoveringWindow,
    PlanGroup,
    QueryPlan,
    QueryRequest,
    plan_queries,
)
from repro.serve.sinks import CountSink, MaterializingSink, NDJSONSink, ResultSink

__all__ = [
    "CountSink",
    "CoveringWindow",
    "DaemonClient",
    "ServingDaemon",
    "MaterializingSink",
    "NDJSONSink",
    "PlanGroup",
    "QueryPlan",
    "QueryRequest",
    "ResultSink",
    "execute_batch",
    "execute_plan",
    "plan_queries",
    "run_columnar_walk",
]
