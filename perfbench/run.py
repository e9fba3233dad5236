"""The repository benchmark: one command, named seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Workloads,
metrics and the layer map are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys

sys.dont_write_bytecode = True

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("serve-read", "ingest-community", "build-cold")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU for this process and every daemon it starts (children inherit
    # the mask): the host-speed probe (harness.HostClock) then times the CPU
    # the daemon runs on, and no client/daemon hand-off waits for the host
    # to wake a second vCPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import harness
    import spans
    import workloads

    work = harness.make_workdir()
    recorder = None
    if args.trace and args.workload == "build-cold":
        recorder = spans.Recorder()
        spans.install(recorder)
    ctx = argparse.Namespace(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace), work=work,
        recorder=recorder,
    )
    try:
        result = workloads.WORKLOADS[args.workload](ctx)
    finally:
        harness.kill_all()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
