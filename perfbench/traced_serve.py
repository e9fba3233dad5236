"""Start ``repro serve`` with span-recording shims installed.

Usage: ``python perfbench/traced_serve.py SPANS.ndjson <repro serve args>``.

Recording starts on SIGUSR1 and stops on SIGUSR2; the spans are written
as NDJSON to ``SPANS.ndjson`` once the daemon has drained and exited.
"""

from __future__ import annotations

import signal
import sys

sys.dont_write_bytecode = True

import spans  # noqa: E402  (sibling module; the script's directory is on sys.path)


def main(argv: list[str]) -> int:
    out, serve_args = argv[0], argv[1:]
    recorder = spans.Recorder()
    spans.install(recorder)
    signal.signal(signal.SIGUSR1, lambda *_: setattr(recorder, "enabled", True))
    signal.signal(signal.SIGUSR2, lambda *_: setattr(recorder, "enabled", False))
    from repro.serve.daemon import main as serve

    code = serve(serve_args)
    recorder.write(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
