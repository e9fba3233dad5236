"""Strict-warning and sanitizer checks for the C kernels (``core/_fixpoint.c``).

1. Compiles the source with ``-Wall -Wextra -Werror``: any warning fails.
2. Runs the CoreTime kernel, multi-k, fold, streaming-service,
   counting-order, checksum, skyline, blob-store and columnar-walk suites
   (``tests/core/test_flat_kernel.py``, ``tests/core/test_multik.py``,
   ``tests/core/test_incremental.py``, ``tests/core/test_maintenance.py``,
   ``tests/core/test_counting_order.py``,
   ``tests/core/test_crc32.py``, ``tests/core/test_windows.py``,
   ``tests/store/test_format.py``, ``tests/serve/test_columnar.py``,
   ``tests/serve/test_executor.py``)
   against an AddressSanitizer + UndefinedBehaviorSanitizer build of the
   library (``-fsanitize=address,undefined -fno-sanitize-recover=all``),
   loaded through :mod:`repro.core.native` with its compiler command and
   cache directory redirected to a temp dir.
3. Counts the calls of each of the eight entry points of
   :class:`~repro.core.native.Kernels` while the suites run, and reports
   them: an entry point no suite called is a failure, since the
   sanitizers never saw it.

The ASan runtime has to be loaded before the Python interpreter's own
libraries, so run it as::

    LD_PRELOAD=$(cc -print-file-name=libasan.so) ASAN_OPTIONS=detect_leaks=0 \\
        PYTHONPATH=src python tools/check_native.py

Exits non-zero when the strict compile fails, the sanitized library does
not load, a test fails (a sanitizer report aborts the process), or an
entry point was never called.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

from repro.core import native  # noqa: E402
from repro.errors import KernelBuildError  # noqa: E402

STRICT = ["-Wall", "-Wextra", "-Werror"]
SANITIZE = [
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
    "-fno-omit-frame-pointer",
    "-g",
]
TESTS = [
    "tests/core/test_flat_kernel.py",
    "tests/core/test_multik.py",
    "tests/core/test_incremental.py",
    "tests/core/test_maintenance.py",
    "tests/core/test_counting_order.py",
    "tests/core/test_crc32.py",
    "tests/core/test_windows.py",
    "tests/store/test_format.py",
    "tests/serve/test_columnar.py",
    "tests/serve/test_executor.py",
]


def with_flags(flags: list[str]):
    """The loader's compiler command with ``flags`` after the compiler name."""
    base = native.compiler_command

    def command(source: pathlib.Path, output: pathlib.Path) -> list[str]:
        compiler, *rest = base(source, output)
        return [compiler, *flags, *rest]

    return command


def counted(kernels: native.Kernels, calls: dict[str, int]) -> native.Kernels:
    """``kernels`` with every entry point wrapped to count its calls into ``calls``."""

    def wrap(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)

        return call

    return kernels._replace(**{name: wrap(name, getattr(kernels, name)) for name in kernels._fields})


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="check-native-") as tmp:
        scratch = pathlib.Path(tmp)
        strict = with_flags(STRICT)(native.SOURCE, scratch / "strict.so")
        print("+", " ".join(strict), flush=True)
        if subprocess.run(strict).returncode != 0:
            print("strict compile failed", file=sys.stderr)
            return 1

        sanitized = scratch / "sanitized"
        native.compiler_command = with_flags(SANITIZE)
        native.cache_dirs = lambda: [sanitized]
        native._loaded.cache_clear()
        try:
            kernels = native.library()
        except KernelBuildError as exc:
            print(exc, file=sys.stderr)
            kernels = None
        if kernels is None or not list(sanitized.glob("_fixpoint-*.so")):
            print(
                "the sanitized library did not load: run with "
                "LD_PRELOAD=$(cc -print-file-name=libasan.so)",
                file=sys.stderr,
            )
            return 1
        calls = dict.fromkeys(native.Kernels._fields, 0)
        watched = counted(kernels, calls)
        native.library = lambda: watched
        # --capture=sys leaves fd 2 alone, so a sanitizer report that
        # aborts the process still reaches the terminal.
        args = ["-q", "-p", "no:cacheprovider", "--capture=sys"]
        status = int(pytest.main([*args, *(str(ROOT / t) for t in TESTS)]))
        print("entry point calls under the sanitizers:")
        for name, count in calls.items():
            print(f"  {name}: {count}")
        missed = [name for name, count in calls.items() if not count]
        if missed:
            print(f"never called under the sanitizers: {', '.join(missed)}", file=sys.stderr)
            return status or 1
        return status


if __name__ == "__main__":
    sys.exit(main())
