"""Strict-warning and sanitizer checks for the C kernels (``core/_fixpoint.c``).

1. Compiles the source with ``-Wall -Wextra -Werror``: any warning fails.
2. Runs ``tests/core/test_multik.py`` and ``tests/core/test_incremental.py``
   against an AddressSanitizer + UndefinedBehaviorSanitizer build of the
   library (``-fsanitize=address,undefined -fno-sanitize-recover=all``),
   loaded through :mod:`repro.core.native` with its compiler command and
   cache directory redirected to a temp dir.

The ASan runtime has to be loaded before the Python interpreter's own
libraries, so run it as::

    LD_PRELOAD=$(cc -print-file-name=libasan.so) ASAN_OPTIONS=detect_leaks=0 \\
        PYTHONPATH=src python tools/check_native.py

Exits non-zero when the strict compile fails, the sanitized library does
not load, or a test fails (a sanitizer report aborts the process).
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

STRICT = ["-Wall", "-Wextra", "-Werror"]
SANITIZE = [
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
    "-fno-omit-frame-pointer",
    "-g",
]
TESTS = ["tests/core/test_multik.py", "tests/core/test_incremental.py"]


def with_flags(flags: list[str]):
    """The loader's compiler command with ``flags`` after the compiler name."""
    base = native.compiler_command

    def command(source: pathlib.Path, output: pathlib.Path) -> list[str]:
        compiler, *rest = base(source, output)
        return [compiler, *flags, *rest]

    return command


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
        native.library.cache_clear()
        if native.library() is None or not list(sanitized.glob("_fixpoint-*.so")):
            print(
                "the sanitized library did not load: run with "
                "LD_PRELOAD=$(cc -print-file-name=libasan.so)",
                file=sys.stderr,
            )
            return 1
        # --capture=sys leaves fd 2 alone, so a sanitizer report that
        # aborts the process still reaches the terminal.
        args = ["-q", "-p", "no:cacheprovider", "--capture=sys"]
        return int(pytest.main([*args, *(str(ROOT / t) for t in TESTS)]))


if __name__ == "__main__":
    sys.exit(main())
