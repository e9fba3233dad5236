"""Crash and fault injection points for durability testing.

This package ships *with* the library (not under ``tests/``) because the
production modules call it: the write-ahead log, the blob writer, the
manifest writer, the streaming snapshot path and the incremental fold
all call :func:`repro.testing.crashpoints.crashpoint` at the instants
where a crash is interesting.  In normal operation those calls are a
single module-global read; under ``REPRO_CRASHPOINT=<name>`` the named
call SIGKILLs the process mid-operation — which is how the crash
campaign (``tests/store/test_crash_campaign.py``, killing ``repro
serve`` itself) proves that every acknowledged append lands exactly
once and no crash instant can leave an unopenable store.

* :mod:`repro.testing.crashpoints` — the named crash/fault point
  catalogue and the env-var-driven triggers.
"""

from repro.testing.crashpoints import (
    CRASHPOINT_ENV,
    FAULTPOINT_ENV,
    crashpoint,
    faultpoint,
    registered_crashpoints,
    registered_faultpoints,
)

__all__ = [
    "CRASHPOINT_ENV",
    "FAULTPOINT_ENV",
    "crashpoint",
    "faultpoint",
    "registered_crashpoints",
    "registered_faultpoints",
]
