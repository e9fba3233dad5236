"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so downstream users can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError):
    """Raised when an edge-list file or edge iterable is malformed."""


class InvalidParameterError(ReproError):
    """Raised when a query or algorithm parameter is out of range.

    Examples: ``k < 1``, an empty time range, or a range that lies outside
    the graph's normalised timestamp span.
    """


class EmptyGraphError(ReproError):
    """Raised when an operation requires a non-empty temporal graph."""


class DatasetError(ReproError):
    """Raised when a dataset recipe is unknown or cannot be generated."""


class KernelBuildError(ReproError):
    """Raised when the C kernels (``core/_fixpoint.c``) cannot be compiled or loaded.

    The message carries the compiler's stderr.  Every CoreTime build,
    fold, columnar walk and store checksum needs these kernels, so a
    host without a working C compiler (``cc``) cannot run them.
    """


class BenchmarkError(ReproError):
    """Raised by the benchmark harness on misconfiguration."""


class StoreError(ReproError):
    """Raised by the on-disk index store on unusable files or inputs.

    Examples: a path that is not a store blob, an unsupported format
    version, or a graph whose labels cannot be persisted.
    """


class StoreCorruptionError(StoreError):
    """Raised when a store file fails integrity checks.

    Covers truncation (the payload is shorter than the header declares)
    and checksum mismatches.  Callers on the serving path treat this as
    "entry absent" and rebuild rather than serve corrupt data.
    """
