"""Small helpers for the flat int64 arrays the columnar layers share.

The native VCT/ECS representation (offset-indexed flat arrays, see
:mod:`repro.core.windows` and :mod:`repro.core.coretime`) is fed from
several sources — freshly computed numpy arrays, ``array('q')`` buffers,
and zero-copy ``memoryview`` sections of an mmapped store blob.  These
helpers normalise all of them to numpy int64 views without copying
whenever the source already holds native-endian int64 bytes.
"""

from __future__ import annotations

import numpy as np


def as_int64_array(values) -> np.ndarray:
    """``values`` as a 1-D int64 ndarray, zero-copy where possible.

    Accepts ndarrays (pass through), buffer providers holding native
    int64 (``memoryview.cast("q")`` store sections, ``array('q')`` —
    wrapped without copying; mmap-backed views come back read-only,
    which is fine for the immutable index layers) and plain Python
    sequences (converted).
    """
    if isinstance(values, np.ndarray):
        if values.dtype == np.int64 and values.ndim == 1:
            return values
        return np.ascontiguousarray(values, dtype=np.int64).reshape(-1)
    try:
        return np.frombuffer(values, dtype=np.int64)
    except TypeError:
        return np.asarray(values, dtype=np.int64).reshape(-1)


def unique_sorted(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)``: the distinct values, ascending.

    One sort and a neighbour mask.  numpy 2.4's plain ``np.unique``
    imports ``numpy.ma`` on its first call in a process (tens of
    milliseconds), which a process's first query would pay.
    """
    ordered = np.sort(values, axis=None)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def flatten_pairs(
    pairs_by_segment,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR-flatten per-segment ``(a, b)`` pair sequences.

    Returns ``(offsets, a, b)`` int64 arrays with ``offsets`` holding
    ``len(pairs_by_segment) + 1`` entries — the conversion surface the
    list-based VCT/ECS constructors share.
    """
    counts = np.fromiter(
        (len(s) for s in pairs_by_segment), np.int64, len(pairs_by_segment)
    )
    offsets = np.zeros(len(pairs_by_segment) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    col_a = np.empty(total, dtype=np.int64)
    col_b = np.empty(total, dtype=np.int64)
    position = 0
    for segment in pairs_by_segment:
        for a, b in segment:
            col_a[position] = a
            col_b[position] = b
            position += 1
    return offsets, col_a, col_b


def offsets_from_keys(keys: np.ndarray, count: int) -> np.ndarray:
    """CSR offsets (``count + 1`` entries) for segment ``keys``.

    ``keys[i]`` is the segment id of element ``i``; once the elements
    are grouped by key in ascending order (``keys`` already sorted, or
    after a stable sort by key), the result ``o`` satisfies
    ``keys[o[s]:o[s+1]] == s`` for every segment ``s`` in
    ``range(count)``.
    """
    offsets = np.zeros(count + 1, dtype=np.int64)
    if len(keys):
        np.cumsum(np.bincount(keys, minlength=count), out=offsets[1:])
    return offsets
