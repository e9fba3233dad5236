"""The store checksum (``repro_crc32_fold`` and its zlib fallback).

:func:`repro.core.native.crc32` must equal ``zlib.crc32`` for any data
and start value, on the compiled kernel and on the fallback alike:
blobs written by either path must verify on the other.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native

from tests.core.test_counting_order import on_both_paths, on_path


@on_both_paths
class TestCrc32:
    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=600), value=st.integers(0, 2**32 - 1))
    def test_equals_zlib(self, path, data, value):
        with on_path(path):
            assert native.crc32(data, value) == zlib.crc32(data, value)

    @pytest.mark.parametrize("size", [0, 1, 15, 16, 63, 64, 65, 79, 80, 127, 128, 4096 + 13])
    def test_block_boundaries(self, path, size):
        """Lengths around the 16-byte blocks and the 64-byte minimum."""
        data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
        with on_path(path):
            assert native.crc32(data) == zlib.crc32(data)
            assert native.crc32(memoryview(data)[3:]) == zlib.crc32(data[3:])

    def test_large_int64_buffer(self, path):
        """A multi-megabyte int64 payload, as a store blob holds, chained."""
        values = np.random.default_rng(7).integers(-(2**62), 2**62, 3 << 17, dtype=np.int64)
        with on_path(path):
            head = native.crc32(values[:1000])
            assert native.crc32(values[1000:], head) == zlib.crc32(values.tobytes())
