"""The store checksum (``repro_crc32_fold``, then zlib for the tail).

:func:`repro.core.native.crc32` must equal ``zlib.crc32`` for any data
and start value, with the carry-less fold and on a CPU without
PCLMULQDQ, where ``repro_crc32_fold`` returns -1 and zlib checksums the
whole buffer: blobs written on either CPU must verify on the other.
On a host whose compile failed it must raise.
"""

from __future__ import annotations

import contextlib
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native

from tests.conftest import ON_BOTH_PATHS


def on_cpu(path: str):
    """A context in which ``repro_crc32_fold`` refuses as without PCLMULQDQ, or is as it is."""
    if path != "no-pclmul":
        return contextlib.nullcontext()
    kernels = native.library()._replace(crc32_fold=lambda length, address, value: -1)
    return mock.patch.object(native, "library", lambda: kernels)


@pytest.mark.parametrize("path", [*ON_BOTH_PATHS, "no-pclmul"])
class TestCrc32:
    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=600), value=st.integers(0, 2**32 - 1))
    def test_equals_zlib(self, path, data, value):
        with on_cpu(path):
            assert native.crc32(data, value) == zlib.crc32(data, value)

    @pytest.mark.parametrize("size", [0, 1, 15, 16, 63, 64, 65, 79, 80, 127, 128, 4096 + 13])
    def test_block_boundaries(self, path, size):
        """Lengths around the 16-byte blocks and the 64-byte minimum."""
        data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
        with on_cpu(path):
            assert native.crc32(data) == zlib.crc32(data)
            assert native.crc32(memoryview(data)[3:]) == zlib.crc32(data[3:])

    def test_large_int64_buffer(self, path):
        """A multi-megabyte int64 payload, as a store blob holds, chained."""
        values = np.random.default_rng(7).integers(-(2**62), 2**62, 3 << 17, dtype=np.int64)
        with on_cpu(path):
            head = native.crc32(values[:1000])
            assert native.crc32(values[1000:], head) == zlib.crc32(values.tobytes())
