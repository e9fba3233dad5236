"""The stable counting order (``repro_counting_order``).

:func:`repro.core.native.counting_order` must return exactly numpy's
stable argsort and the CSR offsets ``offsets_from_keys`` derives.  Each
case also runs on a host whose compile failed, where it must raise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.utils.arrays import offsets_from_keys

from tests.conftest import ON_BOTH_PATHS

#: Every case runs on the C kernel, then on a host whose compile failed.
on_both_paths = pytest.mark.parametrize("path", ON_BOTH_PATHS)


def assert_counting_order(keys: list[int], bound: int) -> None:
    array = np.asarray(keys, dtype=np.int64)
    order, offsets = native.counting_order(array, bound)
    assert order.dtype == offsets.dtype == np.int64
    assert order.tolist() == np.argsort(array, kind="stable").tolist()
    assert offsets.tolist() == offsets_from_keys(array, bound).tolist()
    assert len(offsets) == bound + 1 and offsets[-1] == len(keys)


@st.composite
def keys_and_bound(draw):
    bound = draw(st.integers(1, 40))
    keys = draw(st.lists(st.integers(0, bound - 1), max_size=200))
    return keys, bound


@on_both_paths
class TestCountingOrder:
    @settings(max_examples=150, deadline=None)
    @given(case=keys_and_bound())
    def test_equals_stable_argsort(self, path, case):
        assert_counting_order(*case)

    @settings(max_examples=60, deadline=None)
    @given(keys=st.lists(st.integers(0, 1000), min_size=1, max_size=300))
    def test_tight_bound(self, path, keys):
        assert_counting_order(keys, max(keys) + 1)

    @pytest.mark.parametrize(
        "keys, bound",
        [([], 0), ([], 5), ([0], 1), ([3], 4), ([2] * 50, 3), ([0] * 9, 1)],
    )
    def test_edge_cases(self, path, keys, bound):
        assert_counting_order(keys, bound)

    def test_accepts_read_only_and_non_contiguous_keys(self, path):
        keys = (np.arange(80, dtype=np.int64) % 7)[::-2]
        keys.flags.writeable = False
        order, _ = native.counting_order(keys, 7)
        assert order.tolist() == np.argsort(keys, kind="stable").tolist()

    @pytest.mark.parametrize("keys, bound", [([0, 5], 5), ([-1, 0], 3), ([1], 0)])
    def test_rejects_keys_outside_the_bound(self, path, keys, bound):
        with pytest.raises(ValueError):
            native.counting_order(np.asarray(keys, dtype=np.int64), bound)
