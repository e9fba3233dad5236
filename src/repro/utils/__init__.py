"""Shared utilities: ordering primitives."""

from repro.utils.order import (
    counting_sort_by,
    interval_contains,
    kth_smallest,
    merge_intervals,
)

__all__ = [
    "counting_sort_by",
    "interval_contains",
    "kth_smallest",
    "merge_intervals",
]
