"""The merge-ordering discipline behind the run-range merge
(:func:`repro.itsys.simulation.order_contiguous`)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.itsys.simulation import order_contiguous


class TestOrderContiguous:
    def test_orders_by_start(self):
        items = [{"s": (5, 10)}, {"s": (0, 5)}]
        ordered = order_contiguous(items, lambda item: item["s"])
        assert [item["s"] for item in ordered] == [(0, 5), (5, 10)]

    def test_gap_raises_not_contiguous(self):
        with pytest.raises(ValueError, match="not contiguous"):
            order_contiguous([{"s": (0, 4)}, {"s": (5, 9)}], lambda i: i["s"])

    def test_overlap_raises_not_contiguous(self):
        with pytest.raises(ValueError, match="not contiguous"):
            order_contiguous([{"s": (0, 6)}, {"s": (5, 9)}], lambda i: i["s"])

    def test_empty_input_raises(self):
        with pytest.raises(ValueError, match="empty"):
            order_contiguous([], lambda item: item)

    def test_empty_spans_are_tolerated(self):
        items = [{"s": (3, 3)}, {"s": (0, 3)}, {"s": (3, 7)}]
        ordered = order_contiguous(items, lambda item: item["s"])
        assert ordered[0]["s"] == (0, 3) and ordered[-1]["s"] == (3, 7)

    @given(
        st.lists(st.integers(0, 500), min_size=2, max_size=17, unique=True),
        st.randoms(),
    )
    def test_shuffled_partition_round_trips(self, bounds, rng):
        bounds = sorted(bounds)
        spans = list(zip(bounds, bounds[1:]))
        shuffled = list(spans)
        rng.shuffle(shuffled)
        ordered = order_contiguous(shuffled, lambda span: span)
        assert ordered == spans
