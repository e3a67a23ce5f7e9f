"""Tests for the terminal bar-chart renderer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro_bench.harness import Measurement
from repro_bench.plots import (
    bar_chart,
    figure2_charts,
    figure2_panel_chart,
    horizontal_bar,
)
from repro.errors import ValidationError


class TestHorizontalBar:
    def test_full_bar(self):
        assert horizontal_bar(10, 10, width=8) == "█" * 8

    def test_empty_bar(self):
        assert horizontal_bar(0, 10, width=8) == " " * 8

    def test_half_bar(self):
        bar = horizontal_bar(5, 10, width=8)
        assert bar.rstrip() == "█" * 4

    def test_zero_maximum(self):
        assert horizontal_bar(1, 0, width=4) == "    "

    def test_overflow_clamped(self):
        assert horizontal_bar(20, 10, width=4) == "████"

    def test_width_validated(self):
        with pytest.raises(ValidationError):
            horizontal_bar(1, 2, width=0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0, max_value=1e6),
        st.floats(min_value=0.001, max_value=1e6),
        st.integers(min_value=1, max_value=60),
    )
    def test_property_width_constant(self, value, maximum, width):
        assert len(horizontal_bar(value, maximum, width)) == width

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
    )
    def test_property_monotone(self, first, second):
        low, high = sorted([first, second])
        low_bar = horizontal_bar(low, 100, 20)
        high_bar = horizontal_bar(high, 100, 20)
        assert len(low_bar.rstrip()) <= len(high_bar.rstrip())


class TestBarChart:
    def test_labels_and_values_present(self):
        text = bar_chart([("alpha", 3.0), ("b", 1.5)])
        assert "alpha" in text
        assert "3.00 ms" in text
        assert "│" in text

    def test_empty(self):
        assert bar_chart([]) == "(no data)"

    def test_custom_unit(self):
        assert "7.00 s" in bar_chart([("x", 7.0)], unit="s")


def _measurements() -> list[Measurement]:
    rows = []
    for k in (1, 2):
        for query in ("Q1", "Q2"):
            for position, method in enumerate(("naive", "minjoin")):
                rows.append(
                    Measurement(
                        query=query,
                        method=method,
                        k=k,
                        seconds=0.001 * (position + 1) * k,
                        answer_size=5,
                    )
                )
    return rows


class TestFigure2Charts:
    def test_panel_contains_queries_and_methods(self):
        text = figure2_panel_chart(_measurements(), k=1)
        assert "panel k=1" in text
        assert "Q1" in text and "Q2" in text
        assert "naive" in text and "minjoin" in text

    def test_missing_panel(self):
        assert "(no measurements" in figure2_panel_chart(_measurements(), k=9)

    def test_all_panels(self):
        text = figure2_charts(_measurements())
        assert "panel k=1" in text and "panel k=2" in text
