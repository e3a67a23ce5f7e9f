"""Tests for the equi-depth k-path histogram (Section 3.2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GraphDatabase
from repro.errors import ValidationError
from repro.graph.examples import figure1_graph
from repro.graph.graph import LabelPath
from repro.graph.stats import count_paths_k
from repro.indexes.histogram import EquiDepthHistogram
from repro.indexes.pathindex import PathIndex


@pytest.fixture(scope="module")
def fig1_setup():
    graph = figure1_graph()
    index = PathIndex.build(graph, k=2)
    histogram = EquiDepthHistogram.from_index(index, buckets=8)
    return graph, index, histogram


class TestConstruction:
    def test_bucket_count_bounded(self, fig1_setup):
        _, _, histogram = fig1_setup
        assert 1 <= histogram.bucket_count <= 8

    def test_single_bucket(self, fig1_setup):
        graph, index, _ = fig1_setup
        histogram = EquiDepthHistogram.from_index(index, buckets=1)
        assert histogram.bucket_count == 1

    def test_empty_counts(self):
        histogram = EquiDepthHistogram.from_counts({}, k=2)
        assert histogram.bucket_count == 0
        assert histogram.estimated_count(LabelPath.of("a")) == 0.0

    def test_bucket_validation(self):
        with pytest.raises(ValidationError):
            EquiDepthHistogram.from_counts({"a": 1}, k=2, buckets=0)

    def test_parallel_arrays_validated(self):
        with pytest.raises(ValidationError):
            EquiDepthHistogram(["a"], [1, 2], [3], k=1)

    def test_equi_depth_property(self):
        """With many buckets available, bucket depths are balanced."""
        counts = {f"p{i:02d}": 10 for i in range(16)}
        histogram = EquiDepthHistogram.from_counts(counts, k=1, buckets=4)
        totals = histogram._bucket_totals
        assert all(total == pytest.approx(40, rel=0.5) for total in totals)


class TestEstimation:
    def test_estimates_within_bucket_bounds(self, fig1_setup):
        graph, index, histogram = fig1_setup
        counts = index.counts_by_path()
        for encoded, truth in counts.items():
            estimate = histogram.estimated_count(LabelPath.decode(encoded))
            assert estimate >= 0.0
            # the estimate is a bucket average, so it cannot exceed the
            # bucket's total, which is at most the grand total
            assert estimate <= sum(counts.values())

    def test_exact_when_buckets_exceed_paths(self, fig1_setup):
        graph, index, _ = fig1_setup
        counts = index.counts_by_path()
        histogram = EquiDepthHistogram.from_counts(
            counts, k=2, buckets=10 * len(counts)
        )
        # one path per bucket -> estimates are nearly exact except where
        # zero-count paths share a bucket with the next path
        for encoded, truth in counts.items():
            if truth > 0:
                estimate = histogram.estimated_count(LabelPath.decode(encoded))
                assert estimate == pytest.approx(truth, rel=1.0)

    def test_unknown_path_estimates_zero_or_bucket(self, fig1_setup):
        _, _, histogram = fig1_setup
        # A path lexicographically before every boundary -> 0.0
        assert histogram.estimated_count(LabelPath.of("aaa")) == 0.0

    def test_too_long_path_rejected(self, fig1_setup):
        _, _, histogram = fig1_setup
        with pytest.raises(ValidationError):
            histogram.estimated_count(LabelPath.of("a", "a", "a"))

    def test_selectivity_is_normalized_count(self, fig1_setup):
        graph, _, _ = fig1_setup
        with GraphDatabase(graph, k=2) as database:
            path = LabelPath.of("knows")
            estimate = database.histogram.estimated_count(path)
            expected = estimate / count_paths_k(graph, 2)
            assert database.selectivity("knows") == pytest.approx(expected)

    def test_paper_selectivity_example_shape(self, fig1_setup):
        """sel(supervisor ∘ knows) is |...|/|paths_2| — tiny but positive."""
        graph, index, _ = fig1_setup
        path = LabelPath.of("supervisor", "knows")
        exact_selectivity = index.count(path) / count_paths_k(graph, 2)
        assert 0.0 < exact_selectivity < 0.05

    def test_mean_absolute_error_zero_for_uniform_counts(self):
        counts = {f"p{i}": 7 for i in range(8)}
        histogram = EquiDepthHistogram.from_counts(counts, k=1, buckets=4)
        assert histogram.mean_absolute_error(counts) == pytest.approx(0.0)

    def test_more_buckets_do_not_hurt_accuracy(self, fig1_setup):
        graph, index, _ = fig1_setup
        counts = index.counts_by_path()
        coarse = EquiDepthHistogram.from_counts(counts, 2, buckets=2)
        fine = EquiDepthHistogram.from_counts(counts, 2, buckets=64)
        assert fine.mean_absolute_error(counts) <= coarse.mean_absolute_error(
            counts
        ) + 1e-9


class TestRandomized:
    @settings(max_examples=50, deadline=None)
    @given(
        st.dictionaries(
            st.from_regex(r"[a-c](\.[a-c]){0,1}", fullmatch=True),
            st.integers(min_value=0, max_value=100),
            min_size=1,
            max_size=20,
        ),
        st.integers(min_value=1, max_value=32),
    )
    def test_total_depth_preserved(self, counts, buckets):
        histogram = EquiDepthHistogram.from_counts(counts, k=2, buckets=buckets)
        assert sum(histogram._bucket_totals) == sum(counts.values())
        assert sum(histogram._bucket_paths) == len(counts)

    @settings(max_examples=50, deadline=None)
    @given(
        st.dictionaries(
            st.from_regex(r"[a-c]", fullmatch=True),
            st.integers(min_value=0, max_value=50),
            min_size=1,
        )
    )
    def test_estimates_nonnegative(self, counts):
        histogram = EquiDepthHistogram.from_counts(counts, k=1, buckets=4)
        for encoded in counts:
            assert histogram.estimated_count(LabelPath.decode(encoded)) >= 0.0
