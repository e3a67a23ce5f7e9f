"""Tests for the exact and uniform statistics providers."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.graph.examples import figure1_graph
from repro.graph.graph import LabelPath
from repro.graph.stats import count_paths_k
from repro.indexes.pathindex import PathIndex
from repro.indexes.statistics import ExactStatistics, UniformStatistics
from repro.sharding import ShardedGraph


@pytest.fixture(scope="module")
def setup():
    graph = figure1_graph()
    index = PathIndex.build(graph, k=2)
    return graph, index


class TestExactStatistics:
    def test_from_index(self, setup):
        graph, index = setup
        stats = ExactStatistics.from_index(index)
        assert stats.k == 2
        assert stats.counts == index.counts_by_path()
        # The denominator is the index's, sized when it is read.
        assert not hasattr(stats, "total_paths_k")
        sharded = ShardedGraph.build(graph, 2, shards=1)
        assert sharded.total_paths_k() == count_paths_k(graph, 2)

    def test_counts_are_exact(self, setup):
        _, index = setup
        stats = ExactStatistics.from_index(index)
        for path in index.paths():
            assert stats.estimated_count(path) == float(index.count(path))

    def test_unknown_path_is_zero(self, setup):
        _, index = setup
        stats = ExactStatistics.from_index(index)
        assert stats.estimated_count(LabelPath.of("supervisor", "supervisor")) == 0.0

    def test_selectivity_normalization(self, setup):
        graph, index = setup
        stats = ExactStatistics.from_index(index)
        knows = LabelPath.of("knows")
        total = ShardedGraph.build(graph, 2, shards=1).total_paths_k()
        assert stats.estimated_count(knows) / total == pytest.approx(
            9 / count_paths_k(graph, 2)
        )

    def test_too_long_path_rejected(self, setup):
        _, index = setup
        stats = ExactStatistics.from_index(index)
        with pytest.raises(ValidationError):
            stats.estimated_count(LabelPath.of("a", "a", "a"))

    def test_validation(self):
        with pytest.raises(ValidationError):
            ExactStatistics({}, k=0)
        # An empty catalog (an empty graph) is valid: every count is 0.
        empty = ExactStatistics({}, k=1)
        assert empty.estimated_count(LabelPath.of("knows")) == 0.0


class TestUniformStatistics:
    def test_same_estimate_for_same_length(self, setup):
        graph, _ = setup
        stats = UniformStatistics(graph, k=2)
        knows = stats.estimated_count(LabelPath.of("knows"))
        supervisor = stats.estimated_count(LabelPath.of("supervisor"))
        assert knows == supervisor  # information-free by design

    def test_longer_paths_estimate_smaller_on_sparse_graphs(self, setup):
        graph, _ = setup
        stats = UniformStatistics(graph, k=2)
        one = stats.estimated_count(LabelPath.of("knows"))
        two = stats.estimated_count(LabelPath.of("knows", "knows"))
        assert two < one

    def test_length_bound_enforced(self, setup):
        graph, _ = setup
        stats = UniformStatistics(graph, k=1)
        with pytest.raises(ValidationError):
            stats.estimated_count(LabelPath.of("a", "b"))

    def test_selectivity_positive(self, setup):
        graph, _ = setup
        stats = UniformStatistics(graph, k=2)
        total = ShardedGraph.build(graph, 2, shards=1).total_paths_k()
        assert stats.estimated_count(LabelPath.of("knows")) / total > 0.0
