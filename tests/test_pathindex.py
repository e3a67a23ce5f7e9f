"""Tests for the k-path index: Example 3.1 lookups, both backends."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.errors import PathIndexError, ValidationError
from repro.graph.examples import figure1_graph
from repro.graph.graph import LabelPath
from repro.indexes.builder import cataloged_counts, path_relations
from repro.indexes.pathindex import PathIndex
from repro.rpq.semantics import eval_label_path

from tests.strategies import graphs


@pytest.fixture(scope="module")
def fig1_index():
    return PathIndex.build(figure1_graph(), k=3)


class TestScan:
    def test_scan_matches_reference(self, fig1_index):
        graph = fig1_index.graph
        path = LabelPath.of("knows", "knows", "worksFor")
        assert set(fig1_index.scan(path)) == eval_label_path(graph, path)

    def test_scan_is_sorted(self, fig1_index):
        path = LabelPath.of("knows", "knows")
        pairs = fig1_index.scan(path)
        assert pairs == sorted(pairs)

    def test_scan_unknown_path_is_empty(self, fig1_index):
        # supervisor/supervisor is empty (only one supervisor edge)
        assert fig1_index.scan(LabelPath.of("supervisor", "supervisor")) == []

    def test_scan_too_long_raises(self, fig1_index):
        with pytest.raises(PathIndexError):
            fig1_index.scan(LabelPath.of("knows", "knows", "knows", "knows"))

    def test_scan_swapped_is_target_sorted_same_relation(self, fig1_index):
        path = LabelPath.of("knows", "worksFor")
        direct = fig1_index.scan(path)
        swapped = fig1_index.scan_swapped(path)
        assert set(direct) == set(swapped)
        assert swapped == sorted(swapped, key=lambda pair: (pair[1], pair[0]))

    def test_example31_prefix_lookup(self, fig1_index):
        """I(p, a) returns the sorted targets — Example 3.1's shape."""
        graph = fig1_index.graph
        path = LabelPath.of("knows", "knows", "worksFor")
        jan = graph.node_id("jan")
        targets = fig1_index.scan_from(path, jan)
        expected = sorted(
            b for a, b in eval_label_path(graph, path) if a == jan
        )
        assert targets == expected

    def test_example31_membership(self, fig1_index):
        graph = fig1_index.graph
        path = LabelPath.of("knows", "knows", "worksFor")
        relation = eval_label_path(graph, path)
        inside = next(iter(relation))
        assert fig1_index.contains(path, *inside)
        assert not fig1_index.contains(path, graph.node_id("sue"),
                                       graph.node_id("sue")) or (
            (graph.node_id("sue"), graph.node_id("sue")) in relation
        )

    def test_counts_match_relations(self, fig1_index):
        graph = fig1_index.graph
        for path in fig1_index.paths():
            assert fig1_index.count(path) == len(eval_label_path(graph, path))

    def test_entry_count_is_total(self, fig1_index):
        total = sum(
            fig1_index.count(path) for path in fig1_index.paths()
        )
        assert fig1_index.entry_count == total


class TestBuildOptions:
    def test_k_validation(self):
        with pytest.raises(ValidationError):
            PathIndex.build(figure1_graph(), k=0)

    def test_unknown_backend(self):
        with pytest.raises(ValidationError):
            PathIndex.build(figure1_graph(), k=1, backend="cloud")

    def test_disk_backend_requires_path(self):
        with pytest.raises(ValidationError):
            PathIndex.build(figure1_graph(), k=1, backend="disk")

    def test_repr(self, fig1_index):
        text = repr(fig1_index)
        assert "k=3" in text and "memory" in text

    @pytest.mark.parametrize("prune_empty", [True, False])
    def test_build_matches_the_tuple_set_oracle(self, prune_empty):
        """The one (columnar) builder against ``path_relations``: catalog
        order, counts, every scan — and the function that owns which
        paths a catalog reports lists exactly what the oracle yields."""
        graph = figure1_graph()  # supervisor/supervisor is empty
        for k in (1, 2, 3):
            index = PathIndex.build(graph, k, prune_empty=prune_empty)
            oracle = list(path_relations(graph, k, prune_empty=prune_empty))
            counts = {path.encode(): len(pairs) for path, pairs in oracle}
            assert list(index.paths()) == [path for path, _ in oracle]
            assert list(index.counts_by_path().items()) == list(counts.items())
            for path, pairs in oracle:
                assert list(index.scan(path)) == pairs
            nonzero = {encoded: n for encoded, n in counts.items() if n}
            listed = cataloged_counts(nonzero, graph.labels(), k, prune_empty)
            assert list(listed.items()) == list(counts.items())


class TestDiskBackend:
    def test_disk_equals_memory(self, tmp_path):
        graph = figure1_graph()
        memory = PathIndex.build(graph, k=2, backend="memory")
        with PathIndex.build(
            graph, k=2, backend="disk", path=tmp_path / "i.db"
        ) as disk:
            assert disk.entry_count == memory.entry_count
            for path in memory.paths():
                assert disk.scan(path) == memory.scan(path)
                assert disk.scan_swapped(path) == memory.scan_swapped(path)

    def test_disk_reopen_via_catalog(self, tmp_path):
        graph = figure1_graph()
        index_path = tmp_path / "i.db"
        catalog_path = tmp_path / "i.catalog.json"
        with PathIndex.build(graph, k=2, backend="disk", path=index_path) as index:
            index.save_catalog(catalog_path)
            expected = index.scan(LabelPath.of("knows", "worksFor"))
        with PathIndex.open_disk(graph, index_path, catalog_path) as reopened:
            assert reopened.k == 2
            assert reopened.scan(LabelPath.of("knows", "worksFor")) == expected

    def test_disk_scan_from(self, tmp_path):
        graph = figure1_graph()
        with PathIndex.build(
            graph, k=2, backend="disk", path=tmp_path / "i.db"
        ) as disk:
            memory = PathIndex.build(graph, k=2)
            path = LabelPath.of("knows", "knows")
            for node in graph.node_ids():
                assert disk.scan_from(path, node) == memory.scan_from(path, node)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(graphs(max_nodes=6, max_edges=12))
    def test_index_agrees_with_reference_on_random_graphs(self, graph):
        index = PathIndex.build(graph, k=2)
        for path in index.paths():
            assert set(index.scan(path)) == eval_label_path(graph, path)

    @settings(max_examples=25, deadline=None)
    @given(graphs(max_nodes=6, max_edges=12))
    def test_swapped_scan_property(self, graph):
        index = PathIndex.build(graph, k=2)
        for path in index.paths():
            assert set(index.scan_swapped(path)) == set(index.scan(path))
