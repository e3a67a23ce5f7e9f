"""Incremental index maintenance at one shard: ``apply()`` patches in place.

Every case mutates a ``GraphDatabase(config=ServiceConfig(k=…, shards=1))``
through ``apply()`` and holds the patched index — every relation and the
catalog the statistics layer reads — against a fresh build over the
same graph.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GraphDatabase
from repro.config import ServiceConfig
from repro.errors import PathIndexError
from repro.graph.examples import figure1_graph
from repro.graph.graph import Graph, LabelPath
from repro.indexes.pathindex import PathIndex
from repro.write import Mutation
from repro.write.delta import path_targets


def _database(graph: Graph, k: int) -> GraphDatabase:
    return GraphDatabase(graph, config=ServiceConfig(k=k, shards=1))


def _assert_equivalent(database: GraphDatabase, k: int) -> None:
    """The maintained index must equal a fresh rebuild over its graph."""
    fresh = PathIndex.build(database.graph, k, prune_empty=False)
    for path in fresh.paths():
        assert database.index.scan(path) == fresh.scan(path), path.encode()
    rebuilt = _database(copy.deepcopy(database.graph), k)
    assert database.index.counts_by_path() == rebuilt.index.counts_by_path()
    assert database.index.entry_count == rebuilt.index.entry_count


class TestLookups:
    def test_matches_static_index_initially(self):
        _assert_equivalent(_database(figure1_graph(), 2), 2)

    def test_scan_from_and_contains(self):
        graph = figure1_graph()
        index = _database(graph, 2).index
        static = PathIndex.build(figure1_graph(), k=2)
        path = LabelPath.of("knows", "worksFor")
        for node in graph.node_ids():
            assert index.scan_from(path, node) == static.scan_from(path, node)
        pairs = static.scan(path)
        if pairs:
            assert index.contains(path, *pairs[0])
        assert not index.contains(path, 10_000, 10_000)

    def test_length_check(self):
        index = _database(figure1_graph(), 1).index
        with pytest.raises(PathIndexError):
            index.scan(LabelPath.of("knows", "knows"))

    def test_scan_swapped_matches_static_index(self):
        index = _database(figure1_graph(), 2).index
        static = PathIndex.build(figure1_graph(), k=2)
        path = LabelPath.of("knows", "worksFor")
        assert index.scan_swapped(path).pairs() == static.scan_swapped(path).pairs()


class TestInsert:
    def test_single_insert_matches_rebuild(self):
        database = _database(figure1_graph(), 2)
        result = database.apply(Mutation.add("ada", "knows", "kim"))
        assert result.changed and result.mode == "patch"
        assert result.patched_shards == (0,)
        _assert_equivalent(database, 2)

    def test_duplicate_insert_is_noop(self):
        database = _database(figure1_graph(), 2)
        before = database.index.entry_count
        result = database.apply(Mutation.add("ada", "knows", "zoe"))  # exists
        assert result.mode == "noop" and not result.changed
        assert database.index.entry_count == before

    def test_insert_new_node(self):
        database = _database(figure1_graph(), 2)
        assert database.apply(Mutation.add("newbie", "knows", "kim")).changed
        _assert_equivalent(database, 2)

    def test_insert_new_label_triggers_rebuild(self):
        database = _database(figure1_graph(), 2)
        result = database.apply(Mutation.add("ada", "mentors", "zoe"))
        assert result.mode == "rebuild"
        assert "mentors" in database.graph.labels()
        _assert_equivalent(database, 2)

    def test_insert_self_loop(self):
        database = _database(figure1_graph(), 2)
        assert database.apply(Mutation.add("kim", "knows", "kim")).changed
        _assert_equivalent(database, 2)

    def test_sequence_of_inserts_k3(self):
        database = _database(Graph.from_edges([("a", "x", "b")]), 3)
        for edge in [("b", "x", "c"), ("c", "y", "a"), ("a", "y", "c"),
                     ("c", "x", "c")]:
            database.apply(Mutation.add(*edge))
            _assert_equivalent(database, 3)


class TestDelete:
    def test_delete_matches_rebuild(self):
        database = _database(figure1_graph(), 2)
        assert database.apply(Mutation.remove("kim", "supervisor", "liz")).changed
        assert not database.graph.has_edge("kim", "supervisor", "liz")
        _assert_equivalent(database, 2)

    def test_delete_missing_edge(self):
        database = _database(figure1_graph(), 2)
        result = database.apply(Mutation.remove("kim", "knows", "kim"))
        assert result.mode == "noop" and not result.changed

    def test_delete_keeps_pairs_with_other_witnesses(self):
        # diamond: s->l->t and s->r->t; removing one leg keeps (s, t).
        graph = Graph.from_edges(
            [("s", "hop", "l"), ("l", "hop", "t"),
             ("s", "hop", "r"), ("r", "hop", "t")]
        )
        database = _database(graph, 2)
        path = LabelPath.of("hop", "hop")
        s, t = graph.node_id("s"), graph.node_id("t")
        assert database.index.contains(path, s, t)
        assert database.apply(Mutation.remove("s", "hop", "l")).mode == "patch"
        assert database.index.contains(path, s, t)  # witness via r survives
        _assert_equivalent(database, 2)

    def test_deleting_the_last_edge_of_a_label_retires_its_paths(self):
        """A label's last edge going takes its paths out of the catalog
        (the alphabet changed, so the group rebuilds) — the mirror image
        of the brand-new-label case."""
        graph = Graph.from_edges(
            [("a", "solo", "b"), ("a", "knows", "b"), ("b", "knows", "c")]
        )
        database = _database(graph, 2)
        assert any("solo" in path.encode() for path in database.index.paths())
        assert database.apply(Mutation.remove("a", "solo", "b")).mode == "rebuild"
        assert "solo" not in database.graph.labels()
        index = database.index
        assert all("solo" not in path.encode() for path in index.paths())
        assert all("solo" not in encoded for encoded in index.counts_by_path())
        assert index.entry_count == sum(index.counts_by_path().values())
        _assert_equivalent(database, 2)

    def test_label_death_then_rebirth_roundtrip(self):
        """Removing a label's last edge and re-adding it must land back
        on the rebuilt-from-scratch state on both sides."""
        database = _database(figure1_graph(), 2)
        assert database.apply(Mutation.remove("kim", "supervisor", "liz")).changed
        _assert_equivalent(database, 2)
        assert database.apply(Mutation.add("kim", "supervisor", "liz")).changed
        _assert_equivalent(database, 2)

    def test_insert_then_delete_roundtrip(self):
        database = _database(figure1_graph(), 2)
        index = database.index
        catalog = index.counts_by_path()
        baseline = {path.encode(): index.scan(path) for path in index.paths()}
        database.apply(Mutation.add("sam", "worksFor", "ada"))
        database.apply(Mutation.remove("sam", "worksFor", "ada"))
        assert database.index is index  # patched both ways, never rebuilt
        assert index.counts_by_path() == catalog
        for path in index.paths():
            assert index.scan(path) == baseline[path.encode()]


class TestRandomizedMaintenance:
    EDGE = st.tuples(
        st.sampled_from([f"n{i}" for i in range(5)]),
        st.sampled_from(["a", "b"]),
        st.sampled_from([f"n{i}" for i in range(5)]),
    )

    @staticmethod
    def _graph(initial) -> Graph:
        graph = Graph()
        for name in [f"n{i}" for i in range(5)]:
            graph.add_node(name)
        for edge in initial:
            graph.add_edge(*edge)
        return graph

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(EDGE, min_size=1, max_size=8),
        st.lists(st.tuples(st.booleans(), EDGE), max_size=10),
    )
    def test_mutation_stream_matches_rebuild(self, initial, operations):
        database = _database(self._graph(initial), 2)
        for is_insert, edge in operations:
            database.apply((Mutation.add if is_insert else Mutation.remove)(*edge))
        _assert_equivalent(database, 2)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(EDGE, min_size=1, max_size=6),
           st.lists(EDGE, min_size=1, max_size=6))
    def test_mutation_stream_k3(self, initial, inserts):
        database = _database(self._graph(initial), 3)
        for edge in inserts:
            database.apply(Mutation.add(*edge))
        _assert_equivalent(database, 3)


class TestPathTargets:
    def test_matches_reference(self):
        from repro.rpq.semantics import eval_label_path

        graph = figure1_graph()
        path = LabelPath.of("knows", "knows-", "worksFor")
        relation = eval_label_path(graph, path)
        for source in graph.node_ids():
            expected = {b for a, b in relation if a == source}
            assert path_targets(graph, source, path) == expected
