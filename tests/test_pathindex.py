"""Tests for the k-path index: Example 3.1 lookups on all three backends,
and the memory backend's copy-on-write patch."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GraphDatabase
from repro.config import ServiceConfig
from repro.errors import PathIndexError, ValidationError
from repro.graph.examples import figure1_graph
from repro.graph.generators import advogato_like
from repro.graph.graph import LabelPath
from repro.indexes.builder import cataloged_counts, path_relations
from repro.indexes.pathindex import PathIndex
from repro.rpq.parser import parse
from repro.rpq.semantics import eval_ast, eval_label_path
from repro.write import Mutation, MutationBatch

from tests.strategies import graphs, label_paths

BACKENDS = ("memory", "disk", "compressed")


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


class TestOrderedDictionaryContract:
    """§3.1's three lookups against the tuple-set builder, per backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=15, deadline=None)
    @given(graph=graphs(max_nodes=6, max_edges=12), k=st.integers(1, 3))
    def test_lookups_match_the_builder_oracle(self, backend, graph, k):
        oracle = dict(path_relations(graph, k, prune_empty=False))
        # Node ids are 0..n-1: -1 and n bracket the stored sources, and
        # on a sparse relation some id in between is absent too.
        probes = range(-1, graph.node_count + 1)
        with tempfile.TemporaryDirectory() as scratch:
            index = PathIndex.build(
                graph, k, backend=backend, path=Path(scratch) / "index.db"
            )
            with index:
                # Every path: non-empty, listed-empty, and pruned away.
                for path, pairs in oracle.items():
                    scanned = index.scan(path)
                    assert list(scanned) == pairs  # sorted, duplicate-free
                    assert index.count(path) == len(pairs)
                    for source in probes:
                        expected = [b for a, b in pairs if a == source]
                        assert index.scan_from(path, source) == expected
                        for target in probes:
                            assert index.contains(path, source, target) == (
                                (source, target) in set(pairs)
                            )
                assert index.entry_count == sum(map(len, oracle.values()))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_uncatalogued_path(self, backend, tmp_path):
        with PathIndex.build(
            figure1_graph(), 2, backend=backend, path=tmp_path / "index.db"
        ) as index:
            stranger = LabelPath.of("knows", "nobody")
            assert list(index.scan(stranger)) == []
            assert index.scan_from(stranger, 0) == []
            assert not index.contains(stranger, 0, 1)
            assert index.count(stranger) == 0


def _columns(index: PathIndex) -> dict[str, tuple[bytes, bytes]]:
    """Encoded path -> the bytes of its non-empty scan columns."""
    columns = {}
    for path in index.paths():
        relation = index.scan(path)
        if len(relation):
            columns[path.encode()] = relation.src.tobytes(), relation.tgt.tobytes()
    return columns


class TestCopyOnWritePatch:
    """The memory backend's edit: exact, idempotent, never in place."""

    PAIRS = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=6)

    @settings(max_examples=60, deadline=None)
    @given(
        graph=graphs(max_nodes=6, max_edges=10),
        edits=st.lists(
            st.tuples(label_paths(max_length=2), PAIRS, PAIRS), max_size=8
        ),
    )
    def test_patch_sequence_equals_a_fresh_load(self, graph, edits):
        """Random patches (re-adds, absent removes, a pair in both lists,
        first entries of pruned paths, paths emptied) against a model."""
        index = PathIndex.build(graph, 2)
        model = {
            path.encode(): set(pairs) for path, pairs in path_relations(graph, 2)
        }
        for path, adds, removes in edits:
            held = index.scan(path)
            before = held.src.tobytes(), held.tgt.tobytes()
            pairs = model.setdefault(path.encode(), set())
            removed = pairs & set(removes)
            pairs -= removed
            inserted = set(adds) - pairs  # adds win: they apply after removes
            pairs |= inserted
            assert index.patch(path, adds, removes) == (len(inserted), len(removed))
            assert (held.src.tobytes(), held.tgt.tobytes()) == before
        fresh = PathIndex.from_relations(
            graph,
            2,
            [(LabelPath.decode(p), sorted(pairs)) for p, pairs in model.items()],
        )
        assert _columns(index) == _columns(fresh)
        assert index.entry_count == fresh.entry_count
        for encoded, pairs in model.items():
            assert index.count(LabelPath.decode(encoded)) == len(pairs)

    def test_apply_leaves_earlier_results_alone(self):
        """A result read before ``apply()`` still equals the oracle at its
        version, and only patched paths got new columns."""
        database = GraphDatabase(
            advogato_like(nodes=40, edges=200, seed=5),
            config=ServiceConfig(k=2, shards=1),
        )
        graph = database.graph
        shard = database.index.shard_indexes[0]

        def oracle(text):
            return graph.pairs_to_names(eval_ast(graph, parse(text)))

        def installed():
            return {
                path: shard._backend.scan_columns(path_id)[0]
                for path, path_id in shard._path_ids.items()
                if shard.count(LabelPath.decode(path))
            }

        before = database.query("master", use_cache=False)
        expected = oracle("master")
        held = before.report.relation
        held_bytes = held.src.tobytes(), held.tgt.tobytes()
        columns = installed()
        assert held.src is columns["master"]  # the scan was zero-copy
        contents = _columns(shard)
        present = next(iter(sorted(before.pairs)))
        absent = next(
            (a, b)
            for a in graph.node_names()
            for b in graph.node_names()
            if a != b and (a, b) not in before.pairs
        )
        result = database.apply(
            MutationBatch(
                [
                    Mutation.remove(present[0], "master", present[1]),
                    Mutation.add(absent[0], "master", absent[1]),
                ]
            )
        )
        assert result.mode == "patch"
        assert before.version < result.version
        assert before.pairs == expected
        assert (held.src.tobytes(), held.tgt.tobytes()) == held_bytes
        assert graph.pairs_to_names(held) == expected
        after = database.query("master", use_cache=False)
        assert after.version == result.version
        assert after.pairs == oracle("master") != expected
        after_columns, after_contents = installed(), _columns(shard)
        swapped = {
            path
            for path in {*columns, *after_columns}
            if columns.get(path) is not after_columns.get(path)
        }
        edited = {
            path
            for path in {*contents, *after_contents}
            if contents.get(path) != after_contents.get(path)
        }
        assert "master" in swapped and swapped == edited


class TestReadsLeaveTheIndexAlone:
    POOL = (
        "master/journeyer",
        "journeyer/master",
        "master/master",
        "journeyer/^master",
        "^master/journeyer",
        "master/journeyer/apprentice",
        "master{1,2}",
        "(master|journeyer)/apprentice",
        "master/(journeyer|apprentice)",
        "^journeyer/^master",
        "apprentice{1,3}",
        "journeyer/master/^apprentice",
    )

    def test_every_strategy_over_the_join_pool(self):
        """Scans are zero-copy, so a kernel writing into its input would
        corrupt the index: every installed column survives the workload."""
        graph = advogato_like(nodes=80, edges=480, seed=31)
        database = GraphDatabase(graph, config=ServiceConfig(k=2, shards=1))
        for method in ("naive", "semi-naive", "minsupport", "minjoin"):
            for text in self.POOL:
                database.query(text, method=method, use_cache=False)
            database.query_batch(list(self.POOL), method=method)
        assert _columns(database.index.shard_indexes[0]) == _columns(
            PathIndex.build(graph, 2)
        )
