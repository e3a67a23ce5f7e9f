"""Per-shard statistics and shard pruning.

Two properties govern the subsystem:

* **merge exactness** — summing per-shard exact counts reproduces the
  global catalog on every path (the hypothesis suite pins it on both
  kernel paths at shards 1/2/4), so the merged view can replace a
  global recount and the statistics "wire format" (per-shard count
  dictionaries) loses nothing.
* **answer transparency** — shard pruning is a pure performance
  decision: ``shards=N`` answers stay identical to the ``shards=1``
  oracle, including on chains whose every hop crosses a shard
  boundary.

Around those sit the observables (pruned counts on
``ExecutionReport`` / ``stats()``), the cache-invalidation
contracts, and the ``REPRO_DEFAULT_SHARDS`` knob.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GraphDatabase, ServiceConfig, default_shard_count
from repro.errors import ValidationError
from repro.graph.generators import advogato_like
from repro.engine.operators import ScatterPolicy
from repro.graph.graph import Graph
from repro.graph.stats import count_paths_k
from repro.indexes.pathindex import PathIndex
from repro.indexes.statistics import ExactStatistics, merge_shard_counts
from repro.rpq.semantics import eval_query
from repro.sharding import ShardedGraph, shard_of

from tests.strategies import graphs
from tests.test_sharding import BOTH_PATHS, forced_path

STRATEGIES = ("naive", "semi-naive", "minsupport", "minjoin")


def interleaved_chain(length: int, shards: int, first_label: str = "a") -> Graph:
    """A chain whose consecutive vertices never share a shard.

    The first edge carries ``first_label``; the rest carry ``a``.
    """
    ids: list[int] = []
    lane, candidate = 0, 0
    while len(ids) < length + 1:
        if shard_of(candidate, shards) == lane % shards:
            ids.append(candidate)
            lane += 1
        candidate += 1
    graph = Graph()
    for node in range(max(ids) + 1):
        graph.add_node(f"n{node}")
    for hop, (left, right) in enumerate(zip(ids, ids[1:])):
        label = first_label if hop == 0 else "a"
        graph.add_edge(f"n{left}", label, f"n{right}")
    return graph


# -- the statistics merge -----------------------------------------------------


class TestShardStatistics:
    def test_merged_statistics_agree_with_global_exact(self):
        graph = advogato_like(nodes=70, edges=350, seed=3)
        plain = PathIndex.build(graph, 2)
        sharded = ShardedGraph.build(graph, 2, shards=4)
        merged = sharded.merged_statistics()
        reference = ExactStatistics.from_index(plain, graph)
        assert merged.total_paths_k == reference.total_paths_k
        for path in plain.paths():
            assert merged.estimated_count(path) == reference.estimated_count(path)
            assert merged.selectivity(path) == reference.selectivity(path)

    def test_shard_statistics_sum_to_catalog(self):
        graph = advogato_like(nodes=60, edges=300, seed=9)
        sharded = ShardedGraph.build(graph, 2, shards=3)
        per_shard = [sharded.shard_statistics(shard) for shard in range(3)]
        for path in sharded.paths():
            total = sum(stats.estimated_count(path) for stats in per_shard)
            assert total == sharded.count(path)

    def test_merge_shard_counts(self):
        merged = merge_shard_counts([{"a": 1, "b": 2}, {"b": 3}, {}])
        assert merged == {"a": 1, "b": 5}

    def test_shard_statistics_validates_shard(self):
        graph = advogato_like(nodes=20, edges=60, seed=1)
        sharded = ShardedGraph.build(graph, 2, shards=2)
        with pytest.raises(ValidationError):
            sharded.shard_statistics(2)

    @BOTH_PATHS
    @settings(max_examples=30, deadline=None)
    @given(
        graph=graphs(max_nodes=7, max_edges=14),
        shards=st.sampled_from((1, 2, 4)),
    )
    def test_merged_per_shard_statistics_equal_global(
        self, pure_python, graph, shards
    ):
        """Per-shard counts sum to the unsharded catalog on every path."""
        with forced_path(pure_python):
            plain = PathIndex.build(graph, 2)
            sharded = ShardedGraph.build(graph, 2, shards=shards)
            reference = ExactStatistics.from_index(plain, graph)
            merged = sharded.merged_statistics()
            per_shard = [sharded.shard_statistics(shard) for shard in range(shards)]
            for path in plain.paths():
                expected = reference.estimated_count(path)
                assert merged.estimated_count(path) == expected
                shard_total = sum(stats.estimated_count(path) for stats in per_shard)
                assert shard_total == expected


class TestStatisticsCaches:
    def test_counts_by_path_is_cached_and_copied(self):
        graph = advogato_like(nodes=40, edges=160, seed=5)
        sharded = ShardedGraph.build(graph, 2, shards=3)
        first = sharded.counts_by_path()
        assert sharded._merged_counts is not None
        # The cache survives; callers get copies they cannot corrupt.
        first.clear()
        assert sharded.counts_by_path() != {}

    def test_rebuild_shards_invalidates_statistics_caches(self):
        graph = advogato_like(
            nodes=40, edges=160, seed=5, labels=("a", "b"), label_weights=None
        )
        sharded = ShardedGraph.build(graph, 2, shards=3)
        sharded.counts_by_path()  # warm the merge cache
        stats_before = sharded.shard_statistics(0)
        sharded.decision_cache["sentinel"] = object()
        graph.add_edge("n0", "a", "n1") or graph.remove_edge("n0", "a", "n1")
        sharded.rebuild_shards(range(3))
        after = sharded.counts_by_path()
        assert after == merge_shard_counts(
            [index.counts_by_path() for index in sharded.shard_indexes]
        )
        assert "sentinel" not in sharded.decision_cache
        # Shard statistics are rebuilt lazily against the new catalogs.
        assert sharded.shard_statistics(0) is not stats_before

    def test_paths_k_total_follows_named_and_unnamed_changes(self):
        graph = advogato_like(
            nodes=40, edges=160, seed=5, labels=("a", "b"), label_weights=None
        )
        sharded = ShardedGraph.build(graph, 2, shards=3)
        assert sharded.total_paths_k() == count_paths_k(graph, 2)
        assert sharded.take_recounted_sources() == graph.node_count
        # Endpoints named: the sizes survive and a neighbourhood is resized.
        graph.add_edge("n0", "a", "fresh")
        ends = {graph.node_id("n0"), graph.node_id("fresh")}
        sharded.rebuild_shards(range(3), endpoints=ends)
        assert sharded.total_paths_k() == count_paths_k(graph, 2)
        assert 2 <= sharded.take_recounted_sources() < graph.node_count
        # Endpoints unknown: everything is counted again on next read.
        graph.remove_edge("n0", "a", "fresh")
        sharded.rebuild_shards(range(3))
        assert sharded.total_paths_k() == count_paths_k(graph, 2)
        assert sharded.take_recounted_sources() == graph.node_count


# -- pruning exactness --------------------------------------------------------


class TestShardPruning:
    def test_pruning_never_drops_answers_on_cross_shard_chain(self):
        """Every hop crosses shards; the rare-led head makes all but
        one shard provably empty — the answer must survive pruning."""
        shards = 2
        graph = interleaved_chain(5, shards, first_label="r")
        database = GraphDatabase(graph, k=2, config=ServiceConfig(shards=shards))
        oracle = GraphDatabase(graph, k=2, config=ServiceConfig(shards=1))
        for query in ("r/a/a", "r/a/a/a/a", "r/a{1,3}"):
            answer = database.query(query, use_cache=False)
            expected = oracle.query(query, use_cache=False)
            assert answer.pairs == expected.pairs, query
            assert answer.pairs == frozenset(eval_query(graph, query)), query
            assert answer.report.shards_pruned >= 1, query
        # And with every hop crossing shards, the chain's start still
        # reaches three hops out — the pruned shards contributed nothing.
        assert len(database.query("r/a/a", use_cache=False).pairs) == 1

    def test_pruned_counts_surface_on_report_and_cache_info(self):
        shards = 4
        graph = interleaved_chain(4, shards, first_label="r")
        database = GraphDatabase(graph, k=2, config=ServiceConfig(shards=shards))
        result = database.query("r/a/a", use_cache=False)
        report = result.report
        assert report.shards_pruned >= 1
        assert report.disjuncts_pruned >= report.shards_pruned
        assert report.shards_scanned >= 1
        info = database.stats().as_dict()
        assert info["shards_pruned"] == report.shards_pruned
        assert info["disjuncts_pruned"] == report.disjuncts_pruned
        assert info["shards_scanned"] == report.shards_scanned
        batch = database.query_batch(["r/a", "r/a/a"], use_cache=False)
        assert all(item.pairs is not None for item in batch)
        grown = database.stats().as_dict()
        assert grown["shards_pruned"] >= info["shards_pruned"]

    def test_empty_star_operand_survives_all_shard_pruning(self):
        """A star whose operand label does not exist: every shard slice
        prunes, and the closure must still produce the identity."""
        graph = interleaved_chain(3, 2)
        database = GraphDatabase(graph, k=2, config=ServiceConfig(shards=2))
        oracle = GraphDatabase(graph, k=2, config=ServiceConfig(shards=1))
        assert (
            database.query("zz*", use_cache=False).pairs
            == oracle.query("zz*", use_cache=False).pairs
        )

    def test_decision_cache_reused_across_executions(self, monkeypatch):
        """A repeated query decides nothing again: every (shard, plan)
        decision is a cache hit, and the counters it replays match."""
        decided = []
        original = ScatterPolicy._decide

        def counting(policy, shard, plan):
            decided.append(shard)
            return original(policy, shard, plan)

        monkeypatch.setattr(ScatterPolicy, "_decide", counting)
        graph = interleaved_chain(4, 4, first_label="r")
        database = GraphDatabase(graph, k=2, config=ServiceConfig(shards=4))
        first = database.query("r/a/a|r/a", use_cache=False).report
        cached_entries = len(database.index.decision_cache)
        assert sorted(decided) == [0, 1, 2, 3] and cached_entries == 4
        decided.clear()
        again = database.query("r/a/a|r/a", use_cache=False).report
        assert decided == []
        assert len(database.index.decision_cache) == cached_entries
        for counter in ("shards_scanned", "shards_pruned", "disjuncts_pruned"):
            assert getattr(again, counter) == getattr(first, counter), counter
        assert first.shards_pruned >= 1

    @BOTH_PATHS
    @settings(max_examples=25, deadline=None)
    @given(
        graph=graphs(max_nodes=7, max_edges=14),
        shards=st.sampled_from((2, 4)),
        method=st.sampled_from(STRATEGIES),
    )
    def test_pruning_matches_oracle(self, pure_python, graph, shards, method):
        """shards=N answers equal the shards=1 oracle with pruning on,
        under every strategy and both kernel paths."""
        with forced_path(pure_python):
            oracle = GraphDatabase(graph, k=2, config=ServiceConfig(shards=1))
            sharded = GraphDatabase(graph, k=2, config=ServiceConfig(shards=shards))
            for query in ("a/b/a", "a{1,3}", "(a|b)/a/b", "b*"):
                assert (
                    sharded.query(query, method=method, use_cache=False).pairs
                    == oracle.query(query, method=method, use_cache=False).pairs
                ), query


# -- the REPRO_DEFAULT_SHARDS knob --------------------------------------------


class TestDefaultShardsKnob:
    def test_unset_means_unsharded(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEFAULT_SHARDS", raising=False)
        assert default_shard_count() == 1

    def test_env_value_routes_defaults_through_sharding(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEFAULT_SHARDS", "3")
        assert default_shard_count() == 3
        graph = interleaved_chain(3, 3)
        database = GraphDatabase(graph, k=2)
        assert isinstance(database.index, ShardedGraph)
        assert database.index.shard_count == 3
        # An explicit shards= always wins over the environment.
        pinned = GraphDatabase(graph, k=2, config=ServiceConfig(shards=1))
        assert isinstance(pinned.index, ShardedGraph)
        assert pinned.index.shard_count == 1

    def test_garbage_fails_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEFAULT_SHARDS", "four")
        with pytest.raises(ValidationError):
            default_shard_count()
        monkeypatch.setenv("REPRO_DEFAULT_SHARDS", "0")
        with pytest.raises(ValidationError):
            default_shard_count()


# -- the bounded decision cache -----------------------------------------------


class TestBoundedCache:
    def test_fifo_eviction_caps_size(self):
        from repro.sharding import BoundedCache

        cache = BoundedCache(maxsize=3)
        for i in range(10):
            cache[i] = i * i
        assert len(cache) == 3
        assert 6 not in cache and 9 in cache
        assert cache[9] == 81
        assert cache.get(0) is None and cache.get(9) == 81
        cache.clear()
        assert len(cache) == 0

    def test_maxsize_validated(self):
        from repro.sharding import BoundedCache

        with pytest.raises(ValidationError):
            BoundedCache(maxsize=0)

    def test_decision_cache_is_bounded(self):
        from repro.sharding import DECISION_CACHE_MAX

        graph = interleaved_chain(2, 4)
        sharded = ShardedGraph.build(graph, k=2, shards=2)
        assert sharded.decision_cache.maxsize == DECISION_CACHE_MAX
        for i in range(DECISION_CACHE_MAX + 50):
            sharded.decision_cache[("synthetic", i)] = object()
        assert len(sharded.decision_cache) == DECISION_CACHE_MAX
