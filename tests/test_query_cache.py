"""Tests for the GraphDatabase query cache and its invalidation.

The regression the cache must never introduce: a graph mutation or an
index rebuild after which a *stale* cached answer is served.  The cache
key embeds the graph's monotone version counter, and ``build_index``
clears the cache wholesale, so both routes are covered.
"""

from __future__ import annotations

import pytest

from repro.api import GraphDatabase, ServiceConfig
from repro.errors import ValidationError
from repro.graph.examples import FIGURE1_EDGES
from repro.rpq.semantics import eval_query


def _database(**knobs) -> GraphDatabase:
    return GraphDatabase.from_edges(
        FIGURE1_EDGES, k=2, config=ServiceConfig(**knobs)
    )


class TestCacheHits:
    def test_repeated_query_is_cached(self):
        database = _database()
        first = database.query("knows/worksFor")
        second = database.query("knows/worksFor")
        assert not first.cached
        assert second.cached
        assert second.pairs == first.pairs
        assert first.report is not None
        assert second.report is None  # reports are not retained
        hash(first.report)  # reports stay hashable (set/dict-key use)
        info = database.stats().as_dict()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_distinct_methods_cached_separately(self):
        database = _database()
        semi = database.query("knows/worksFor", method="semi-naive")
        minj = database.query("knows/worksFor", method="minjoin")
        assert not semi.cached and not minj.cached
        assert semi.pairs == minj.pairs
        assert database.stats().as_dict()["entries"] == 2

    def test_baseline_methods_are_cached_too(self):
        database = _database()
        database.query("knows", method="reference")
        assert database.query("knows", method="reference").cached

    def test_use_cache_false_bypasses(self):
        """No lookup, no store, no counter updates — a true bypass."""
        database = _database()
        before = database.stats().as_dict()
        fresh = database.query("knows", use_cache=False)
        assert not fresh.cached
        info = database.stats().as_dict()
        assert info["entries"] == before["entries"] == 0
        assert info["misses"] == before["misses"] == 0

    def test_overwriting_a_key_does_not_inflate_the_pair_count(self):
        """Regression: re-storing the same key must not double-count."""
        database = _database()
        size = len(database.query("knows").pairs)
        for _ in range(5):
            with database._cache_lock:
                database._remember_locked(
                    next(iter(database._query_cache)),
                    next(iter(database._query_cache.values())),
                )
        info = database.stats().as_dict()
        assert info["entries"] == 1
        assert info["pairs"] == size
        # And the cache still actually hits.
        assert database.query("knows").cached

    def test_lru_eviction(self):
        database = _database(query_cache_size=2)
        database.query("knows")
        database.query("worksFor")
        database.query("supervisor")  # evicts "knows"
        assert database.stats().as_dict()["entries"] == 2
        assert not database.query("knows").cached

    def test_zero_capacity_disables_caching(self):
        database = _database(query_cache_size=0)
        database.query("knows")
        assert not database.query("knows").cached

    @pytest.mark.parametrize(
        "budget", [{"query_cache_size": -1}, {"query_cache_max_pairs": -5}]
    )
    def test_negative_budgets_are_rejected(self, budget):
        """A negative budget is a mistake, not a request for capacity 0."""
        with pytest.raises(ValidationError, match=next(iter(budget))):
            ServiceConfig(**budget)

    def test_pairs_budget_bounds_memory(self):
        """The cache is bounded by total answer pairs, not just entries."""
        database = _database(query_cache_max_pairs=8)
        big = database.query("(knows|worksFor|supervisor){1,3}")
        assert len(big.pairs) > 8
        # Oversized answer is served but never cached.
        assert not database.query("(knows|worksFor|supervisor){1,3}").cached
        assert database.stats().as_dict()["pairs"] == 0
        # Small answers still cache, and evict LRU when the budget fills.
        database.query("supervisor")
        database.query("knows/worksFor")
        info = database.stats().as_dict()
        assert 0 < info["pairs"] <= 8
        database.cache_clear()
        assert database.stats().as_dict()["pairs"] == 0


class TestScanMemoCounters:
    """stats() also surfaces the executor's per-execution scan memo."""

    def test_memo_fires_on_a_union_of_disjuncts_query(self):
        """knows{1,3} normalizes to a union of three disjuncts that all
        scan the knows path — the memo must serve the repeats."""
        database = _database()
        before = database.stats().as_dict()
        assert before["scan_memo_hits"] == 0
        result = database.query("knows{1,3}", method="naive")
        assert result.report.scan_memo_hits > 0
        info = database.stats().as_dict()
        assert info["scan_memo_hits"] == result.report.scan_memo_hits
        assert info["scan_memo_misses"] == result.report.scan_memo_misses

    def test_counters_accumulate_across_queries(self):
        database = _database()
        first = database.query("knows{1,2}", method="naive")
        second = database.query("worksFor{1,2}", method="naive")
        info = database.stats().as_dict()
        assert info["scan_memo_hits"] == (
            first.report.scan_memo_hits + second.report.scan_memo_hits
        )
        assert info["scan_memo_misses"] == (
            first.report.scan_memo_misses + second.report.scan_memo_misses
        )

    def test_cached_answers_do_not_touch_the_memo_counters(self):
        database = _database()
        database.query("knows{1,3}", method="naive")
        after_first = database.stats().as_dict()
        assert database.query("knows{1,3}", method="naive").cached
        info = database.stats().as_dict()
        assert info["scan_memo_hits"] == after_first["scan_memo_hits"]
        assert info["scan_memo_misses"] == after_first["scan_memo_misses"]


class TestInvalidation:
    def test_stale_results_never_served_after_mutation(self):
        """The regression test: mutate, rebuild, query — answers are fresh."""
        database = _database()
        query = "knows/worksFor"
        before = database.query(query)
        assert database.query(query).cached  # primed

        # Mutate the graph: kim starts working for a brand-new node.
        assert database.graph.add_edge("kim", "worksFor", "newco")
        database.build_index()

        after = database.query(query)
        assert not after.cached, "cached answer served across a mutation"
        expected = eval_query(database.graph, query)
        assert set(after.pairs) == expected
        assert after.pairs != before.pairs or expected == set(before.pairs)

    def test_graph_version_is_part_of_the_key(self):
        """Even without build_index, a mutation must miss the cache."""
        database = _database()
        database.query("knows")
        database.graph.add_edge("zz_a", "knows", "zz_b")
        # No rebuild yet: the version bump alone must force a miss.
        assert not database.query("knows").cached

    def test_mutation_purges_dead_entries(self):
        """Entries keyed on superseded versions can never hit again —
        they must be dropped, not left pinning the budgets."""
        database = _database()
        database.query("knows")
        database.query("worksFor")
        assert database.stats().as_dict()["entries"] == 2
        database.graph.add_edge("zz_a", "knows", "zz_b")
        database.query("supervisor")  # first query after the mutation
        info = database.stats().as_dict()
        assert info["entries"] == 1  # only the fresh-version entry lives
        assert info["pairs"] == len(database.query("supervisor").pairs)

    def test_build_index_clears_cache(self):
        database = _database()
        database.query("knows")
        assert database.stats().as_dict()["entries"] == 1
        database.build_index()
        assert database.stats().as_dict()["entries"] == 0

    def test_cache_clear(self):
        database = _database()
        database.query("knows")
        database.cache_clear()
        assert database.stats().as_dict()["entries"] == 0
        assert not database.query("knows").cached

    def test_mutated_answers_are_correct_for_all_strategies(self):
        database = _database()
        query = "knows/knows"
        for method in ("naive", "semi-naive", "minsupport", "minjoin"):
            database.query(query, method=method)
        database.graph.add_edge("sue", "knows", "jan")
        database.build_index()
        expected = eval_query(database.graph, query)
        for method in ("naive", "semi-naive", "minsupport", "minjoin"):
            result = database.query(query, method=method)
            assert not result.cached
            assert set(result.pairs) == expected, method
