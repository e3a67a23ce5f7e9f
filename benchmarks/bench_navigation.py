"""Anchored (single-source / boolean) reads vs all-pairs evaluation.

Example 3.1 shows the index's prefix-lookup shapes; this bench shows
why they matter: an anchored query ``from(a): ...`` pins the leftmost
scan of every join chain to ``I(p, a)``, so the joins see one node's
pairs, while the all-pairs read materializes the full relation.
"""

from __future__ import annotations

import pytest

QUERY = "master/journeyer/apprentice/journeyer"


@pytest.fixture(scope="module")
def database(prepared_bench):
    return prepared_bench.database(2)


def test_all_pairs(benchmark, database):
    benchmark.group = "navigation"
    result = benchmark.pedantic(
        lambda: database.query(QUERY, method="minsupport", use_cache=False),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    benchmark.extra_info["answer_size"] = len(result.pairs)


def test_single_source(benchmark, database):
    benchmark.group = "navigation"
    result = benchmark.pedantic(
        lambda: database.query(f"from(n3): {QUERY}", use_cache=False),
        rounds=5, iterations=1, warmup_rounds=1,
    )
    benchmark.extra_info["targets"] = len(result.pairs)


def test_prepared_single_source(benchmark, database):
    benchmark.group = "navigation"
    statement = database.prepare(f"from($v): {QUERY}")
    result = benchmark.pedantic(
        lambda: statement.run(v="n3"), rounds=5, iterations=1, warmup_rounds=1,
    )
    benchmark.extra_info["targets"] = len(result.pairs)


def test_boolean_probe(benchmark, database):
    benchmark.group = "navigation"
    database.cache_clear()
    benchmark.pedantic(
        lambda: database.query_pair("n3", "n5", QUERY),
        setup=database.cache_clear,
        rounds=5, iterations=1, warmup_rounds=1,
    )


def test_single_source_consistent_with_all_pairs(database):
    relation = database.query(QUERY, method="reference").pairs
    for name in list(database.graph.node_names())[:10]:
        expected = {b for a, b in relation if a == name}
        assert database.query_from(name, QUERY) == expected
