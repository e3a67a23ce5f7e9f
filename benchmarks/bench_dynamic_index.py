"""Incremental maintenance vs full rebuild (the paper's future work).

``GraphDatabase.apply()`` patches the index in place at every shard
count: an edge insertion touches only the edge's k-neighborhood.  This
bench quantifies the claim at ``shards=1`` by comparing one patched
insert against rebuilding ``I_{G,k}`` from scratch.
"""

from __future__ import annotations

import itertools
import time

import pytest

from repro.api import GraphDatabase
from repro.config import ServiceConfig
from repro.graph.generators import advogato_like
from repro.write import Mutation

KS = (1, 2)


def _database(k: int) -> GraphDatabase:
    graph = advogato_like(nodes=150, edges=900, seed=21)
    return GraphDatabase(graph, config=ServiceConfig(k=k, shards=1))


@pytest.mark.parametrize("k", KS, ids=lambda k: f"k{k}")
def test_incremental_insert(benchmark, k):
    benchmark.group = f"maintenance-k{k}"
    database = _database(k)
    counter = itertools.count()
    nodes = database.graph.node_names()

    def insert_one():
        step = next(counter)
        source = nodes[step % len(nodes)]
        target = nodes[(step * 7 + 3) % len(nodes)]
        database.apply(Mutation.add(source, "journeyer", target))

    benchmark.pedantic(insert_one, rounds=10, iterations=1)
    benchmark.extra_info["entries"] = database.index.entry_count
    assert database.stats().write.rebuilt == 0


@pytest.mark.parametrize("k", KS, ids=lambda k: f"k{k}")
def test_full_rebuild(benchmark, k):
    benchmark.group = f"maintenance-k{k}"
    database = _database(k)
    index = benchmark.pedantic(database.build_index, rounds=2, iterations=1)
    benchmark.extra_info["entries"] = index.entry_count


def test_incremental_is_faster_than_rebuild():
    """One patched insert must beat one full rebuild at k=2."""
    database = _database(2)
    nodes = database.graph.node_names()
    started = time.perf_counter()
    result = database.apply(Mutation.add(nodes[0], "journeyer", nodes[17]))
    incremental = time.perf_counter() - started
    assert result.mode == "patch"

    started = time.perf_counter()
    database.build_index()
    rebuild = time.perf_counter() - started
    assert incremental < rebuild
