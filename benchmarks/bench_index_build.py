"""Index construction: build time and size vs k (thesis-scope table).

The companion work the paper cites ([14], the from-scratch B+tree
implementation) studies index size and construction cost; this bench
regenerates that table for k = 1..3 on both backends.  Size growth is
asserted to be monotone (each k adds strictly more label paths).
``PathIndex.build`` is one shard's load of the one columnar builder —
what ``GraphDatabase`` builds at ``shards=1``.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import run_index_build
from repro.indexes.builder import count_label_paths
from repro.indexes.pathindex import PathIndex

KS = (1, 2, 3)


@pytest.mark.parametrize("k", KS, ids=lambda k: f"k{k}")
def test_build_memory_index(benchmark, prepared_bench, k):
    graph = prepared_bench.graph
    benchmark.group = "index-build-memory"
    index = benchmark.pedantic(
        lambda: PathIndex.build(graph, k), rounds=1, iterations=1
    )
    benchmark.extra_info["entries"] = index.entry_count
    benchmark.extra_info["paths"] = index.path_count


@pytest.mark.parametrize("k", (1, 2), ids=lambda k: f"k{k}")
def test_build_disk_index(benchmark, prepared_small, k, tmp_path):
    graph = prepared_small.graph
    benchmark.group = "index-build-disk"
    counter = iter(range(10_000))

    def build():
        path = tmp_path / f"index_{k}_{next(counter)}.db"
        index = PathIndex.build(graph, k, backend="disk", path=path)
        index.close()
        return index

    index = benchmark.pedantic(build, rounds=1, iterations=1)
    benchmark.extra_info["entries"] = index.entry_count


def test_size_table_shape(prepared_small):
    """Entries and path counts grow strictly with k."""
    rows = run_index_build(prepared_small.graph, ks=KS)
    entries = [row.entries for row in rows]
    paths = [row.paths for row in rows]
    assert entries == sorted(entries) and entries[0] < entries[-1]
    assert paths == sorted(paths) and paths[0] < paths[-1]
    labels = len(prepared_small.graph.labels())
    for row in rows:
        assert row.paths <= count_label_paths(labels, row.k)
