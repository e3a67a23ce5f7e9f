"""Storage ablation: sorted-column vs compressed index scans.

The memory backend hands out its per-path sorted columns; the disk
backend serves the same columns (its image file is only read on
reopen), so it has no scan arm of its own.  The bench measures
full-path scans of varying result size on the memory and compressed
backends — the access pattern that dominates query evaluation — and
checks that a reopened disk image answers like both.
"""

from __future__ import annotations

import pytest

from repro.graph.graph import LabelPath
from repro.indexes.pathindex import PathIndex


def _paths_by_size(index: PathIndex, count: int = 3) -> list[LabelPath]:
    """A few indexed paths spanning small/medium/large relations."""
    sized = sorted(
        ((index.count(path), path) for path in index.paths()),
        key=lambda item: item[0],
    )
    nonempty = [item for item in sized if item[0] > 0]
    if not nonempty:
        return []
    picks = [
        nonempty[0],
        nonempty[len(nonempty) // 2],
        nonempty[-1],
    ]
    return [path for _, path in picks[:count]]


@pytest.fixture(scope="module")
def memory_index(prepared_small):
    return prepared_small.database(2).index


@pytest.fixture(scope="module")
def disk_index(prepared_small, tmp_path_factory):
    """A disk index written, then reopened from its image."""
    path = tmp_path_factory.mktemp("diskindex") / "index.db"
    PathIndex.build(prepared_small.graph, 2, backend="disk", path=path)
    return PathIndex.open_disk(prepared_small.graph, path)


@pytest.mark.parametrize("position", (0, 1, 2), ids=("small", "medium", "large"))
def test_memory_scan(benchmark, memory_index, position):
    paths = _paths_by_size(memory_index)
    path = paths[position]
    benchmark.group = f"storage-scan-{position}"
    pairs = benchmark.pedantic(
        lambda: memory_index.scan(path), rounds=5, iterations=1
    )
    benchmark.extra_info["rows"] = len(pairs)


@pytest.fixture(scope="module")
def compressed_index(prepared_small):
    return PathIndex.build(prepared_small.graph, 2, backend="compressed")


@pytest.mark.parametrize("position", (0, 1, 2), ids=("small", "medium", "large"))
def test_compressed_scan(benchmark, compressed_index, position):
    paths = _paths_by_size(compressed_index)
    path = paths[position]
    benchmark.group = f"storage-scan-{position}"
    pairs = benchmark.pedantic(
        lambda: compressed_index.scan(path), rounds=5, iterations=1
    )
    benchmark.extra_info["rows"] = len(pairs)


def test_compression_ratio_reported(compressed_index):
    from repro.indexes.compressed import compression_ratio

    ratio = compression_ratio(compressed_index._backend)
    assert 0.0 < ratio < 0.5


def test_backends_agree(memory_index, disk_index, compressed_index):
    assert disk_index.counts_by_path() == compressed_index.counts_by_path()
    for path in _paths_by_size(memory_index):
        assert memory_index.scan(path) == disk_index.scan(path)
        assert memory_index.scan(path) == compressed_index.scan(path)
