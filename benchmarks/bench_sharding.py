"""Sharding ablation: partitioned index build and scatter-gather queries.

Two sweeps over the Advogato-like bench graph, both against the
``shards=1`` engine as baseline:

* **build** — ``ShardedGraph.build`` at several shard counts vs the
  same build at ``shards=1``.  One columnar builder streams one shard
  after the other at every count, so this is an ungated parity report:
  entries identical at every count, ratio ~1.0 and noisy.  It used to
  carry a ">= 1.5x at shards=4" gate for a process-pool build; the pool
  was deleted because it lost at every size measured (2-core host,
  seconds, serial vs pool at the same shard count, median of 5): this
  bench graph k=3 (964k entries) 0.57 vs 0.83 at 2 shards and 0.51 vs
  0.63 at 4; 1,000 nodes / 8,000 edges k=2 0.179 vs 0.271 and 0.217 vs
  0.336; 5,000 / 40,000 k=2 at 4 shards 1.43 vs 2.44; 2,000 / 16,000
  k=3 (18.5M entries) at 4 shards 9.45-10.99 vs 14.35-21.38.  The
  B+tree load is most of a build and runs in the caller whatever
  composes the relations, so a free pool is bounded near 1.2x and a
  real one pays fork + pickling instead.  Parallel builds are one
  process per shard (``repro serve``).
* **query** — scatter-gather execution of the
  :func:`repro_bench.workloads.sharding_queries` set at each shard
  count, answers asserted identical to the one-shard engine (which
  runs the plain executor).  Reported without a gate: per-shard
  execution is an architecture property (partitioned fan-in, per-shard
  parallelism headroom), not a single-core win.

Run directly to print a table and export ``BENCH_sharding.json``::

    PYTHONPATH=src python benchmarks/bench_sharding.py          # full
    PYTHONPATH=src python benchmarks/bench_sharding.py --smoke  # small

or under pytest (the smoke rows, parity asserted)::

    PYTHONPATH=src python -m pytest benchmarks/bench_sharding.py -q
"""

from __future__ import annotations

import gc
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.api import GraphDatabase, ServiceConfig
from repro_bench.export import write_json
from repro_bench.workloads import sharding_graph, sharding_queries
from repro.sharding import ShardedGraph

#: (scale, k, shard counts) of the two sweeps.  The build workload is
#: the bench-scale k=3 build — large enough that composition dominates
#: fixed overheads — so the smoke sweep keeps it and trims only the
#: shard-count axis and the query repetitions.
FULL_CONFIG = ("bench", 3, (1, 2, 4, 8))
SMOKE_CONFIG = ("bench", 3, (1, 2, 4))
QUERY_K = 2
QUERY_REPEATS = 3


@dataclass(frozen=True, slots=True)
class ShardingRow:
    """One timing at one shard count, against the same at one shard."""

    phase: str  # "build" | "query"
    shards: int
    scale: str
    k: int
    operation: str  # "index-build" or the query text
    seconds: float
    baseline_seconds: float  # the shards=1 timing of the same operation
    size: int  # index entries (build) or answer pairs (query)

    @property
    def speedup_vs_single(self) -> float:
        if self.seconds == 0:
            return float("inf")
        return self.baseline_seconds / self.seconds


def _timed(callable_):
    gc.collect()
    started = time.perf_counter()
    result = callable_()
    return time.perf_counter() - started, result


def build_rows(
    scale: str, k: int, shard_counts: tuple[int, ...]
) -> list[ShardingRow]:
    """Time the index build at each shard count; check entry parity."""
    graph = sharding_graph(scale)
    timings: dict[int, float] = {}
    entries = None
    for shards in sorted({1, *shard_counts}):
        timings[shards], built = _timed(
            lambda: ShardedGraph.build(graph, k, shards=shards)
        )
        if entries is None:
            entries = built.entry_count
        assert built.entry_count == entries, (
            f"shards={shards} produced {built.entry_count} entries, "
            f"expected {entries}"
        )
        built.close()
    return [
        ShardingRow(
            phase="build",
            shards=shards,
            scale=scale,
            k=k,
            operation="index-build",
            seconds=seconds,
            baseline_seconds=timings[1],
            size=entries,
        )
        for shards, seconds in timings.items()
    ]


def query_rows(
    scale: str,
    shard_counts: tuple[int, ...],
    k: int = QUERY_K,
    repeats: int = QUERY_REPEATS,
) -> list[ShardingRow]:
    """Time scatter-gather execution per query; answers must agree."""
    graph = sharding_graph(scale)
    queries = sharding_queries()
    databases = {
        shards: GraphDatabase(graph, k=k, config=ServiceConfig(shards=shards))
        for shards in shard_counts
    }
    baseline = databases.get(1) or GraphDatabase(graph, k=k)
    rows: list[ShardingRow] = []
    baselines: dict[str, tuple[float, frozenset]] = {}
    for query in queries:
        seconds, results = _timed(
            lambda: [
                baseline.query(query, use_cache=False) for _ in range(repeats)
            ]
        )
        baselines[query] = (seconds, results[0].pairs)
    for shards, database in sorted(databases.items()):
        for query in queries:
            baseline_seconds, expected = baselines[query]
            if shards == 1:
                seconds = baseline_seconds
                answer = expected
            else:
                seconds, results = _timed(
                    lambda: [
                        database.query(query, use_cache=False)
                        for _ in range(repeats)
                    ]
                )
                answer = results[0].pairs
                assert answer == expected, (
                    f"shards={shards} disagrees with shards=1 on {query!r}"
                )
            rows.append(
                ShardingRow(
                    phase="query",
                    shards=shards,
                    scale=scale,
                    k=k,
                    operation=query,
                    seconds=seconds,
                    baseline_seconds=baseline_seconds,
                    size=len(answer),
                )
            )
    return rows


def compare_sharding(
    scale: str, k: int, shard_counts: tuple[int, ...]
) -> list[ShardingRow]:
    return build_rows(scale, k, shard_counts) + query_rows(scale, shard_counts)


def export_rows(
    rows: list[ShardingRow], path: str | Path = "BENCH_sharding.json"
) -> Path:
    write_json(rows, path, experiment="sharding-ablation")
    return Path(path)


# -- pytest entry points -------------------------------------------------------


def test_smoke_rows_agree_and_export(tmp_path):
    """Smoke sweep: entry/answer parity asserted, export round-trips."""
    scale, k, shard_counts = SMOKE_CONFIG
    rows = compare_sharding(scale, k, shard_counts)
    path = export_rows(rows, tmp_path / "BENCH_sharding.json")
    from repro_bench.export import read_json

    payload = read_json(path)
    assert payload["experiment"] == "sharding-ablation"
    assert len(payload["rows"]) == len(rows)
    assert all("speedup_vs_single" in row for row in payload["rows"])


def main() -> None:
    smoke = "--smoke" in sys.argv[1:]
    scale, k, shard_counts = SMOKE_CONFIG if smoke else FULL_CONFIG
    rows = compare_sharding(scale, k, shard_counts)
    print(
        f"{'phase':<8}{'shards':>7}{'k':>3}  {'operation':<26}"
        f"{'seconds':>10}{'vs 1':>8}{'size':>9}"
    )
    for row in rows:
        print(
            f"{row.phase:<8}{row.shards:>7}{row.k:>3}  {row.operation:<26}"
            f"{row.seconds:>10.3f}{row.speedup_vs_single:>7.1f}x{row.size:>9}"
        )
    path = export_rows(rows)
    print(f"\nwrote {path.resolve()}")


if __name__ == "__main__":
    main()
