"""Shard-pruning ablation: pruned scatter vs plain scatter.

The scatter-gather executor consults per-shard exact counts
(:meth:`repro.sharding.ShardedGraph.shard_statistics`) to skip shard
slices whose leftmost leaf is provably empty.  This benchmark measures
what that buys on a graph with Zipfian label/start-vertex skew aligned
with shard ownership (:func:`repro_bench.workloads.skewed_shard_graph`):
each rare label lives in one shard, so rare-led queries — and
especially the high-fan-in unions normalization produces — prune most
of their per-shard work.

Pruning on vs off, per query and in aggregate, answer-checked against
the unpruned scatter *and* the ``shards=1`` oracle.  The acceptance
gate requires the aggregate **>= 1.5x** on the skewed 4-shard graph.

Both arms time :func:`repro.engine.operators.execute_scattered` over
the same pre-planned query — with a :class:`ScatterPolicy`, and with
``policy=None`` (every shard runs) — so the ratio isolates scatter
execution: planning and parsing are identical on both sides and
excluded.

Run directly to print a table and export ``BENCH_shard_stats.json``::

    PYTHONPATH=src python benchmarks/bench_shard_stats.py          # full
    PYTHONPATH=src python benchmarks/bench_shard_stats.py --smoke  # small

or under pytest (smoke rows plus the >= 1.5x acceptance gate)::

    PYTHONPATH=src python -m pytest benchmarks/bench_shard_stats.py -q
"""

from __future__ import annotations

import gc
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.api import GraphDatabase, ServiceConfig
from repro_bench.export import write_json
from repro_bench.workloads import skewed_shard_graph, skewed_shard_queries
from repro.engine.executor import prepare_ast
from repro.engine.operators import ScatterPolicy, execute_scattered
from repro.engine.planner import Strategy
from repro.rpq.parser import parse

SHARDS = 4
K = 2
SCALE = "bench"
FULL_REPEATS = 30
SMOKE_REPEATS = 10
GATE_SPEEDUP = 1.5


@dataclass(frozen=True, slots=True)
class ShardStatsRow:
    """One pruned-vs-plain scatter timing for one query."""

    phase: str  # "prune" | "total"
    shards: int
    scale: str
    k: int
    operation: str  # the query text, or "aggregate"
    seconds: float  # pruned scatter
    baseline_seconds: float  # plain scatter (policy=None)
    shards_pruned: int  # whole shard executions skipped per run
    disjuncts_pruned: int  # disjunct slices skipped per run
    size: int  # answer pairs

    @property
    def speedup_pruned(self) -> float:
        if self.seconds == 0:
            return float("inf")
        return self.baseline_seconds / self.seconds


def _timed(callable_, repeats: int) -> float:
    gc.collect()
    started = time.perf_counter()
    for _ in range(repeats):
        callable_()
    return time.perf_counter() - started


def prune_rows(repeats: int) -> list[ShardStatsRow]:
    """Pruning on vs off per query, plus the gated aggregate row."""
    graph = skewed_shard_graph(SCALE, shards=SHARDS)
    database = GraphDatabase(graph, k=K, config=ServiceConfig(shards=SHARDS))
    oracle = GraphDatabase(graph, k=K, config=ServiceConfig(shards=1))
    index, statistics = database.index, database.histogram
    rows: list[ShardStatsRow] = []
    pruned_total = 0.0
    unpruned_total = 0.0
    for query in skewed_shard_queries():
        plan = prepare_ast(
            parse(query), index, graph, statistics, Strategy.MIN_SUPPORT
        ).costed.plan

        def pruned_run():
            return execute_scattered(plan, index, graph, policy=ScatterPolicy(index))

        def unpruned_run():
            return execute_scattered(plan, index, graph, policy=None)

        policy = ScatterPolicy(index)
        pruned = execute_scattered(plan, index, graph, policy=policy)
        unpruned = unpruned_run()
        expected = oracle.query(query, use_cache=False).report.relation
        assert pruned.to_frozenset() == expected.to_frozenset(), (
            f"pruned scatter disagrees with the shards=1 oracle on {query!r}"
        )
        assert unpruned.to_frozenset() == expected.to_frozenset(), (
            f"plain scatter disagrees with the shards=1 oracle on {query!r}"
        )
        pruned_seconds = _timed(pruned_run, repeats)
        unpruned_seconds = _timed(unpruned_run, repeats)
        pruned_total += pruned_seconds
        unpruned_total += unpruned_seconds
        rows.append(
            ShardStatsRow(
                phase="prune",
                shards=SHARDS,
                scale=SCALE,
                k=K,
                operation=query,
                seconds=pruned_seconds,
                baseline_seconds=unpruned_seconds,
                shards_pruned=policy.counters.pruned,
                disjuncts_pruned=policy.counters.disjuncts_pruned,
                size=len(pruned),
            )
        )
    rows.append(
        ShardStatsRow(
            phase="total",
            shards=SHARDS,
            scale=SCALE,
            k=K,
            operation="aggregate",
            seconds=pruned_total,
            baseline_seconds=unpruned_total,
            shards_pruned=sum(row.shards_pruned for row in rows),
            disjuncts_pruned=sum(row.disjuncts_pruned for row in rows),
            size=sum(row.size for row in rows),
        )
    )
    database.close()
    oracle.close()
    return rows


def export_rows(
    rows: list[ShardStatsRow], path: str | Path = "BENCH_shard_stats.json"
) -> Path:
    write_json(rows, path, experiment="shard-statistics-ablation")
    return Path(path)


# -- pytest entry points -------------------------------------------------------


def test_smoke_rows_agree_and_export(tmp_path):
    """Smoke sweep: answers pinned to the oracle, export round-trips."""
    rows = prune_rows(SMOKE_REPEATS)
    path = export_rows(rows, tmp_path / "BENCH_shard_stats.json")
    from repro_bench.export import read_json

    payload = read_json(path)
    assert payload["experiment"] == "shard-statistics-ablation"
    assert len(payload["rows"]) == len(rows)
    assert all("speedup_pruned" in row for row in payload["rows"])


def test_pruned_scatter_at_least_1_5x(tmp_path):
    """Acceptance: pruning >= 1.5x over unpruned scatter in aggregate
    on the skewed 4-shard graph (the ISSUE-5 gate)."""
    rows = prune_rows(SMOKE_REPEATS)
    export_rows(rows, tmp_path / "BENCH_shard_stats.json")
    gate = next(row for row in rows if row.phase == "total")
    assert gate.disjuncts_pruned > 0, "the skewed workload must prune"
    assert gate.speedup_pruned >= GATE_SPEEDUP, (
        f"pruned scatter only {gate.speedup_pruned:.2f}x over unpruned "
        f"scatter (need >= {GATE_SPEEDUP}x)"
    )


def main() -> None:
    smoke = "--smoke" in sys.argv[1:]
    rows = prune_rows(SMOKE_REPEATS if smoke else FULL_REPEATS)
    print(
        f"{'phase':<8}{'shards':>7}{'k':>3}  {'operation':<30}"
        f"{'on(s)':>9}{'off(s)':>9}{'x':>7}{'pruned':>8}{'size':>7}"
    )
    for row in rows:
        print(
            f"{row.phase:<8}{row.shards:>7}{row.k:>3}  {row.operation:<30}"
            f"{row.seconds:>9.4f}{row.baseline_seconds:>9.4f}"
            f"{row.speedup_pruned:>6.2f}x{row.disjuncts_pruned:>8}{row.size:>7}"
        )
    path = export_rows(rows)
    print(f"\nwrote {path.resolve()}")


if __name__ == "__main__":
    main()
