"""Per-shard statistics ablation: skew-aware scatter vs plain scatter.

The scatter-gather executor consults per-shard statistics
(:meth:`repro.sharding.ShardedGraph.shard_statistics`) to skip shard
slices whose leftmost leaf is provably empty and to re-plan skewed
disjuncts per shard.  This benchmark measures what that buys on a graph
with Zipfian label/start-vertex skew aligned with shard ownership
(:func:`repro.bench.workloads.skewed_shard_graph`): each rare label
lives in one shard, so rare-led queries — and especially the
high-fan-in unions normalization produces — prune most of their
per-shard work.

Two phases, both answer-checked against the unpruned scatter *and* the
``shards=1`` oracle:

* **prune** — pruning on vs off, per query and in aggregate.  The
  acceptance gate requires the aggregate **>= 1.5x** on the skewed
  4-shard graph.
* **replan** — per-shard re-planning on vs off (informational, no
  gate: re-planning pays off only when per-shard join orders actually
  differ, which is workload-dependent).

Timings wrap :func:`repro.engine.executor.execute_prepared` around a
pre-planned query, so the ratio isolates scatter execution — planning
and parsing are identical on both sides and excluded.

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
from repro.bench.export import write_json
from repro.bench.workloads import skewed_shard_graph, skewed_shard_queries
from repro.engine.executor import execute_prepared, prepare_ast
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
    """One skew-aware-vs-plain scatter timing for one query."""

    phase: str  # "prune" | "replan" | "total"
    shards: int
    scale: str
    k: int
    operation: str  # the query text, or "aggregate"
    seconds: float  # skew-aware scatter
    baseline_seconds: float  # plain scatter (feature off)
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
    # Re-planning off in both arms: this phase isolates pruning.
    index.replan_divergence = None
    rows: list[ShardStatsRow] = []
    pruned_total = 0.0
    unpruned_total = 0.0
    for query in skewed_shard_queries():
        prepared = prepare_ast(
            parse(query), index, graph, statistics, Strategy.MIN_SUPPORT
        )

        def run():
            return execute_prepared(prepared, index, graph, statistics)

        index.scatter_pruning = True
        report = run()
        index.scatter_pruning = False
        unpruned = run()
        expected = oracle.query(query, use_cache=False).report.relation
        assert report.relation.to_frozenset() == expected.to_frozenset(), (
            f"pruned scatter disagrees with the shards=1 oracle on {query!r}"
        )
        assert unpruned.relation.to_frozenset() == expected.to_frozenset(), (
            f"plain scatter disagrees with the shards=1 oracle on {query!r}"
        )
        index.scatter_pruning = True
        pruned_seconds = _timed(run, repeats)
        index.scatter_pruning = False
        unpruned_seconds = _timed(run, repeats)
        index.scatter_pruning = True
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
                shards_pruned=report.shards_pruned,
                disjuncts_pruned=report.disjuncts_pruned,
                size=len(report.relation),
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


def replan_rows(repeats: int) -> list[ShardStatsRow]:
    """Per-shard re-planning on vs off (informational, no gate)."""
    graph = skewed_shard_graph(SCALE, shards=SHARDS)
    database = GraphDatabase(graph, k=K, config=ServiceConfig(shards=SHARDS))
    oracle = GraphDatabase(graph, k=K, config=ServiceConfig(shards=1))
    index, statistics = database.index, database.histogram
    rows: list[ShardStatsRow] = []
    for query in skewed_shard_queries():
        prepared = prepare_ast(
            parse(query), index, graph, statistics, Strategy.MIN_SUPPORT
        )

        def run():
            return execute_prepared(prepared, index, graph, statistics)

        index.replan_divergence = 1.5  # eager: re-plan on mild skew
        report = run()
        expected = oracle.query(query, use_cache=False).report.relation
        assert report.relation.to_frozenset() == expected.to_frozenset(), (
            f"re-planned scatter disagrees with the oracle on {query!r}"
        )
        replan_seconds = _timed(run, repeats)
        index.replan_divergence = None
        plain_seconds = _timed(run, repeats)
        rows.append(
            ShardStatsRow(
                phase="replan",
                shards=SHARDS,
                scale=SCALE,
                k=K,
                operation=query,
                seconds=replan_seconds,
                baseline_seconds=plain_seconds,
                shards_pruned=report.shards_pruned,
                disjuncts_pruned=report.disjuncts_pruned,
                size=len(report.relation),
            )
        )
    database.close()
    oracle.close()
    return rows


def compare_shard_stats(repeats: int) -> list[ShardStatsRow]:
    return prune_rows(repeats) + replan_rows(repeats)


def export_rows(
    rows: list[ShardStatsRow], path: str | Path = "BENCH_shard_stats.json"
) -> Path:
    write_json(rows, path, experiment="shard-statistics-ablation")
    return Path(path)


# -- pytest entry points -------------------------------------------------------


def test_smoke_rows_agree_and_export(tmp_path):
    """Smoke sweep: answers pinned to the oracle, export round-trips."""
    rows = compare_shard_stats(SMOKE_REPEATS)
    path = export_rows(rows, tmp_path / "BENCH_shard_stats.json")
    from repro.bench.export import read_json

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
    rows = compare_shard_stats(SMOKE_REPEATS if smoke else FULL_REPEATS)
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
