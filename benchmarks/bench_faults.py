"""Fault-harness overhead: armed-but-idle vs disarmed hot path.

The fault-injection harness (:mod:`repro.faults`) threads ``fire()``
calls through the disk pager, every shard scan, the per-shard build
and the gather merge.  Disarmed, each call is one
global load and an ``is None`` test; armed with rules that never fire
(``rate=0.0`` at the real injection points), each call adds a
dictionary probe and an RNG draw under the plan lock — the worst case
a production deployment that keeps chaos config resident would pay.

This benchmark measures both arms over the sharded query workload and
gates the idle overhead at **<= 5%** (``GATE_OVERHEAD``): resilience
instrumentation must be free when nothing is failing.  The exported
``speedup_overhead`` column (disarmed / armed) sits at ~1.0 by design
— a parity report, deliberately below the regression gate's claim
threshold, so cross-runner timer noise never fails CI on it.

Run directly to print a table and export ``BENCH_faults.json``::

    PYTHONPATH=src python benchmarks/bench_faults.py          # full
    PYTHONPATH=src python benchmarks/bench_faults.py --smoke  # small

or under pytest (smoke rows plus the overhead gate)::

    PYTHONPATH=src python -m pytest benchmarks/bench_faults.py -q
"""

from __future__ import annotations

import gc
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.api import GraphDatabase, ServiceConfig
from repro.bench.export import write_json
from repro.bench.workloads import fused_gather_queries, sharding_graph
from repro.faults import FaultPlan, FaultRule, armed, disarmed

SHARDS = 4
K = 2
SCALE = "bench"
FULL_BATCHES = 30
SMOKE_BATCHES = 8
#: Armed-but-idle must stay within 5% of disarmed on the aggregate.
GATE_OVERHEAD = 1.05


def idle_plan() -> FaultPlan:
    """Rules at the hottest real injection points that can never fire.

    ``rate=0.0`` keeps the full armed bookkeeping on the path — the
    point-table probe, the lock, the RNG draw — without ever injecting
    a fault, which is exactly the resident-chaos-config worst case.
    """
    return FaultPlan(
        [
            FaultRule("shard.scan", "transient", rate=0.0),
            FaultRule("gather.merge", "transient", rate=0.0),
            FaultRule("storage.read_page", "corrupt", rate=0.0),
        ],
        seed=7,
    )


@dataclass(frozen=True, slots=True)
class FaultRow:
    """One armed-idle vs disarmed timing."""

    phase: str  # "overhead" | "overhead-total"
    scale: str
    k: int
    shards: int
    operation: str  # query text, or "aggregate"
    seconds: float  # armed-but-idle
    baseline_seconds: float  # disarmed
    size: int  # answer pairs

    @property
    def speedup_overhead(self) -> float:
        """Disarmed over armed: ~1.0 means the harness is free."""
        if self.seconds == 0:
            return float("inf")
        return self.baseline_seconds / self.seconds


def _paired_best(
    callable_, plan: FaultPlan, batches: int, per_batch: int = 3
) -> tuple[float, float]:
    """Minimum batch time per arm, with the arms interleaved.

    Alternating disarmed/armed batches inside one loop makes thermal
    and frequency drift land on both arms equally — measuring the arms
    in separate blocks was observed to swing the ratio by +-15% on a
    busy runner, an order of magnitude more than the overhead being
    measured.  Returns ``(armed_best, disarmed_best)``.
    """
    gc.collect()
    armed_times = []
    disarmed_times = []
    for _ in range(batches):
        with disarmed():
            started = time.perf_counter()
            for _ in range(per_batch):
                callable_()
            disarmed_times.append(time.perf_counter() - started)
        with armed(plan):
            started = time.perf_counter()
            for _ in range(per_batch):
                callable_()
            armed_times.append(time.perf_counter() - started)
    return min(armed_times), min(disarmed_times)


def overhead_rows(batches: int, scale: str = SCALE) -> list[FaultRow]:
    """Per-query armed-idle vs disarmed timings plus the gated aggregate."""
    graph = sharding_graph(scale)
    database = GraphDatabase(graph, k=K, config=ServiceConfig(shards=SHARDS))
    plan = idle_plan()
    rows: list[FaultRow] = []
    armed_total = 0.0
    disarmed_total = 0.0
    for query in fused_gather_queries():
        with disarmed():
            expected = database.query(query, use_cache=False).pairs
        with armed(plan):
            under_plan = database.query(query, use_cache=False).pairs
        assert under_plan == expected, (
            f"an idle fault plan changed the answer of {query!r}"
        )

        def run() -> None:
            database.query(query, use_cache=False)

        armed_seconds, disarmed_seconds = _paired_best(run, plan, batches)
        armed_total += armed_seconds
        disarmed_total += disarmed_seconds
        rows.append(
            FaultRow(
                phase="overhead",
                scale=scale,
                k=K,
                shards=SHARDS,
                operation=query,
                seconds=armed_seconds,
                baseline_seconds=disarmed_seconds,
                size=len(expected),
            )
        )
    rows.append(
        FaultRow(
            phase="overhead-total",
            scale=scale,
            k=K,
            shards=SHARDS,
            operation="aggregate",
            seconds=armed_total,
            baseline_seconds=disarmed_total,
            size=sum(row.size for row in rows),
        )
    )
    assert plan.fired == 0, "an idle plan must never actually fire"
    database.close()
    return rows


def export_rows(
    rows: list[FaultRow], path: str | Path = "BENCH_faults.json"
) -> Path:
    write_json(rows, path, experiment="fault-harness-overhead")
    return Path(path)


# -- pytest entry points -------------------------------------------------------


def test_smoke_rows_agree_and_export(tmp_path):
    """Smoke sweep: answers pinned inline, export round-trips."""
    rows = overhead_rows(SMOKE_BATCHES)
    path = export_rows(rows, tmp_path / "BENCH_faults.json")
    from repro.bench.export import read_json

    payload = read_json(path)
    assert payload["experiment"] == "fault-harness-overhead"
    assert len(payload["rows"]) == len(rows)
    assert all("speedup_overhead" in row for row in payload["rows"])


def test_armed_idle_overhead_within_five_percent(tmp_path):
    """Acceptance: armed-but-idle <= 1.05x disarmed in aggregate
    (the ISSUE-7 gate: resilience must be free when nothing fails)."""
    rows = overhead_rows(SMOKE_BATCHES)
    export_rows(rows, tmp_path / "BENCH_faults.json")
    gate = next(row for row in rows if row.phase == "overhead-total")
    overhead = gate.seconds / gate.baseline_seconds
    assert overhead <= GATE_OVERHEAD, (
        f"armed-but-idle fault harness costs {overhead:.3f}x disarmed "
        f"(need <= {GATE_OVERHEAD}x)"
    )


def main() -> None:
    smoke = "--smoke" in sys.argv[1:]
    rows = overhead_rows(SMOKE_BATCHES if smoke else FULL_BATCHES)
    print(
        f"{'phase':<16}{'shards':>7}{'k':>3}  {'operation':<28}"
        f"{'armed(s)':>10}{'bare(s)':>10}{'x':>7}{'size':>8}"
    )
    for row in rows:
        print(
            f"{row.phase:<16}{row.shards:>7}{row.k:>3}  {row.operation:<28}"
            f"{row.seconds:>10.4f}{row.baseline_seconds:>10.4f}"
            f"{row.speedup_overhead:>6.2f}x{row.size:>8}"
        )
    path = export_rows(rows)
    print(f"\nwrote {path.resolve()}")


if __name__ == "__main__":
    main()
