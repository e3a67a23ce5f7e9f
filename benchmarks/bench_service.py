"""Service-layer ablation: ``query_batch`` vs a sequential ``query()`` loop.

The service layer answers a batch of queries with two mechanisms a
plain loop lacks: key-level dedup (identical queries in the batch
execute once) and a batch-wide scan memo (a plan subtree appearing
under any number of queries is computed once).  A third, fan-out over
a thread pool, was deleted after this benchmark read 8.7x at 2 and 4
threads against 9.7x at 1.  This benchmark measures the two on the
shared-subplan workload from
:func:`repro_bench.workloads.service_batch_queries` — a skewed draw of
2-/3-step label paths over the Advogato-like graph, the shape of heavy
repeated traffic.

Both sides run with ``use_cache=False``: the whole-answer LRU would
otherwise absorb exact repeats and measure nothing but itself.  What is
compared is pure execution of the same query list.

Run directly to print a table and export ``BENCH_service.json``::

    PYTHONPATH=src python benchmarks/bench_service.py          # full
    PYTHONPATH=src python benchmarks/bench_service.py --smoke  # small

or under pytest (smoke rows plus the >= 1.5x acceptance gate)::

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py -q
"""

from __future__ import annotations

import gc
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro_bench.export import write_json
from repro_bench.workloads import advogato_workload, service_batch_queries

#: (scale, batch size) of the full and smoke sweeps.  The acceptance
#: gate runs on the smoke configuration so CI stays fast.
FULL_CONFIG = ("bench", 200)
SMOKE_CONFIG = ("small", 120)


@dataclass(frozen=True, slots=True)
class ServiceRow:
    """One batched-vs-loop comparison on the shared-subplan workload."""

    mode: str  # "sequential-loop" or "batch"
    scale: str
    queries: int
    distinct: int
    seconds: float
    loop_seconds: float

    @property
    def speedup_vs_loop(self) -> float:
        if self.seconds == 0:
            return float("inf")
        return self.loop_seconds / self.seconds


def _timed(callable_):
    gc.collect()
    started = time.perf_counter()
    result = callable_()
    return time.perf_counter() - started, result


def compare_service(
    scale: str = SMOKE_CONFIG[0],
    count: int = SMOKE_CONFIG[1],
) -> list[ServiceRow]:
    """Time the loop and the batch; check answers."""
    prepared = advogato_workload(scale=scale, ks=(2,))
    database = prepared.database(2)
    queries = service_batch_queries(count)
    distinct = len(set(queries))

    loop_seconds, loop_results = _timed(
        lambda: [
            database.query(query, use_cache=False) for query in queries
        ]
    )
    batch_seconds, batch_results = _timed(
        lambda: database.query_batch(queries, use_cache=False)
    )
    assert [result.pairs for result in batch_results] == [
        result.pairs for result in loop_results
    ]
    return [
        ServiceRow(
            mode=mode,
            scale=scale,
            queries=count,
            distinct=distinct,
            seconds=seconds,
            loop_seconds=loop_seconds,
        )
        for mode, seconds in (
            ("sequential-loop", loop_seconds),
            ("batch", batch_seconds),
        )
    ]


def export_rows(
    rows: list[ServiceRow], path: str | Path = "BENCH_service.json"
) -> Path:
    """Write the comparison as a standard experiment export."""
    write_json(rows, path, experiment="service-batch-ablation")
    return Path(path)


# -- pytest entry points -------------------------------------------------------


def test_smoke_rows_agree_and_export(tmp_path):
    """Smoke mode: batch answers equal the loop's, export round-trips."""
    rows = compare_service()
    path = export_rows(rows, tmp_path / "BENCH_service.json")
    from repro_bench.export import read_json

    payload = read_json(path)
    assert payload["experiment"] == "service-batch-ablation"
    assert [row["mode"] for row in payload["rows"]] == ["sequential-loop", "batch"]
    assert all("speedup_vs_loop" in row for row in payload["rows"])


def test_batch_at_least_1_5x(tmp_path):
    """Acceptance: query_batch >= 1.5x a sequential query() loop on the
    shared-subplan workload (the ISSUE-3 service-layer gate)."""
    rows = compare_service()
    export_rows(rows, tmp_path / "BENCH_service.json")
    gate = next(row for row in rows if row.mode == "batch")
    assert gate.speedup_vs_loop >= 1.5, (
        f"query_batch only {gate.speedup_vs_loop:.2f}x over the "
        f"sequential loop"
    )


def main() -> None:
    smoke = "--smoke" in sys.argv[1:]
    scale, count = SMOKE_CONFIG if smoke else FULL_CONFIG
    rows = compare_service(scale=scale, count=count)
    print(
        f"{'mode':<18}{'queries':>9}{'distinct':>10}"
        f"{'seconds':>10}{'vs loop':>9}"
    )
    for row in rows:
        print(
            f"{row.mode:<18}{row.queries:>9}"
            f"{row.distinct:>10}{row.seconds:>10.3f}"
            f"{row.speedup_vs_loop:>8.1f}x"
        )
    path = export_rows(rows)
    print(f"\nwrote {path.resolve()}")


if __name__ == "__main__":
    main()
