"""Write-path ablation: delta shard patching vs ball rebuilds.

Measures the central claim of the write path: absorbing a stream of
point mutations through per-shard delta patches (the default) against
the same stream where every changed group takes the ball rebuild of
its touched shards.  The rebuild arm sets the dirty-pair budget
``repro.write.delta.MAX_DIRTY_PAIRS`` to 0, so every group overflows
into the product's own rebuild fallback; the budget is restored
afterwards.  The stream interleaves reads the way an online store
would, and answers between the two engines are pinned equal at the
end — the speedup is never bought with wrongness.

The ratio column ``speedup_vs_rebuild`` is gated twice: the pytest
acceptance below requires >= 3x at 4 shards, and the committed
``BENCH_write.json`` export puts it under ``check_regression.py``'s
tolerance band in CI.

Run directly to print a table and export ``BENCH_write.json``::

    PYTHONPATH=src python benchmarks/bench_write_path.py          # full
    PYTHONPATH=src python benchmarks/bench_write_path.py --smoke  # small

or under pytest (smoke sizes plus the >=3x acceptance)::

    PYTHONPATH=src python -m pytest benchmarks/bench_write_path.py -q
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.api import GraphDatabase, ServiceConfig
from repro.bench.export import write_json
from repro.bench.workloads import SCALES
from repro.write import Mutation, delta

#: (scale, shards, mutations in the stream).
FULL_CONFIG = ("bench", 4, 120)
SMOKE_CONFIG = ("small", 4, 40)

#: One pinned read per this many mutations (same stream both sides).
READ_EVERY = 8
READ_QUERY = "a/b"


@dataclass(frozen=True, slots=True)
class WriteRow:
    """One mutation-stream run against one index-absorption mode."""

    scale: str
    shards: int
    mode: str
    mutations: int
    patched: int
    rebuilt: int
    seconds: float
    baseline_seconds: float
    mutations_per_s: float
    speedup_vs_rebuild: float


def _graph_edges(scale: str, seed: int = 1):
    nodes, edges = SCALES[scale]
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(nodes)]
    return names, [
        (rng.choice(names), rng.choice("abc"), rng.choice(names))
        for _ in range(edges)
    ]


def _stream(names, count: int, seed: int = 2):
    """Point adds and removes; removes target previously added edges,
    so the label alphabet never changes (no forced full rebuilds)."""
    rng = random.Random(seed)
    live: list[tuple[str, str, str]] = []
    out: list[Mutation] = []
    for _ in range(count):
        if live and rng.random() < 0.4:
            out.append(Mutation.remove(*live.pop(rng.randrange(len(live)))))
        else:
            edge = (rng.choice(names), rng.choice("abc"), rng.choice(names))
            out.append(Mutation.add(*edge))
            live.append(edge)
    return out


def _run(scale: str, shards: int, count: int, patching: bool):
    names, edges = _graph_edges(scale)
    database = GraphDatabase.from_edges(edges, config=ServiceConfig(k=2, shards=shards))
    database.query(READ_QUERY)  # build outside the timed window
    stream = _stream(names, count)
    budget = delta.MAX_DIRTY_PAIRS
    if not patching:
        # No dirty pair fits the budget: every group overflows into the
        # ball rebuild.
        delta.MAX_DIRTY_PAIRS = 0
    try:
        started = time.perf_counter()
        for position, mutation in enumerate(stream):
            database.apply(mutation)
            if position % READ_EVERY == 0:
                database.query(READ_QUERY, use_cache=False)
        elapsed = time.perf_counter() - started
    finally:
        delta.MAX_DIRTY_PAIRS = budget
    stats = database.stats().write
    answers = {
        query: database.query(query, use_cache=False).pairs
        for query in ("a/b", "b/c", "(a|b)/c")
    }
    database.close()
    return elapsed, stats.patched, stats.rebuilt, answers


def run_ablation(
    scale: str = SMOKE_CONFIG[0],
    shards: int = SMOKE_CONFIG[1],
    count: int = SMOKE_CONFIG[2],
) -> list[WriteRow]:
    """Both modes over the identical stream; answers pinned equal."""
    patch_s, patched, patch_rb, patch_answers = _run(scale, shards, count, True)
    rebuild_s, rb_patched, rebuilt, rebuild_answers = _run(
        scale, shards, count, False
    )
    assert patch_answers == rebuild_answers, "patching changed an answer"
    return [
        WriteRow(
            scale=scale,
            shards=shards,
            mode="patch",
            mutations=count,
            patched=patched,
            rebuilt=patch_rb,
            seconds=patch_s,
            baseline_seconds=rebuild_s,
            mutations_per_s=count / patch_s if patch_s else 0.0,
            speedup_vs_rebuild=rebuild_s / patch_s if patch_s else 0.0,
        ),
        WriteRow(
            scale=scale,
            shards=shards,
            mode="rebuild",
            mutations=count,
            patched=rb_patched,
            rebuilt=rebuilt,
            seconds=rebuild_s,
            baseline_seconds=rebuild_s,
            mutations_per_s=count / rebuild_s if rebuild_s else 0.0,
            speedup_vs_rebuild=1.0,
        ),
    ]


def export_rows(
    rows: list[WriteRow], path: str | Path = "BENCH_write.json"
) -> Path:
    write_json(rows, path, experiment="write-path-ablation")
    return Path(path)


# -- pytest entry points -------------------------------------------------------


def test_delta_patching_beats_rebuild_3x():
    """Acceptance: the patched write path is >= 3x rebuild at 4 shards."""
    rows = run_ablation()
    patch_row = rows[0]
    assert patch_row.mode == "patch" and patch_row.shards == 4
    # Every changed group was delta-patched; none fell back to rebuild.
    assert patch_row.patched > 0 and patch_row.rebuilt == 0
    assert patch_row.speedup_vs_rebuild >= 3.0, (
        f"delta patching only {patch_row.speedup_vs_rebuild:.2f}x"
    )


def test_export_round_trips(tmp_path):
    rows = run_ablation(count=10)
    path = export_rows(rows, tmp_path / "BENCH_write.json")
    from repro.bench.export import read_json

    payload = read_json(path)
    assert payload["experiment"] == "write-path-ablation"
    assert {"mutations_per_s", "speedup_vs_rebuild"} <= set(payload["rows"][0])


def main() -> None:
    smoke = "--smoke" in sys.argv[1:]
    scale, shards, count = SMOKE_CONFIG if smoke else FULL_CONFIG
    rows = run_ablation(scale, shards, count)
    header = (
        f"{'mode':<8} {'scale':<6} {'shards':>6} {'muts':>5} "
        f"{'seconds':>8} {'mut/s':>8} {'speedup':>8}"
    )
    print(header)
    for row in rows:
        print(
            f"{row.mode:<8} {row.scale:<6} {row.shards:>6} "
            f"{row.mutations:>5} {row.seconds:>8.3f} "
            f"{row.mutations_per_s:>8.1f} {row.speedup_vs_rebuild:>7.2f}x"
        )
    export_rows(rows)
    print("wrote BENCH_write.json")


if __name__ == "__main__":
    main()
