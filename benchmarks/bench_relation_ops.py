"""Relation-kernel ablation: seed tuple-set operators vs columnar kernels.

Measures the exact kernels the executor runs — merge join, hash join,
union, dedup-sort — in both representations:

* **seed** — the v1.0 tuple-set implementations, frozen in
  :mod:`repro_bench.legacy`;
* **columnar** — the array-backed kernels of :mod:`repro.relation`
  (vectorized when numpy is importable, packed-int scalar otherwise).

Run directly to print a table and export ``BENCH_relation.json``
through the standard machinery::

    PYTHONPATH=src python benchmarks/bench_relation_ops.py

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_relation_ops.py -q
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro_bench.export import write_json
from repro_bench.legacy import (
    tuple_dedup_sort,
    tuple_hash_join,
    tuple_merge_join,
    tuple_union,
)
from repro_bench.workloads import synthetic_join_inputs
from repro.relation import Order, Relation
from repro import relation as rel

SIZES = (1_000, 10_000, 50_000)
ROUNDS = 3


@dataclass(frozen=True, slots=True)
class RelationOpRow:
    """One kernel comparison at one input size."""

    operation: str
    size: int
    seed_seconds: float
    columnar_seconds: float
    output_size: int

    @property
    def speedup(self) -> float:
        if self.columnar_seconds == 0:
            return float("inf")
        return self.seed_seconds / self.columnar_seconds


def _inputs(size: int, seed: int = 7):
    """The shared synthetic workload, same as bench_join_strategies."""
    return synthetic_join_inputs(size, seed)


def _relations(size: int, seed: int = 7):
    left, right = _inputs(size, seed)
    return (
        Relation.from_pairs(left, Order.BY_TGT),
        Relation.from_pairs(right, Order.BY_SRC),
    )


def _best_of(callable_, rounds: int = ROUNDS) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - started)
    return best, result


def compare_kernels(sizes: tuple[int, ...] = SIZES) -> list[RelationOpRow]:
    """Time every kernel pair; returns one row per (operation, size)."""
    rows: list[RelationOpRow] = []
    for size in sizes:
        left, right = _inputs(size)
        left_rel, right_rel = _relations(size)
        left_src_sorted = sorted(left)

        seed_s, seed_out = _best_of(lambda: tuple_merge_join(left, right))
        col_s, col_out = _best_of(lambda: rel.merge_join(left_rel, right_rel))
        assert set(seed_out) == col_out.to_set()
        rows.append(RelationOpRow("merge_join", size, seed_s, col_s, len(col_out)))

        seed_s, seed_out = _best_of(
            lambda: tuple_hash_join(left_src_sorted, right)
        )
        col_s, col_out = _best_of(lambda: rel.hash_join(left_rel, right_rel))
        assert set(seed_out) == col_out.to_set()
        rows.append(RelationOpRow("hash_join", size, seed_s, col_s, len(col_out)))

        seed_s, seed_out = _best_of(lambda: tuple_union([left, right]))
        col_s, col_out = _best_of(lambda: rel.union([left_rel, right_rel]))
        assert set(seed_out) == col_out.to_set()
        rows.append(RelationOpRow("union", size, seed_s, col_s, len(col_out)))

        doubled = left + left
        doubled_rel = Relation.from_pairs(doubled)
        seed_s, seed_out = _best_of(lambda: tuple_dedup_sort(doubled))
        col_s, col_out = _best_of(
            lambda: rel.dedup_sort(doubled_rel, Order.BY_SRC)
        )
        assert seed_out == col_out.pairs()
        rows.append(RelationOpRow("dedup_sort", size, seed_s, col_s, len(col_out)))
    return rows


def export_rows(
    rows: list[RelationOpRow], path: str | Path = "BENCH_relation.json"
) -> Path:
    """Write the comparison as a standard experiment export."""
    write_json(rows, path, experiment="relation-kernel-ablation")
    return Path(path)


# -- pytest-benchmark entry points ---------------------------------------------


@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"n{s}")
def test_seed_merge_join(benchmark, size):
    left, right = _inputs(size)
    benchmark.group = f"merge-{size}"
    result = benchmark.pedantic(
        lambda: tuple_merge_join(left, right), rounds=ROUNDS, iterations=1
    )
    benchmark.extra_info["output"] = len(result)


@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"n{s}")
def test_columnar_merge_join(benchmark, size):
    left_rel, right_rel = _relations(size)
    benchmark.group = f"merge-{size}"
    result = benchmark.pedantic(
        lambda: rel.merge_join(left_rel, right_rel), rounds=ROUNDS, iterations=1
    )
    benchmark.extra_info["output"] = len(result)


@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"n{s}")
def test_seed_hash_join(benchmark, size):
    left, right = _inputs(size)
    left = sorted(left)
    benchmark.group = f"hash-{size}"
    result = benchmark.pedantic(
        lambda: tuple_hash_join(left, right), rounds=ROUNDS, iterations=1
    )
    benchmark.extra_info["output"] = len(result)


@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"n{s}")
def test_columnar_hash_join(benchmark, size):
    left_rel, right_rel = _relations(size)
    benchmark.group = f"hash-{size}"
    result = benchmark.pedantic(
        lambda: rel.hash_join(left_rel, right_rel), rounds=ROUNDS, iterations=1
    )
    benchmark.extra_info["output"] = len(result)


@pytest.mark.skipif(
    rel._np is None,
    reason="the 2x bar is for the vectorized path; the scalar fallback "
    "only has to be correct",
)
def test_columnar_merge_join_at_least_2x(tmp_path):
    """The acceptance bar: ≥ 2× on the large synthetic workload.

    Also exercises the export path so BENCH_relation.json always
    reflects the run that proved the bar.
    """
    rows = compare_kernels(sizes=(50_000,))
    export_rows(rows, tmp_path / "BENCH_relation.json")
    merge = next(row for row in rows if row.operation == "merge_join")
    assert merge.speedup >= 2.0, (
        f"columnar merge join only {merge.speedup:.2f}x over the seed kernel"
    )


@pytest.mark.skipif(
    rel._np is None,
    reason="the 1x bar is for the vectorized path; the scalar fallback "
    "only has to be correct",
)
def test_columnar_union_at_least_1x_at_small_size():
    """The ISSUE-2 bar: union must not lose to the seed at 1k rows.

    At this size the vectorized path runs, so the guard is on the
    sorted-unique dedup (``_np_sorted_unique``): reverting it to
    ``np.unique`` brings back the 0.52x regression.  The plain
    set-union cutoff only covers inputs below ``_VECTOR_MIN``.
    """
    rows = compare_kernels(sizes=(1_000,))
    union = next(row for row in rows if row.operation == "union")
    assert union.speedup >= 1.0, (
        f"columnar union only {union.speedup:.2f}x over the seed at 1k rows"
    )


def test_rows_export_roundtrip(tmp_path):
    from repro_bench.export import read_json

    rows = compare_kernels(sizes=(1_000,))
    path = export_rows(rows, tmp_path / "BENCH_relation.json")
    payload = read_json(path)
    assert payload["experiment"] == "relation-kernel-ablation"
    assert payload["row_type"] == "RelationOpRow"
    assert len(payload["rows"]) == len(rows)
    assert all("speedup" in row for row in payload["rows"])


def main() -> None:
    rows = compare_kernels()
    print(f"{'op':<12}{'size':>8}{'seed ms':>12}{'columnar ms':>14}{'speedup':>10}")
    for row in rows:
        print(
            f"{row.operation:<12}{row.size:>8}"
            f"{row.seed_seconds * 1e3:>12.2f}"
            f"{row.columnar_seconds * 1e3:>14.2f}"
            f"{row.speedup:>9.1f}x"
        )
    path = export_rows(rows)
    print(f"\nwrote {path.resolve()}")


if __name__ == "__main__":
    main()
