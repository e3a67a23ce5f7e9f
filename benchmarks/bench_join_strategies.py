"""Join ablation: merge-join-when-sorted vs forced hash joins.

The paper's planner prefers merge joins "to make the best use of the
physical sort order of the index".  This bench isolates that design
choice: the same composition executed by (a) a merge join over the
sorted index streams and (b) a hash join, across input sizes — plus
the frozen v1.0 tuple-set merge join (``repro_bench.legacy``) in the
same groups, so the columnar speedup is visible in one report.
"""

from __future__ import annotations

import pytest

from repro_bench.legacy import tuple_merge_join
from repro_bench.workloads import synthetic_join_inputs as _relations
from repro.engine.operators import hash_join, merge_join

SIZES = (1_000, 10_000, 50_000)


@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"n{s}")
def test_merge_join(benchmark, size):
    left, right = _relations(size)
    benchmark.group = f"join-{size}"
    result = benchmark.pedantic(
        lambda: merge_join(left, right), rounds=3, iterations=1
    )
    benchmark.extra_info["output"] = len(result)


@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"n{s}")
def test_hash_join(benchmark, size):
    left, right = _relations(size)
    left_by_source = sorted(left)
    benchmark.group = f"join-{size}"
    result = benchmark.pedantic(
        lambda: hash_join(left_by_source, right), rounds=3, iterations=1
    )
    benchmark.extra_info["output"] = len(result)


@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"n{s}")
def test_seed_tuple_merge_join(benchmark, size):
    """The pre-columnar kernel, for the speedup column in reports."""
    left, right = _relations(size)
    benchmark.group = f"join-{size}"
    result = benchmark.pedantic(
        lambda: tuple_merge_join(left, right), rounds=3, iterations=1
    )
    benchmark.extra_info["output"] = len(result)


def test_joins_agree():
    left, right = _relations(5_000)
    assert set(merge_join(left, right)) == set(hash_join(sorted(left), right))
    assert set(tuple_merge_join(left, right)) == merge_join(left, right).to_set()


def test_plan_level_ablation(prepared_bench):
    """Workload answers are identical whether merge joins are used or not."""
    database = prepared_bench.database(2)
    from repro_bench.queries import workload

    for query in workload(prepared_bench.labels):
        semi = database.query(query.text, method="semi-naive")
        naive = database.query(query.text, method="naive")
        assert semi.pairs == naive.pairs
