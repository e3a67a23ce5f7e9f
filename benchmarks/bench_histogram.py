"""Histogram ablation: bucket count vs estimation error vs plan quality.

Section 5 credits the "lightweight histogram" for minSupport/minJoin
beating semi-naive.  This bench quantifies the trade-off the paper
leaves implicit: more buckets cost more space but estimate better, and
estimation quality feeds straight into plan choice.
"""

from __future__ import annotations

import pytest

from repro_bench.harness import run_histogram_ablation
from repro.indexes.histogram import EquiDepthHistogram

BUCKETS = (4, 16, 64, 256)


@pytest.mark.parametrize("buckets", BUCKETS, ids=lambda b: f"b{b}")
def test_histogram_build(benchmark, prepared_bench, buckets):
    database = prepared_bench.database(2)
    counts = database.index.counts_by_path()
    benchmark.group = "histogram-build"
    histogram = benchmark.pedantic(
        lambda: EquiDepthHistogram.from_counts(counts, k=2, buckets=buckets),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["buckets_used"] = histogram.bucket_count
    benchmark.extra_info["mean_abs_error"] = round(
        histogram.mean_absolute_error(counts), 2
    )


def test_error_decreases_with_buckets(prepared_bench):
    rows = run_histogram_ablation(
        prepared_bench, k=2, bucket_counts=BUCKETS, repeats=1
    )
    errors = [row.mean_absolute_error for row in rows]
    assert errors[-1] <= errors[0] + 1e-9


@pytest.mark.parametrize("buckets", (4, 256), ids=lambda b: f"b{b}")
def test_minsupport_under_histogram(benchmark, prepared_bench, buckets):
    """End-to-end workload time with a coarse vs fine histogram."""
    database = prepared_bench.database(2)
    counts = database.index.counts_by_path()
    database._histogram = EquiDepthHistogram.from_counts(
        counts, k=2, buckets=buckets
    )
    database.cache_clear()  # plan under this histogram, not the last one
    benchmark.group = "histogram-plan-quality"
    from repro_bench.queries import workload

    queries = workload(prepared_bench.labels)

    def run_workload():
        return [
            database.query(query.text, method="minsupport", use_cache=False)
            for query in queries
        ]

    benchmark.pedantic(run_workload, rounds=2, iterations=1, warmup_rounds=1)
    database.build_index()  # restore
