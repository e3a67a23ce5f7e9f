"""Section 6: path-index evaluation vs Datalog evaluation.

The paper reports the path-index solution "on average 1200x faster"
than Datalog-based evaluation on the Advogato queries.  Absolute
factors depend on scale and substrate; the assertion here is the
claim's *shape*: the index wins on every query, by orders of magnitude
in aggregate.
"""

from __future__ import annotations

from statistics import geometric_mean

import pytest

from repro_bench import datalog_eval
from repro_bench.harness import run_comparison
from repro_bench.queries import workload
from repro_bench.reporting import format_comparison
from repro.rpq.parser import parse

QUERIES = workload()


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
def test_path_index_minsupport(benchmark, prepared_small, query):
    """The paper's system side of the comparison."""
    database = prepared_small.database(3)
    benchmark.group = f"datalog-comparison-{query.name}"
    result = benchmark.pedantic(
        lambda: database.query(query.text, method="minsupport", use_cache=False),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    benchmark.extra_info["answer_size"] = len(result.pairs)


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
def test_datalog_baseline(benchmark, prepared_small, query):
    """Approach (2): semi-naive bottom-up Datalog."""
    graph = prepared_small.graph
    node = parse(query.text)
    benchmark.group = f"datalog-comparison-{query.name}"
    answer = benchmark.pedantic(
        lambda: datalog_eval.evaluate(graph, node),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["answer_size"] = len(answer)


def test_speedup_shape(prepared_small):
    """Index beats Datalog on every query; large geomean speedup."""
    rows = run_comparison(prepared_small, "Datalog", k=3)
    assert [row.query for row in rows] == [query.name for query in QUERIES]
    for row in rows:
        assert row.baseline_seconds > row.index_seconds, row.query
    speedups = [row.speedup for row in rows]
    assert geometric_mean(speedups) > 10.0
    assert "geomean" in format_comparison(rows, "Datalog")
