"""Section 3.1's traversal comparison: path index vs product-BFS.

The paper cites 2x-8000x speed-ups over Neo4j, whose evaluator is a
traversal engine; the honest stand-in here is the automaton/search
baseline (approach 1).  The assertion is aggregate: the index wins in
total across the workload (individual short queries can be close).
"""

from __future__ import annotations

import pytest

from repro.baselines import automaton_eval
from repro_bench.harness import run_comparison
from repro_bench.queries import workload
from repro.rpq.parser import parse

QUERIES = workload()


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
def test_path_index_minsupport(benchmark, prepared_bench, query):
    database = prepared_bench.database(2)
    benchmark.group = f"automaton-comparison-{query.name}"
    result = benchmark.pedantic(
        lambda: database.query(query.text, method="minsupport", use_cache=False),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    benchmark.extra_info["answer_size"] = len(result.pairs)


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
def test_automaton_baseline(benchmark, prepared_bench, query):
    graph = prepared_bench.graph
    node = parse(query.text)
    benchmark.group = f"automaton-comparison-{query.name}"
    answer = benchmark.pedantic(
        lambda: automaton_eval.evaluate(graph, node),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["answer_size"] = len(answer)


def test_aggregate_shape(prepared_bench):
    rows = run_comparison(prepared_bench, "automaton", k=2)
    total_index = sum(row.index_seconds for row in rows)
    total_automaton = sum(row.baseline_seconds for row in rows)
    assert total_index < total_automaton
