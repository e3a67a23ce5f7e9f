"""Experiment drivers: the code behind every figure and table.

Each function reproduces one empirical artifact of the paper and
returns plain data rows, so the same functions back the pytest
benchmarks and ``benchmarks/paper_experiments.py``, which prints every
table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median

from repro.api import GraphDatabase
from repro.baselines import automaton_eval
from repro.graph.graph import Graph
from repro.indexes.histogram import EquiDepthHistogram
from repro.indexes.pathindex import PathIndex
from repro.rpq.parser import parse
from repro_bench import datalog_eval
from repro_bench.queries import WorkloadQuery, workload
from repro_bench.workloads import PreparedWorkload

STRATEGIES: tuple[str, ...] = ("naive", "semi-naive", "minsupport", "minjoin")


@dataclass(frozen=True, slots=True)
class Measurement:
    """One timed query evaluation."""

    query: str
    method: str
    k: int
    seconds: float
    answer_size: int


def _time_query(
    database: GraphDatabase, query: WorkloadQuery, method: str, repeats: int
) -> Measurement:
    timings: list[float] = []
    answer_size = 0
    for _ in range(repeats):
        # Bypass the answer cache.  Plans are still reused: the first
        # repeat plans and executes, the later ones (so the median)
        # execute the plan the first one made.
        result = database.query(query.text, method=method, use_cache=False)
        timings.append(result.seconds)
        answer_size = len(result.pairs)
    return Measurement(
        query=query.name,
        method=method,
        k=database.k,
        seconds=median(timings),
        answer_size=answer_size,
    )


def run_figure2(
    prepared: PreparedWorkload,
    ks: tuple[int, ...] = (1, 2, 3),
    methods: tuple[str, ...] = STRATEGIES,
    repeats: int = 3,
) -> list[Measurement]:
    """Figure 2: 8 queries x 4 methods x k in {1,2,3}.

    The ``naive`` method has k pinned to 1 by definition (it indexes
    edge labels only); it is still *measured* under each panel, as in
    the paper's figure, using the k=1 index.
    """
    queries = workload(prepared.labels)
    measurements: list[Measurement] = []
    for k in ks:
        database = prepared.database(k)
        naive_database = prepared.database(1)
        for query in queries:
            for method in methods:
                target = naive_database if method == "naive" else database
                measurement = _time_query(target, query, method, repeats)
                # Record under the panel's k even for naive (fixed k=1).
                measurements.append(
                    Measurement(
                        query=measurement.query,
                        method=measurement.method,
                        k=k,
                        seconds=measurement.seconds,
                        answer_size=measurement.answer_size,
                    )
                )
    return measurements


@dataclass(frozen=True, slots=True)
class ComparisonRow:
    """Path-index vs baseline timing for one query."""

    query: str
    index_seconds: float
    baseline_seconds: float
    answer_size: int

    @property
    def speedup(self) -> float:
        if self.index_seconds <= 0.0:
            return float("inf")
        return self.baseline_seconds / self.index_seconds


#: The baselines a comparison times: name -> ``(graph, AST) -> id pairs``.
BASELINES = {
    "Datalog": datalog_eval.evaluate,
    "automaton": automaton_eval.evaluate,
}


def run_comparison(
    prepared: PreparedWorkload,
    baseline: str,
    k: int = 3,
    repeats: int = 1,
) -> list[ComparisonRow]:
    """minSupport over I_{G,k} vs one baseline of :data:`BASELINES`.

    ``"Datalog"`` is Section 6's semi-naive bottom-up evaluation;
    ``"automaton"`` is the traversal comparison's graph x NFA product
    search from every node.  The baseline runs once per query.
    """
    evaluate = BASELINES[baseline]
    database = prepared.database(k)
    rows: list[ComparisonRow] = []
    for query in workload(prepared.labels):
        index_measure = _time_query(database, query, "minsupport", repeats)
        node = parse(query.text)
        started = time.perf_counter()
        answer = evaluate(prepared.graph, node)
        baseline_seconds = time.perf_counter() - started
        rows.append(
            ComparisonRow(
                query=query.name,
                index_seconds=index_measure.seconds,
                baseline_seconds=baseline_seconds,
                answer_size=len(answer),
            )
        )
    return rows


@dataclass(frozen=True, slots=True)
class IndexBuildRow:
    """Index construction metrics for one (k, backend)."""

    k: int
    backend: str
    build_seconds: float
    entries: int
    paths: int


def run_index_build(
    graph: Graph,
    ks: tuple[int, ...] = (1, 2, 3),
    backends: tuple[str, ...] = ("memory",),
    tmp_dir: str | None = None,
) -> list[IndexBuildRow]:
    """Index size and build time vs k (thesis-scope table)."""
    rows: list[IndexBuildRow] = []
    for backend in backends:
        for k in ks:
            path = None if tmp_dir is None else f"{tmp_dir}/pathindex_k{k}.db"
            started = time.perf_counter()
            index = PathIndex.build(graph, k, backend=backend, path=path)
            build_seconds = time.perf_counter() - started
            rows.append(
                IndexBuildRow(
                    k=k,
                    backend=backend,
                    build_seconds=build_seconds,
                    entries=index.entry_count,
                    paths=index.path_count,
                )
            )
            index.close()
    return rows


@dataclass(frozen=True, slots=True)
class HistogramRow:
    """Estimation quality and plan quality for one bucket count."""

    buckets: int
    mean_absolute_error: float
    minsupport_seconds: float


def run_histogram_ablation(
    prepared: PreparedWorkload,
    k: int = 2,
    bucket_counts: tuple[int, ...] = (4, 16, 64, 256),
    repeats: int = 3,
) -> list[HistogramRow]:
    """How bucket count affects estimates and minSupport run-times."""
    database = prepared.database(k)
    exact = database.index.counts_by_path()
    rows: list[HistogramRow] = []
    for buckets in bucket_counts:
        histogram = EquiDepthHistogram.from_counts(exact, k=k, buckets=buckets)
        error = histogram.mean_absolute_error(exact)
        database._histogram = histogram  # ablation: swap the synopsis
        # The plan cache is stamped with the statistics epoch, which a
        # swap does not move: drop the plans the previous arm made.
        database.cache_clear()
        timings = [
            _time_query(database, query, "minsupport", repeats).seconds
            for query in workload(prepared.labels)
        ]
        rows.append(
            HistogramRow(
                buckets=buckets,
                mean_absolute_error=error,
                minsupport_seconds=sum(timings),
            )
        )
    database.build_index()  # restore the default histogram
    return rows
