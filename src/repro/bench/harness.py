"""Experiment drivers: the code behind every figure and table.

Each function reproduces one empirical artifact of the paper (see
DESIGN.md's experiment index) and returns plain data rows, so the same
drivers back the pytest benchmarks, the example scripts and the CLI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median

from repro.api import GraphDatabase
from repro.baselines import automaton_eval, datalog_eval
from repro.bench.queries import WorkloadQuery, workload
from repro.bench.workloads import PreparedWorkload, advogato_workload
from repro.graph.graph import Graph
from repro.indexes.histogram import EquiDepthHistogram
from repro.indexes.pathindex import PathIndex
from repro.indexes.statistics import ExactStatistics
from repro.rpq.parser import parse

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
    prepared: PreparedWorkload | None = None,
    ks: tuple[int, ...] = (1, 2, 3),
    methods: tuple[str, ...] = STRATEGIES,
    repeats: int = 3,
    scale: str = "bench",
) -> list[Measurement]:
    """Figure 2: 8 queries x 4 methods x k in {1,2,3}.

    The ``naive`` method has k pinned to 1 by definition (it indexes
    edge labels only); it is still *measured* under each panel, as in
    the paper's figure, using the k=1 index.
    """
    if prepared is None:
        prepared = advogato_workload(scale=scale, ks=ks)
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


def run_datalog_comparison(
    prepared: PreparedWorkload | None = None,
    k: int = 3,
    scale: str = "small",
    repeats: int = 1,
) -> list[ComparisonRow]:
    """Section 6: minSupport over I_{G,k} vs semi-naive Datalog."""
    if prepared is None:
        prepared = advogato_workload(scale=scale, ks=(1, k))
    database = prepared.database(k)
    rows: list[ComparisonRow] = []
    for query in workload(prepared.labels):
        index_measure = _time_query(database, query, "minsupport", repeats)
        node = parse(query.text)
        started = time.perf_counter()
        answer = datalog_eval.evaluate(prepared.graph, node)
        datalog_seconds = time.perf_counter() - started
        rows.append(
            ComparisonRow(
                query=query.name,
                index_seconds=index_measure.seconds,
                baseline_seconds=datalog_seconds,
                answer_size=len(answer),
            )
        )
    return rows


def run_automaton_comparison(
    prepared: PreparedWorkload | None = None,
    k: int = 3,
    scale: str = "bench",
    repeats: int = 1,
) -> list[ComparisonRow]:
    """Section 3.1's traversal comparison: minSupport vs product-BFS."""
    if prepared is None:
        prepared = advogato_workload(scale=scale, ks=(1, k))
    database = prepared.database(k)
    rows: list[ComparisonRow] = []
    for query in workload(prepared.labels):
        index_measure = _time_query(database, query, "minsupport", repeats)
        node = parse(query.text)
        started = time.perf_counter()
        answer = automaton_eval.evaluate(prepared.graph, node)
        automaton_seconds = time.perf_counter() - started
        rows.append(
            ComparisonRow(
                query=query.name,
                index_seconds=index_measure.seconds,
                baseline_seconds=automaton_seconds,
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
            path = None
            if backend == "disk":
                if tmp_dir is None:
                    raise ValueError("disk backend requires tmp_dir")
                path = f"{tmp_dir}/pathindex_k{k}.db"
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
    prepared: PreparedWorkload | None = None,
    k: int = 2,
    bucket_counts: tuple[int, ...] = (4, 16, 64, 256),
    scale: str = "bench",
    repeats: int = 3,
) -> list[HistogramRow]:
    """How bucket count affects estimates and minSupport run-times."""
    if prepared is None:
        prepared = advogato_workload(scale=scale, ks=(1, k))
    database = prepared.database(k)
    exact = database.index.counts_by_path()
    total = ExactStatistics.from_index(database.index).total_paths_k
    rows: list[HistogramRow] = []
    for buckets in bucket_counts:
        histogram = EquiDepthHistogram.from_counts(
            exact, k=k, total_paths_k=total, buckets=buckets
        )
        error = histogram.mean_absolute_error(exact)
        database._histogram = histogram  # ablation: swap the synopsis
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
