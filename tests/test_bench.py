"""Tests for the benchmark workload, harness and reporting."""

from __future__ import annotations

import pytest

from repro_bench import harness, reporting
from repro_bench.queries import query_by_name, workload
from repro_bench.workloads import PreparedWorkload, advogato_workload
from repro.errors import ValidationError
from repro.graph.generators import SCALES, advogato_like
from repro.rpq.parser import parse


@pytest.fixture(scope="module")
def prepared() -> PreparedWorkload:
    return advogato_workload(scale="small", ks=(1, 2))


class TestWorkloadQueries:
    def test_eight_queries(self):
        queries = workload()
        assert len(queries) == 8
        assert [q.name for q in queries] == [f"Q{i}" for i in range(1, 9)]

    def test_queries_parse(self):
        for query in workload():
            parse(query.text)  # must not raise

    def test_coverage_of_constructs(self):
        texts = " ".join(q.text for q in workload())
        assert "^" in texts  # inverse
        assert "|" in texts  # union
        assert "{" in texts  # bounded recursion
        assert "/" in texts  # concatenation

    def test_custom_labels(self):
        queries = workload(("x", "y", "z"))
        assert "x" in queries[0].text

    def test_label_arity_enforced(self):
        with pytest.raises(ValidationError):
            workload(("a", "b"))

    def test_query_by_name(self):
        assert query_by_name("Q3").name == "Q3"
        with pytest.raises(ValidationError):
            query_by_name("Q99")


class TestWorkloadPreparation:
    def test_scales_exist(self):
        assert {"small", "bench", "medium", "full"} <= set(SCALES)

    def test_prepared_databases(self, prepared):
        assert set(prepared.databases) == {1, 2}
        assert prepared.database(1).k == 1

    def test_lazy_database_build(self, prepared):
        # asking for a new k builds it lazily
        db = prepared.database(2)
        assert db.index.k == 2

    def test_unknown_scale(self):
        with pytest.raises(ValidationError):
            advogato_workload(scale="galactic")


class TestFigure2Harness:
    def test_rows_cover_grid(self, prepared):
        measurements = harness.run_figure2(prepared, ks=(1, 2), repeats=1)
        assert len(measurements) == 8 * 4 * 2  # queries x methods x ks
        keys = {(m.query, m.method, m.k) for m in measurements}
        assert len(keys) == len(measurements)

    def test_answers_consistent_across_methods(self, prepared):
        measurements = harness.run_figure2(prepared, ks=(1, 2), repeats=1)
        by_query_k: dict[tuple[str, int], set[int]] = {}
        for m in measurements:
            by_query_k.setdefault((m.query, m.k), set()).add(m.answer_size)
        for key, sizes in by_query_k.items():
            assert len(sizes) == 1, f"methods disagree on {key}"

    def test_answers_consistent_across_k(self, prepared):
        measurements = harness.run_figure2(prepared, ks=(1, 2), repeats=1)
        by_query: dict[str, set[int]] = {}
        for m in measurements:
            by_query.setdefault(m.query, set()).add(m.answer_size)
        for query, sizes in by_query.items():
            assert len(sizes) == 1, f"k changes the answer of {query}"

    def test_format_figure2(self, prepared):
        measurements = harness.run_figure2(prepared, ks=(1,), repeats=1)
        text = reporting.format_figure2(measurements)
        assert "panel k=1" in text
        assert "Q1" in text and "Q8" in text

    def test_trends_computable(self, prepared):
        measurements = harness.run_figure2(prepared, ks=(1, 2), repeats=1)
        trends = reporting.figure2_trends(measurements)
        assert set(trends) == {"naive_worst", "histogram_helps", "k_improves"}


class TestComparisons:
    """The Datalog comparison is a timing run: it is
    ``benchmarks/bench_datalog_comparison.py::test_speedup_shape``, a CI
    benchmark step, not a tier-1 test."""

    def test_automaton_comparison_rows(self, prepared):
        rows = harness.run_comparison(prepared, "automaton", k=2)
        assert len(rows) == 8


class TestIndexBuildAndHistogram:
    def test_index_build_rows_grow_with_k(self):
        graph = advogato_like(nodes=80, edges=320, seed=9)
        rows = harness.run_index_build(graph, ks=(1, 2))
        assert rows[0].entries < rows[1].entries
        assert rows[0].paths < rows[1].paths

    def test_index_build_disk_backend(self, tmp_path):
        graph = advogato_like(nodes=50, edges=200, seed=9)
        rows = harness.run_index_build(
            graph, ks=(1,), backends=("memory", "disk"), tmp_dir=str(tmp_path)
        )
        by_backend = {row.backend: row for row in rows}
        assert by_backend["memory"].entries == by_backend["disk"].entries

    def test_index_build_report(self):
        graph = advogato_like(nodes=50, edges=200, seed=9)
        rows = harness.run_index_build(graph, ks=(1,))
        assert "entries" in reporting.format_index_build(rows)

    def test_histogram_ablation(self, prepared):
        rows = harness.run_histogram_ablation(
            prepared, k=2, bucket_counts=(2, 64), repeats=1
        )
        assert len(rows) == 2
        # more buckets -> error no worse
        assert rows[1].mean_absolute_error <= rows[0].mean_absolute_error + 1e-9
        assert "buckets" in reporting.format_histogram(rows)

    def test_histogram_ablation_plans_each_arm_afresh(self, prepared, monkeypatch):
        """Every bucket count's reads run plans made under its histogram:
        each workload query is planned once per arm, not once in all."""
        from repro import api

        planned = []
        original = api.prepare_ast

        def counting(node, *args, **kwargs):
            planned.append(str(node))
            return original(node, *args, **kwargs)

        monkeypatch.setattr(api, "prepare_ast", counting)
        bucket_counts = (4, 256)
        harness.run_histogram_ablation(
            prepared, k=2, bucket_counts=bucket_counts, repeats=2
        )
        texts = {query.text for query in workload(prepared.labels)}
        assert len(planned) == len(bucket_counts) * len(texts)
