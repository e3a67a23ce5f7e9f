"""Edge cases across the query engine: empty inputs, degenerate graphs."""

from __future__ import annotations

import pytest

from repro.api import GraphDatabase
from repro.engine.planner import Strategy
from repro.graph.examples import FIGURE1_EDGES
from repro.graph.graph import Graph

from tests.evaluators import evaluate

ALL_STRATEGIES = ("naive", "semi-naive", "minsupport", "minjoin")


@pytest.fixture(scope="module")
def db():
    return GraphDatabase.from_edges(FIGURE1_EDGES, k=2)


class TestDegenerateGraphs:
    def test_single_node_no_edges(self):
        graph = Graph()
        graph.add_node("only")
        database = GraphDatabase(graph, k=1)
        assert database.query("<eps>").pairs == frozenset({("only", "only")})

    def test_edgeless_graph_label_query(self):
        graph = Graph()
        graph.add_node("a")
        graph.add_node("b")
        database = GraphDatabase(graph, k=2)
        # the vocabulary is empty; any label mentioned is simply absent
        assert database.query("ghost{1,3}").pairs == frozenset()

    def test_self_loop_only(self):
        database = GraphDatabase(Graph.from_edges([("o", "spin", "o")]), k=2)
        for method in ALL_STRATEGIES:
            result = database.query("spin{1,4}", method=method)
            assert result.pairs == frozenset({("o", "o")})

    def test_parallel_labels_same_pair(self):
        database = GraphDatabase(
            Graph.from_edges([("x", "a", "y"), ("x", "b", "y")]), k=2
        )
        assert database.query("a|b").pairs == frozenset({("x", "y")})
        assert database.query("a/^b").pairs == frozenset({("x", "x")})


class TestEmptyAnswers:
    @pytest.mark.parametrize("method", ALL_STRATEGIES)
    def test_unknown_label_every_strategy(self, db, method):
        assert db.query("nonexistent", method=method).pairs == frozenset()

    @pytest.mark.parametrize("method", ALL_STRATEGIES)
    def test_empty_composition(self, db, method):
        # supervisor/supervisor is empty in figure 1
        result = db.query("supervisor/supervisor", method=method)
        assert result.pairs == frozenset()

    def test_empty_base_star_is_identity(self, db):
        result = db.query("nonexistent*")
        expected = frozenset(
            (name, name) for name in db.graph.node_names()
        )
        assert result.pairs == expected

    def test_empty_middle_kills_long_disjunct(self, db):
        result = db.query("knows/supervisor/supervisor/knows")
        assert result.pairs == frozenset()


class TestLongDisjuncts:
    @pytest.mark.parametrize("method", ALL_STRATEGIES)
    def test_disjunct_much_longer_than_k(self, db, method):
        text = "knows/knows/knows/knows/knows/knows/knows"
        assert db.query(text, method=method).pairs == evaluate(db.graph, text)

    def test_exact_repetition_of_composite(self, db):
        text = "(knows/worksFor){3}"
        reference = evaluate(db.graph, text)
        for method in ALL_STRATEGIES:
            assert db.query(text, method=method).pairs == reference


class TestKExtremes:
    def test_k_larger_than_every_query(self):
        database = GraphDatabase.from_edges(FIGURE1_EDGES, k=3)
        result = database.query("knows/worksFor")
        # single scan plan: no joins at all
        assert result.report is not None
        assert result.report.plan is not None
        assert result.report.plan.plan.join_count() == 0

    def test_k1_index_answers_everything(self):
        database = GraphDatabase.from_edges(FIGURE1_EDGES, k=1)
        reference = GraphDatabase.from_edges(FIGURE1_EDGES, k=3)
        for text in ("knows/knows/worksFor", "(knows|worksFor){2,3}"):
            assert (
                database.query(text).pairs == reference.query(text).pairs
            )


class TestPlanShapeInvariants:
    def test_semi_naive_has_at_most_one_merge_join_per_disjunct(self, db):
        normal = db.normal_form("knows/knows/knows/knows/knows")
        from repro.engine.planner import Planner

        planner = Planner(db.k, db.histogram, db.graph, Strategy.SEMI_NAIVE)
        costed = planner.plan(normal)
        assert costed.plan.merge_join_count() <= 1

    def test_naive_scans_are_all_single_steps(self, db):
        from repro.engine.plan import IndexScanPlan
        from repro.engine.planner import Planner

        normal = db.normal_form("knows/worksFor/knows")
        planner = Planner(db.k, db.histogram, db.graph, Strategy.NAIVE)
        costed = planner.plan(normal)

        def scans(plan):
            if isinstance(plan, IndexScanPlan):
                yield plan
            for child in plan.children():
                yield from scans(child)

        assert all(len(scan.path) == 1 for scan in scans(costed.plan))

    def test_minjoin_scan_count_is_ceil_n_over_k(self, db):
        from repro.engine.planner import Planner
        from repro.graph.graph import LabelPath

        planner = Planner(db.k, db.histogram, db.graph, Strategy.MIN_JOIN)
        for length in range(1, 8):
            path = LabelPath.of(*["knows"] * length)
            costed = planner.plan_path(path)
            assert costed.plan.scan_count() == -(-length // db.k)
