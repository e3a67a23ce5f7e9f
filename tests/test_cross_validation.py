"""The central correctness property of the reproduction.

Five independent evaluation paths must agree on every (graph, query)
pair: the reference set semantics, the four index strategies (through
the full rewrite → plan → execute pipeline), the automaton product-BFS,
and the Datalog translation.  Disagreement between any two would mean a
bug somewhere in a substrate; agreement on randomized inputs is the
strongest oracle available without the authors' artifacts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import automaton_eval
from repro_bench import datalog_eval
from repro.engine.executor import evaluate_ast
from repro.engine.planner import Strategy
from repro.graph.examples import figure1_graph
from repro.indexes.histogram import EquiDepthHistogram
from repro.indexes.pathindex import PathIndex
from repro.indexes.statistics import ExactStatistics, UniformStatistics
from repro.rpq.parser import parse
from repro.rpq.rewrite import DEFAULT_MAX_DISJUNCTS
from repro.rpq.semantics import eval_ast as reference
from repro.sharding import ShardedGraph

from tests.strategies import graphs, rpq_asts


def _index_answer(graph, node, strategy, statistics=None, k=2):
    index = PathIndex.build(graph, k=k)
    if statistics is None:
        statistics = ExactStatistics.from_index(index)
    report = evaluate_ast(node, index, graph, statistics, strategy)
    return set(report.pairs)


class TestRandomized:
    @settings(max_examples=40, deadline=None)
    @given(
        graphs(max_nodes=6, max_edges=12),
        rpq_asts(max_leaves=4, allow_star=True),
        st.sampled_from(["pathindex", "sharded"]),
        st.sampled_from([DEFAULT_MAX_DISJUNCTS, 4]),
    )
    def test_all_strategies_match_reference(self, graph, node, layout, budget):
        """A budget of 4 sends most starred ASTs down the hybrid walk, and
        three shards scatter its bounded parts and closure operands."""
        expected = reference(graph, node)
        if layout == "sharded":
            index = ShardedGraph.build(graph, 2, shards=3)
        else:
            index = PathIndex.build(graph, k=2)
        statistics = ExactStatistics.from_index(index)
        for strategy in Strategy:
            report = evaluate_ast(node, index, graph, statistics, strategy, budget)
            assert set(report.pairs) == expected, strategy

    @settings(max_examples=25, deadline=None)
    @given(graphs(max_nodes=5, max_edges=10), rpq_asts(max_leaves=3))
    def test_histogram_statistics_do_not_change_answers(self, graph, node):
        """The histogram affects plan choice, never correctness."""
        expected = reference(graph, node)
        index = PathIndex.build(graph, k=2)
        for statistics in (
            ExactStatistics.from_index(index),
            EquiDepthHistogram.from_index(index, buckets=2),
            EquiDepthHistogram.from_index(index, buckets=64),
            UniformStatistics(graph, k=2),
        ):
            report = evaluate_ast(
                node, index, graph, statistics, Strategy.MIN_SUPPORT
            )
            assert set(report.pairs) == expected

    @settings(max_examples=25, deadline=None)
    @given(graphs(max_nodes=5, max_edges=10), rpq_asts(max_leaves=3))
    def test_k_does_not_change_answers(self, graph, node):
        expected = reference(graph, node)
        for k in (1, 2, 3):
            assert _index_answer(graph, node, Strategy.SEMI_NAIVE, k=k) == expected

    @settings(max_examples=25, deadline=None)
    @given(graphs(max_nodes=5, max_edges=8), rpq_asts(max_leaves=3))
    def test_baselines_match_reference(self, graph, node):
        expected = reference(graph, node)
        assert automaton_eval.evaluate(graph, node) == expected
        assert datalog_eval.evaluate(graph, node) == expected

    @settings(max_examples=15, deadline=None)
    @given(
        graphs(max_nodes=4, max_edges=8),
        rpq_asts(max_leaves=2, allow_star=True),
    )
    def test_star_queries_all_paths_agree(self, graph, node):
        expected = reference(graph, node)
        assert automaton_eval.evaluate(graph, node) == expected
        assert datalog_eval.evaluate(graph, node) == expected
        assert _index_answer(graph, node, Strategy.MIN_JOIN) == expected


class TestFixedQueriesOnFigure1:
    QUERIES = [
        "knows",
        "^knows",
        "knows/knows/worksFor",
        "supervisor/^worksFor",
        "(supervisor|worksFor|^worksFor){4,5}",
        "knows/(knows/worksFor){2,4}/worksFor",
        "knows{0,2}",
        "worksFor/^worksFor",
        "<eps>|knows",
        "^(knows/worksFor)",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_figure1(self, text, strategy):
        graph = figure1_graph()
        node = parse(text)
        expected = reference(graph, node)
        assert _index_answer(graph, node, strategy, k=3) == expected

    @pytest.mark.parametrize("text", QUERIES)
    def test_figure1_baselines(self, text):
        graph = figure1_graph()
        node = parse(text)
        expected = reference(graph, node)
        assert automaton_eval.evaluate(graph, node) == expected
        assert datalog_eval.evaluate(graph, node) == expected
