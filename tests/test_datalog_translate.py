"""Tests for the RPQ -> Datalog translation (approach 2)."""

from __future__ import annotations

from hypothesis import given, settings

from repro_bench import datalog_eval
from repro_bench.datalog.engine import seminaive_evaluate
from repro_bench.datalog.translate import graph_to_edb, translate
from repro.graph.examples import figure1_graph
from repro.graph.generators import chain, cycle
from repro.rpq.parser import parse
from repro.rpq.semantics import eval_ast

from tests.strategies import graphs, rpq_asts


class TestTranslationStructure:
    def test_label_translates_to_edge_rule(self):
        translation = translate(parse("knows"))
        text = str(translation.program)
        assert "edge_knows" in text

    def test_inverse_swaps_edge_arguments(self):
        translation = translate(parse("^knows"))
        answer_rules = translation.program.rules_for(
            translation.answer_predicate
        )
        body_atom = answer_rules[0].body[0]
        head = answer_rules[0].head
        # head (X, Y), body edge(Y, X)
        assert (body_atom.terms[0], body_atom.terms[1]) == (
            head.terms[1], head.terms[0],
        )

    def test_star_produces_recursive_rule(self):
        translation = translate(parse("knows*"))
        answer = translation.answer_predicate
        recursive = [
            rule
            for rule in translation.program.rules_for(answer)
            if any(atom.predicate == answer for atom in rule.body)
        ]
        assert recursive

    def test_bounded_repeat_is_nonrecursive(self):
        translation = translate(parse("knows{1,3}"))
        idb = translation.program.idb_predicates()
        for rule in translation.program.rules:
            for atom in rule.body:
                if atom.predicate == rule.head.predicate:
                    raise AssertionError("bounded recursion should unroll")
        assert translation.answer_predicate in idb

    def test_edb_export(self):
        graph = figure1_graph()
        edb = graph_to_edb(graph)
        assert edb.count("node") == graph.node_count
        assert edb.count("edge_knows") == 9
        assert edb.count("edge_supervisor") == 1


class TestEvaluation:
    def test_simple_concat(self):
        graph = chain(3)
        answer = datalog_eval.evaluate(graph, parse("next/next"))
        assert answer == eval_ast(graph, parse("next/next"))

    def test_star_on_cycle(self):
        graph = cycle(4)
        answer = datalog_eval.evaluate(graph, parse("next*"))
        assert answer == eval_ast(graph, parse("next*"))

    def test_open_repeat(self):
        graph = chain(4)
        answer = datalog_eval.evaluate(graph, parse("next{2,}"))
        assert answer == eval_ast(graph, parse("next{2,}"))

    def test_epsilon(self):
        graph = chain(2)
        answer = datalog_eval.evaluate(graph, parse("<eps>"))
        assert answer == eval_ast(graph, parse("<eps>"))

    def test_union_recursion_paper_query(self):
        graph = figure1_graph()
        query = parse("(supervisor|worksFor|^worksFor){2,3}")
        assert datalog_eval.evaluate(graph, query) == eval_ast(graph, query)

    def test_naive_mode(self):
        graph = chain(3)
        answer = datalog_eval.evaluate(graph, parse("next+"), mode="naive")
        assert answer == eval_ast(graph, parse("next+"))

    def test_unknown_mode_rejected(self):
        import pytest

        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            datalog_eval.evaluate(chain(2), parse("next"), mode="magic")

    def test_stats_returned(self):
        graph = cycle(3)
        _, stats = datalog_eval.evaluate_with_stats(graph, parse("next*"))
        assert stats.rounds >= 2
        assert stats.facts_derived > 0

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_nodes=5, max_edges=10), rpq_asts(max_leaves=3))
    def test_property_matches_reference(self, graph, node):
        assert datalog_eval.evaluate(graph, node) == eval_ast(graph, node)

    @settings(max_examples=20, deadline=None)
    @given(graphs(max_nodes=4, max_edges=8),
           rpq_asts(max_leaves=2, allow_star=True))
    def test_property_matches_reference_with_star(self, graph, node):
        assert datalog_eval.evaluate(graph, node) == eval_ast(graph, node)

    @settings(max_examples=15, deadline=None)
    @given(graphs(max_nodes=4, max_edges=6), rpq_asts(max_leaves=2))
    def test_property_naive_equals_seminaive(self, graph, node):
        translation = translate(node)
        edb = graph_to_edb(graph)
        semi, _ = seminaive_evaluate(translation.program, edb)
        assert datalog_eval.evaluate(graph, node, mode="naive") == {
            pair for pair in semi.relation(translation.answer_predicate)
        }
