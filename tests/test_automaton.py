"""Tests for the NFA construction and the automaton baseline."""

from __future__ import annotations

from hypothesis import given, settings

from repro.baselines import automaton_eval
from repro.graph.examples import figure1_graph
from repro.graph.generators import chain, cycle
from repro.graph.graph import Graph, Step
from repro.rpq.automaton import compile_ast
from repro.rpq.parser import parse
from repro.rpq.semantics import eval_ast

from tests.strategies import graphs, rpq_asts


class TestNfaConstruction:
    def test_epsilon_accepts_empty(self):
        nfa = compile_ast(parse("<eps>"))
        assert nfa.accepts_empty()

    def test_label_does_not_accept_empty(self):
        assert not compile_ast(parse("a")).accepts_empty()

    def test_star_accepts_empty(self):
        assert compile_ast(parse("a*")).accepts_empty()

    def test_repeat_zero_accepts_empty(self):
        assert compile_ast(parse("a{0,3}")).accepts_empty()
        assert not compile_ast(parse("a{1,3}")).accepts_empty()

    def test_alphabet_includes_inverse_steps(self):
        nfa = compile_ast(parse("a/^b"))
        assert nfa.alphabet() == frozenset(
            {Step("a"), Step("b", inverse=True)}
        )

    def test_eps_closure_is_reflexive_transitive(self):
        nfa = compile_ast(parse("a|b"))
        closure = nfa.eps_closure(nfa.start)
        assert nfa.start in closure
        # Union introduces epsilon fan-out from the start state.
        assert len(closure) >= 3

    def test_closure_cache_invalidated_by_mutation(self):
        nfa = compile_ast(parse("a"))
        before = nfa.eps_closure(nfa.start)
        extra = nfa.new_state()
        nfa.add_epsilon(nfa.start, extra)
        after = nfa.eps_closure(nfa.start)
        assert extra in after and extra not in before


class TestEvaluation:
    def test_single_label(self):
        graph = Graph.from_edges([("x", "a", "y")])
        pairs = automaton_eval.evaluate(graph, parse("a"))
        assert pairs == {(graph.node_id("x"), graph.node_id("y"))}

    def test_concat_on_chain(self):
        graph = chain(3)
        assert automaton_eval.evaluate(graph, parse("next/next")) == {
            (0, 2), (1, 3)
        }

    def test_star_on_cycle(self):
        graph = cycle(3)
        answer = automaton_eval.evaluate(graph, parse("next*"))
        assert answer == {(i, j) for i in range(3) for j in range(3)}

    def test_inverse_navigation(self):
        graph = chain(2)
        assert automaton_eval.evaluate(graph, parse("^next")) == {(1, 0), (2, 1)}

    def test_figure1_supervisor_example(self):
        graph = figure1_graph()
        pairs = automaton_eval.evaluate(graph, parse("supervisor/^worksFor"))
        assert graph.pairs_to_names(pairs) == {("kim", "sue")}

    def test_evaluate_from_single_source(self):
        graph = chain(3)
        nfa = compile_ast(parse("next{1,2}"))
        assert automaton_eval.evaluate_from(graph, nfa, 0) == {1, 2}

    def test_evaluate_pair(self):
        """A walk given a goal state stops on reaching it."""
        graph = chain(3)
        nfa = compile_ast(parse("next{3}"))
        goal = (3, nfa.accept)
        assert goal in automaton_eval.walk(graph, nfa, 0, goal)
        assert goal not in automaton_eval.walk(graph, nfa, 1, goal)
        star = compile_ast(parse("next*"))
        early = automaton_eval.walk(graph, star, 0, (1, star.accept))
        assert (1, star.accept) in early
        assert (3, star.accept) in automaton_eval.walk(graph, star, 0)
        assert (3, star.accept) not in early

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_nodes=6, max_edges=12), rpq_asts(max_leaves=4))
    def test_matches_reference_semantics(self, graph, node):
        """The product-BFS agrees with the set-semantics oracle."""
        assert automaton_eval.evaluate(graph, node) == eval_ast(graph, node)

    @settings(max_examples=30, deadline=None)
    @given(graphs(max_nodes=5, max_edges=10), rpq_asts(max_leaves=2, allow_star=True))
    def test_matches_reference_with_star(self, graph, node):
        assert automaton_eval.evaluate(graph, node) == eval_ast(graph, node)
