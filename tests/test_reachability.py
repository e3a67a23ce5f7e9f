"""Tests for the reachability baseline (approach 3 in the paper).

``reachability_eval`` answers single-step closures through the same
Tarjan condensation every Kleene closure runs; ``tests/test_csr.py``
covers that pass itself.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings

from repro_bench import reachability_eval
from repro_bench.reachability_eval import UnsupportedQueryError
from repro.graph.generators import chain, cycle
from repro.graph.graph import Graph, Step
from repro.rpq.parser import parse
from repro.rpq.semantics import eval_ast

from tests.strategies import graphs


def _bfs_reachable(edges: set[tuple[int, int]], source: int) -> set[int]:
    adjacency: dict[int, list[int]] = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    seen: set[int] = set()
    queue = deque(adjacency.get(source, ()))
    while queue:
        node = queue.popleft()
        if node not in seen:
            seen.add(node)
            queue.extend(adjacency.get(node, ()))
    return seen


def _closure(graph: Graph, query: str) -> set[tuple[int, int]]:
    return reachability_eval.evaluate(graph, parse(query))


def _reach(pairs: set[tuple[int, int]], source: int) -> set[int]:
    return {target for start, target in pairs if start == source}


class TestReachability:
    def test_chain_reachability(self):
        graph = chain(4)
        plus, star = _closure(graph, "next+"), _closure(graph, "next*")
        assert (0, 4) in plus
        assert (4, 0) not in plus
        assert (2, 2) in star
        assert (2, 2) not in plus

    def test_cycle_reaches_itself_without_reflexivity(self):
        graph = cycle(3)
        assert (0, 0) in _closure(graph, "next+")

    def test_self_loop(self):
        graph = Graph.from_edges([("o", "spin", "o")])
        assert (0, 0) in _closure(graph, "spin+")

    def test_inverse_step(self):
        graph = chain(3)
        plus = _closure(graph, "(^next)+")
        assert (3, 0) in plus
        assert (0, 3) not in plus

    def test_all_pairs_equals_star_semantics(self):
        graph = cycle(4)
        assert _closure(graph, "next*") == eval_ast(graph, parse("next*"))

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_nodes=8, max_edges=16, labels=("a",)))
    def test_matches_bfs_brute_force(self, graph):
        edges = graph.step_relation(Step("a"))
        plus, star = _closure(graph, "a+"), _closure(graph, "a*")
        for source in graph.node_ids():
            expected = _bfs_reachable(edges, source)
            assert _reach(plus, source) == expected
            assert _reach(star, source) == expected | {source}

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_nodes=7, max_edges=14, labels=("a",)))
    def test_matches_star_and_plus_semantics(self, graph):
        assert _closure(graph, "a*") == eval_ast(graph, parse("a*"))
        assert _closure(graph, "a+") == eval_ast(graph, parse("a+"))


class TestBaselineFrontend:
    def test_supported_star(self):
        graph = chain(3)
        assert reachability_eval.evaluate(graph, parse("next*")) == eval_ast(
            graph, parse("next*")
        )

    def test_supported_plus(self):
        graph = chain(3)
        assert reachability_eval.evaluate(graph, parse("next+")) == eval_ast(
            graph, parse("next+")
        )

    def test_supported_inverse_star(self):
        graph = chain(3)
        assert reachability_eval.evaluate(graph, parse("(^next)*")) == eval_ast(
            graph, parse("(^next)*")
        )

    @pytest.mark.parametrize(
        "query",
        ["a/b", "(a/b)*", "a{2,}", "a{1,3}", "a|b", "a*/b"],
    )
    def test_unsupported_shapes_raise(self, query):
        """The restriction the paper contrasts against (approach 3)."""
        graph = chain(3)
        with pytest.raises(UnsupportedQueryError):
            reachability_eval.evaluate(graph, parse(query))

    def test_shape_detection(self):
        assert reachability_eval.supported_shape(parse("a*")) == (Step("a"), True)
        assert reachability_eval.supported_shape(parse("a+")) == (Step("a"), False)
        assert reachability_eval.supported_shape(parse("a/b")) is None
