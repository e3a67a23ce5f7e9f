"""Tests for graph statistics, including the paths_k machinery."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.graph import stats
from repro.graph.examples import figure1_graph
from repro.graph.generators import chain, cycle
from repro.graph.graph import Graph
from tests.strategies import graphs


class TestPathsK:
    def test_paths_0_is_identity(self):
        graph = chain(3)
        assert stats.count_paths_k(graph, 0) == graph.node_count

    def test_paths_k_includes_both_directions(self):
        graph = Graph.from_edges([("x", "a", "y")])
        # (x,x),(y,y) 0-paths; (x,y),(y,x) 1-paths (either direction).
        assert stats.count_paths_k(graph, 1) == 4

    def test_paths_k_chain(self):
        graph = chain(3)  # n0-n1-n2-n3 undirected line
        # k=1: 4 self + 3 edges * 2 directions = 10
        assert stats.count_paths_k(graph, 1) == 10
        # k=2: additionally (n0,n2),(n1,n3) both directions -> 14
        assert stats.count_paths_k(graph, 2) == 14
        # k=3: all 16 ordered pairs reachable
        assert stats.count_paths_k(graph, 3) == 16

    def test_paths_k_monotone_in_k(self):
        graph = figure1_graph()
        counts = [stats.count_paths_k(graph, k) for k in range(4)]
        assert counts == sorted(counts)

    def test_paths_k_from_is_bfs_ball(self):
        graph = chain(4)
        source = graph.node_id("n0")
        ball = stats.paths_k_from(graph, source, 2)
        names = {graph.node_name(node) for node in ball}
        assert names == {"n0", "n1", "n2"}

    def test_paths_k_pairs_matches_count(self):
        graph = figure1_graph()
        pairs = list(stats.paths_k_pairs(graph, 2))
        assert len(pairs) == stats.count_paths_k(graph, 2)
        assert len(set(pairs)) == len(pairs)

    def test_negative_k_rejected(self):
        graph = chain(2)
        with pytest.raises(ValidationError):
            stats.paths_k_from(graph, 0, -1)


def _reference_ball(graph: Graph, source: int, k: int) -> set[int]:
    """The node-at-a-time BFS ``paths_k_from`` used to be."""
    seen = {source}
    frontier = deque([(source, 0)])
    while frontier:
        node, depth = frontier.popleft()
        if depth == k:
            continue
        for neighbor in graph.undirected_neighbors(node):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append((neighbor, depth + 1))
    return seen


class TestPathsKSizes:
    @settings(max_examples=40, deadline=None)
    @given(graph=graphs(), k=st.integers(min_value=0, max_value=3))
    def test_level_expansion_matches_reference_bfs(self, graph, k):
        sizes = stats.paths_k_sizes(graph, k)
        assert list(sizes) == list(graph.node_ids())
        for node in graph.node_ids():
            ball = _reference_ball(graph, node, k)
            assert stats.paths_k_from(graph, node, k) == ball
            assert sizes[node] == len(ball)
        assert stats.count_paths_k(graph, k) == sum(sizes.values())

    def test_around_sizes_the_k_minus_1_neighbourhood(self):
        graph = chain(6)  # n0-n1-...-n6
        n3 = graph.node_id("n3")
        near = stats.paths_k_sizes(graph, 2, around=[n3])
        names = {graph.node_name(node) for node in near}
        assert names == {"n2", "n3", "n4"}  # within k-1 = 1 hop
        everywhere = stats.paths_k_sizes(graph, 2)
        assert all(near[node] == everywhere[node] for node in near)

    @settings(max_examples=40, deadline=None)
    @given(
        graph=graphs(),
        k=st.integers(min_value=1, max_value=3),
        edge=st.tuples(
            st.integers(min_value=0, max_value=7),
            st.sampled_from("abc"),
            st.integers(min_value=0, max_value=7),
        ),
    )
    def test_sizes_away_from_a_changed_edge_do_not_move(self, graph, k, edge):
        """The locality argument: only ``around`` sources can change."""
        before = stats.paths_k_sizes(graph, k)
        source, label, target = (f"n{edge[0]}", edge[1], f"n{edge[2]}")
        if not graph.remove_edge(source, label, target):
            graph.add_edge(source, label, target)
        ends = [graph.node_id(source), graph.node_id(target)]
        moved = stats.paths_k_sizes(graph, k, around=ends)
        after = stats.paths_k_sizes(graph, k)
        for node, size in after.items():
            assert size == moved.get(node, before.get(node))


class TestStarBound:
    def test_empty_graph(self):
        assert stats.star_bound(Graph()) == 0

    def test_matches_node_count_minus_one(self):
        assert stats.star_bound(chain(4)) == 4

    def test_star_bound_is_sufficient_on_cycle(self):
        """R* == R^{0,n(G)} — Section 2.2's observation, checked directly."""
        from repro.rpq.parser import parse
        from repro.rpq.semantics import eval_ast

        graph = cycle(5)
        bound = stats.star_bound(graph)
        star_answer = eval_ast(graph, parse("next*"))
        bounded_answer = eval_ast(graph, parse(f"next{{0,{bound}}}"))
        assert star_answer == bounded_answer


class TestSummaries:
    def test_label_frequencies(self):
        graph = Graph.from_edges([("x", "a", "y"), ("y", "a", "z"), ("x", "b", "z")])
        assert stats.label_frequencies(graph) == {"a": 2, "b": 1}

    def test_degree_summary(self):
        graph = Graph.from_edges([("x", "a", "y"), ("x", "a", "z")])
        summary = stats.out_degree_summary(graph)
        assert summary.maximum == 2
        assert summary.minimum == 0
        assert summary.mean == pytest.approx(2 / 3)

    def test_degree_summary_empty_graph(self):
        summary = stats.out_degree_summary(Graph())
        assert (summary.minimum, summary.maximum, summary.mean) == (0, 0, 0.0)

    def test_degree_histogram_direction_validation(self):
        with pytest.raises(ValidationError):
            stats.degree_histogram(Graph(), "sideways")

    def test_summarize_format_mentions_everything(self):
        graph = figure1_graph()
        text = stats.summarize(graph).format()
        assert "nodes:  9" in text
        assert "knows" in text
        assert "out-degree" in text
