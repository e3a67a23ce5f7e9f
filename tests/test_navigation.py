"""Anchored reads: ``from(v):`` queries, ``query_from`` and ``query_pair``.

An anchor is not a second evaluator.  The plan is the unanchored
query's; execution pins the leftmost scan of every join chain to
``I(p, v)`` on the shard owning ``v`` (the way a scatter slice pins it
to a shard), so every answer here must equal the reference oracle's
answer restricted to pairs starting at ``v``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GraphDatabase
from repro.config import ServiceConfig
from repro.engine.executor import evaluate_ast
from repro.engine.planner import Strategy
from repro.errors import ParseError, UnknownNodeError, ValidationError
from repro.faults import FaultPlan, FaultRule, armed
from repro.graph.examples import figure1_graph
from repro.graph.generators import chain
from repro.rpq.parser import parse, parse_query
from repro.rpq.semantics import eval_ast
from repro.sharding import ShardedGraph

from tests.evaluators import answer, evaluate
from tests.strategies import graphs, rpq_asts

STRATEGIES = ("naive", "semi-naive", "minsupport", "minjoin")


def restricted(graph, node, source: int) -> set[int]:
    """The oracle: targets of the full answer's pairs starting at ``source``."""
    return {b for a, b in eval_ast(graph, node) if a == source}


def anchored_targets(graph, node, source: int, index, statistics) -> set[int]:
    report = evaluate_ast(
        node, index, graph, statistics, Strategy.MIN_SUPPORT, source=source
    )
    assert all(found == source for found, _ in report.relation)
    return {target for _, target in report.relation}


@pytest.fixture(scope="module")
def setup():
    graph = figure1_graph()
    index = ShardedGraph.build(graph, k=2, shards=1)
    return graph, index, index.merged_statistics()


class TestTargetsOfPath:
    def test_short_path(self, setup):
        graph, index, stats = setup
        node = parse("knows/worksFor")
        for source in graph.node_ids():
            assert anchored_targets(graph, node, source, index, stats) == (
                restricted(graph, node, source)
            )

    def test_long_path_chunked(self, setup):
        # Longer than k: the pinned leftmost scan joins global scans.
        graph, index, stats = setup
        node = parse("knows/knows/worksFor/knows")
        for source in graph.node_ids():
            assert anchored_targets(graph, node, source, index, stats) == (
                restricted(graph, node, source)
            )


class TestEvaluateFrom:
    QUERIES = [
        "knows",
        "knows/knows/worksFor",
        "supervisor/^worksFor",
        "(knows|worksFor){1,2}",
        "knows{0,2}",
        "knows*",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_matches_reference_restriction(self, setup, text):
        graph, index, stats = setup
        node = parse(text)
        for source in graph.node_ids():
            assert anchored_targets(graph, node, source, index, stats) == (
                restricted(graph, node, source)
            )

    def test_epsilon_includes_source(self, setup):
        graph, index, stats = setup
        source = graph.node_id("kim")
        assert anchored_targets(graph, parse("<eps>"), source, index, stats) == {
            source
        }

    @settings(max_examples=25, deadline=None)
    @given(graphs(max_nodes=5, max_edges=10), rpq_asts(max_leaves=3))
    def test_property_matches_reference(self, graph, node):
        index = ShardedGraph.build(graph, k=2, shards=1)
        stats = index.merged_statistics()
        for source in graph.node_ids():
            assert anchored_targets(graph, node, source, index, stats) == (
                restricted(graph, node, source)
            )


class TestEvaluatePair:
    def test_short_disjunct_membership(self, figure1_db):
        assert figure1_db.query_pair("kim", "sue", "supervisor/^worksFor")
        assert not figure1_db.query_pair("sue", "kim", "supervisor/^worksFor")

    def test_epsilon_pair(self, figure1_db):
        assert figure1_db.query_pair("kim", "kim", "knows{0,1}")

    def test_long_disjunct_frontier(self, figure1_db):
        graph = figure1_db.graph
        node = parse("knows/knows/worksFor/knows")
        source, target = next(iter(eval_ast(graph, node)))
        assert figure1_db.query_pair(
            graph.node_name(source), graph.node_name(target), node
        )

    @settings(max_examples=25, deadline=None)
    @given(graphs(max_nodes=5, max_edges=10), rpq_asts(max_leaves=3))
    def test_property_matches_reference(self, graph, node):
        database = GraphDatabase(graph, k=2)
        relation = eval_ast(graph, node)
        nodes = list(graph.node_ids())
        for source in nodes[:3]:
            for target in nodes[:3]:
                assert database.query_pair(
                    graph.node_name(source), graph.node_name(target), node
                ) == ((source, target) in relation)


class TestBfsTargets:
    def test_simple(self):
        database = GraphDatabase(chain(3), k=2)
        label = next(iter(database.graph.labels()))
        assert database.query_from("n0", f"{label}+") == {"n1", "n2", "n3"}
        assert database.query_from("n0", f"{label}*") == {"n0", "n1", "n2", "n3"}


class TestApiSurface:
    def test_query_from(self, figure1_db):
        targets = figure1_db.query_from("kim", "knows/worksFor")
        relation = figure1_db.query("knows/worksFor").pairs
        assert targets == frozenset(
            b for a, b in relation if a == "kim"
        )

    def test_query_from_star(self, figure1_db):
        targets = figure1_db.query_from("ada", "knows*")
        relation = evaluate(figure1_db.graph, "knows*")
        assert targets == frozenset(b for a, b in relation if a == "ada")

    def test_query_pair(self, figure1_db):
        assert figure1_db.query_pair("kim", "sue", "supervisor/^worksFor")
        assert not figure1_db.query_pair("sue", "kim", "supervisor/^worksFor")

    def test_unknown_source_raises(self, figure1_db):
        with pytest.raises(UnknownNodeError):
            figure1_db.query_from("ghost", "knows")


class TestAnchoredText:
    def test_parse_query_reads_the_anchor(self):
        node, anchor = parse_query("from(kim): knows/worksFor")
        assert anchor == "kim" and str(node) == "knows/worksFor"
        assert parse_query("knows/worksFor")[1] is None
        # A label named "from" is still a label.
        assert parse_query("from/knows")[1] is None

    @pytest.mark.parametrize(
        "text, message",
        [
            ("from($v): knows", "a node name inside from"),
            ("from(kim) knows", "expected ':'"),
            ("knows/(worksFor", "unexpected end"),
        ],
    )
    def test_malformed_text_is_a_parse_error(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_query(text)

    @pytest.mark.parametrize("method", STRATEGIES + ("reference", "automaton"))
    def test_anchored_query_is_the_restricted_answer(self, figure1_db, method):
        full = answer(figure1_db, "(knows|worksFor){1,2}", method)
        result = figure1_db.query(
            "from(kim): (knows|worksFor){1,2}",
            method=method if method in STRATEGIES else "minsupport",
        )
        assert result.pairs == {pair for pair in full if pair[0] == "kim"}
        assert result.query == "from(kim): (knows|worksFor){1,2}"

    def test_anchored_answers_are_cached_like_any_query(self):
        database = GraphDatabase(figure1_graph(), k=2)
        first = database.query_from("kim", "knows/worksFor")
        hits = database.stats().cache.hits
        assert database.query_from("kim", "knows/worksFor") == first
        assert database.query("from(kim): knows/worksFor").cached
        assert database.stats().cache.hits == hits + 2
        # Another anchor is another answer, not a hit.
        assert not database.query("from(sue): knows/worksFor").cached

    def test_query_batch_takes_anchors(self, figure1_db):
        texts = ["from(kim): knows", "knows", "from(sue): knows", "from(kim): knows"]
        results = figure1_db.query_batch(texts, use_cache=False)
        full = figure1_db.query("knows").pairs
        for text, result in zip(texts, results):
            anchor = parse_query(text)[1]
            assert result.pairs == {
                pair for pair in full if anchor is None or pair[0] == anchor
            }
        assert results[0] is results[3]

    def test_query_from_refuses_an_anchored_query(self, figure1_db):
        with pytest.raises(ValidationError, match="already anchored"):
            figure1_db.query_from("kim", "from(sue): knows")

    def test_unknown_target_raises(self, figure1_db):
        with pytest.raises(UnknownNodeError):
            figure1_db.query_pair("kim", "ghost", "knows")

    def test_explain_names_the_anchor(self, figure1_db):
        text = figure1_db.explain("from(kim): knows/worksFor")
        assert "anchor: kim" in text
        assert text.replace("anchor: kim (leftmost scans read I(p, kim))\n", "") == (
            figure1_db.explain("knows/worksFor")
        )


class TestAnchorPinsTheOwnerShard:
    def test_only_the_owner_shard_runs(self):
        graph = figure1_graph()
        database = GraphDatabase(graph, k=2, config=ServiceConfig(shards=3))
        oracle = GraphDatabase(graph, k=2)
        for name in graph.node_names():
            query = f"from({name}): (knows|supervisor)/worksFor"
            result = database.query(query, use_cache=False)
            assert result.pairs == oracle.query(query, use_cache=False).pairs
            report = result.report
            assert report.shards_scanned + report.shards_pruned == 1

    def test_the_owner_shard_down_is_typed_or_labelled(self):
        graph = figure1_graph()
        database = GraphDatabase(graph, k=2, config=ServiceConfig(shards=3))
        index = database.index
        owner = index.owner(graph.node_id("kim"))
        # Every join's right side is a global scan; fail the owner's.
        plan = FaultPlan([FaultRule("shard.scan", "transient", shard=owner)], seed=1)
        full = database.query("knows/knows/worksFor", use_cache=False).pairs
        with armed(plan):
            result = database.query(
                "from(kim): knows/knows/worksFor", degraded=True, use_cache=False
            )
        assert result.report.partial and result.pairs <= full


@settings(max_examples=20, deadline=None)
@given(
    graph=graphs(max_nodes=6, max_edges=12),
    node=rpq_asts(max_leaves=3),
    shards=st.sampled_from((1, 2, 4)),
    backend=st.sampled_from(("memory", "compressed")),
    method=st.sampled_from(STRATEGIES),
)
def test_anchored_equals_the_restricted_oracle(graph, node, shards, backend, method):
    """Every anchor, shard count, backend and strategy: the restricted oracle."""
    database = GraphDatabase(
        graph, k=2, config=ServiceConfig(shards=shards, backend=backend)
    )
    full = eval_ast(graph, node)
    for source in graph.node_ids():
        name = graph.node_name(source)
        result = database.query(f"from({name}): {node}", method=method)
        assert result.pairs == {
            (name, graph.node_name(b)) for a, b in full if a == source
        }
