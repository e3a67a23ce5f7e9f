"""Tests for the executor and the hybrid (fixpoint) fallback."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from repro import GraphDatabase, csr
from repro.config import ServiceConfig
from repro.graph.examples import figure1_graph
from repro.graph.generators import cycle
from repro.engine import executor
from repro.engine.executor import evaluate_ast, prepare_ast
from repro.engine.planner import Strategy
from repro.indexes.pathindex import PathIndex
from repro.indexes.statistics import ExactStatistics
from repro.rpq.parser import parse
from repro.rpq.rewrite import normalize
from repro.rpq.semantics import eval_ast as reference_eval, eval_query


@pytest.fixture(scope="module")
def setup():
    graph = figure1_graph()
    index = PathIndex.build(graph, k=2)
    stats = ExactStatistics.from_index(index)
    return graph, index, stats


class TestNormalFormExecution:
    def test_answers_match_reference(self, setup):
        graph, index, stats = setup
        node = parse("knows/knows/worksFor")
        report = evaluate_ast(node, index, graph, stats, Strategy.MIN_SUPPORT)
        assert set(report.pairs) == reference_eval(graph, node)
        assert not report.used_fallback
        assert report.plan is not None

    def test_timings_populated(self, setup):
        graph, index, stats = setup
        node = parse("knows/worksFor")
        report = evaluate_ast(node, index, graph, stats, Strategy.SEMI_NAIVE)
        assert report.planning_seconds >= 0.0
        assert report.execution_seconds >= 0.0
        assert report.total_seconds == pytest.approx(
            report.planning_seconds + report.execution_seconds
        )


class TestEvaluateAst:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_bounded_queries_avoid_fallback(self, setup, strategy):
        graph, index, stats = setup
        node = parse("(knows|worksFor){1,2}")
        report = evaluate_ast(node, index, graph, stats, strategy)
        assert not report.used_fallback
        assert set(report.pairs) == reference_eval(graph, node)

    def test_small_star_expands_without_fallback(self, setup):
        """n(G)=8 here, so supervisor* expands to 9 powers — still planable."""
        graph, index, stats = setup
        node = parse("supervisor*")
        report = evaluate_ast(node, index, graph, stats, Strategy.SEMI_NAIVE)
        assert set(report.pairs) == reference_eval(graph, node)

    def test_fallback_triggers_on_expansion_blowup(self, setup):
        graph, index, stats = setup
        node = parse("(knows|worksFor|supervisor)*")
        report = evaluate_ast(
            node, index, graph, stats, Strategy.MIN_SUPPORT, max_disjuncts=50
        )
        assert report.used_fallback
        assert set(report.pairs) == reference_eval(graph, node)

    def test_fallback_star_on_cycle(self):
        graph = cycle(6)
        index = PathIndex.build(graph, k=2)
        stats = ExactStatistics.from_index(index)
        node = parse("next*")
        report = evaluate_ast(
            node, index, graph, stats, Strategy.SEMI_NAIVE, max_disjuncts=3
        )
        assert report.used_fallback
        assert set(report.pairs) == reference_eval(graph, node)

    def test_fallback_concat_and_union_mix(self, setup):
        graph, index, stats = setup
        node = parse("knows*/worksFor | supervisor")
        report = evaluate_ast(
            node, index, graph, stats, Strategy.MIN_JOIN, max_disjuncts=4
        )
        assert set(report.pairs) == reference_eval(graph, node)

    def test_fallback_open_repeat(self, setup):
        graph, index, stats = setup
        node = parse("knows{2,}")
        report = evaluate_ast(
            node, index, graph, stats, Strategy.SEMI_NAIVE, max_disjuncts=2
        )
        assert set(report.pairs) == reference_eval(graph, node)

    def test_fallback_epsilon_and_inverse(self, setup):
        graph, index, stats = setup
        node = parse("^(knows*)|<eps>")
        report = evaluate_ast(
            node, index, graph, stats, Strategy.SEMI_NAIVE, max_disjuncts=2
        )
        assert set(report.pairs) == reference_eval(graph, node)


class TestRefusedRoot:
    """A root the rewriter refuses is sized once; only its operands are planned."""

    @pytest.fixture(scope="class")
    def ring(self):
        graph = cycle(80)  # n(G) = 79: next* would unroll to 3,160 steps
        index = PathIndex.build(graph, k=2)
        return graph, index, ExactStatistics.from_index(index)

    @pytest.mark.parametrize(
        "text, normalized, memo_misses",
        [
            ("next*", ["next*", "next"], 3),
            ("(next/next)+", ["(next/next){1,}", "next/next"], 3),
            ("^(next*)/next", ["^(next*)/next", "^next*", "^next", "next"], 6),
        ],
    )
    def test_normalize_runs_once_per_node(
        self, ring, monkeypatch, text, normalized, memo_misses
    ):
        graph, index, stats = ring
        seen = []

        def recording(node, *budgets):
            seen.append(str(node))
            return normalize(node, *budgets)

        monkeypatch.setattr(executor, "normalize", recording)
        node = parse(text)
        report = evaluate_ast(node, index, graph, stats, Strategy.MIN_SUPPORT)
        assert seen == normalized
        assert report.used_fallback and report.plan is None
        assert set(report.pairs) == reference_eval(graph, node)
        # The memo's traffic is what it was when the root was sized twice.
        assert (report.scan_memo_hits, report.scan_memo_misses) == (0, memo_misses)

    def test_preparing_on_a_large_graph_allocates_under_a_mebibyte(self):
        graph = cycle(5000, label="a")
        index = PathIndex.build(graph, k=1)
        stats = ExactStatistics.from_index(index)
        node = parse("(a/b)+")
        tracemalloc.start()
        try:
            prepared = prepare_ast(node, index, graph, stats, Strategy.MIN_SUPPORT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prepared.costed is None
        assert peak < 2**20


class _CountingIndex:
    """A PathIndex proxy counting how often each leaf scan really runs."""

    shard_count = 1

    def __init__(self, inner):
        self._inner = inner
        self.scans = 0

    @property
    def k(self):
        return self._inner.k

    def scan(self, path):
        self.scans += 1
        return self._inner.scan(path)

    def scan_swapped(self, path):
        self.scans += 1
        return self._inner.scan_swapped(path)


class TestScanMemo:
    """The per-execution memo over plan (and hybrid AST) subtrees."""

    def test_union_of_disjuncts_scans_each_path_once(self, setup):
        """knows{1,3} plans the knows scan under every disjunct; with
        the memo each distinct (path, direction) hits the index once."""
        graph, index, stats = setup
        counting = _CountingIndex(index)
        node = parse("knows{1,3}")
        report = evaluate_ast(node, counting, graph, stats, Strategy.NAIVE)
        distinct_scans = {
            (plan.path, plan.via_inverse)
            for plan in _walk_plans(report.plan.plan)
        }
        assert counting.scans == len(distinct_scans)
        assert report.scan_memo_hits > 0
        assert report.scan_memo_misses > 0
        assert set(report.pairs) == reference_eval(graph, node)

    def test_counters_zero_without_sharing(self, setup):
        graph, index, stats = setup
        node = parse("knows/worksFor")
        report = evaluate_ast(node, index, graph, stats, Strategy.SEMI_NAIVE)
        assert report.scan_memo_hits == 0
        assert report.scan_memo_misses > 0

    def test_fallback_shares_repeated_subtrees(self, setup):
        """The hybrid fallback memoizes repeated AST subtrees: the same
        starred base appears under both union branches."""
        graph, index, stats = setup
        node = parse("(knows|worksFor)*/supervisor | (knows|worksFor)*")
        report = evaluate_ast(
            node, index, graph, stats, Strategy.SEMI_NAIVE, max_disjuncts=4
        )
        assert report.used_fallback
        assert report.scan_memo_hits > 0
        assert set(report.pairs) == reference_eval(graph, node)


class TestConcatenationIntoClosure:
    """``R / S*`` folds ``R`` into the closure of ``S``
    (:func:`repro.csr.partitioned_closure` with ``left=``), unsharded and
    scattered, on a graph large enough (90 nodes) that the rewriter
    refuses every unbounded closure."""

    @pytest.fixture(scope="class", params=[1, 3], ids=["shards1", "shards3"])
    def database(self, request):
        rng = random.Random(5)
        edges = {
            (f"n{rng.randrange(90)}", rng.choice("abc"), f"n{rng.randrange(90)}")
            for _ in range(300)
        }
        config = ServiceConfig(k=2, shards=request.param)
        return GraphDatabase.from_edges(sorted(edges), config=config)

    @pytest.mark.parametrize("text", ["a/b*", "c/(a|b)*", "a/b*/c", "b/a{2,}"])
    def test_matches_oracle(self, database, text):
        result = database.query(text, use_cache=False)
        assert result.report.used_fallback
        assert set(result.pairs) == eval_query(database.graph, text)

    def test_anchored_read_is_the_restricted_answer(self, database):
        everything = eval_query(database.graph, "a/b*")
        for source in ("n0", "n1", "n17", "n42"):
            result = database.query(f"from({source}): a/b*", use_cache=False)
            assert set(result.pairs) == {
                pair for pair in everything if pair[0] == source
            }

    def test_a_repeated_closure_closes_once(self, database, monkeypatch):
        calls = []
        original = csr.closure_bitsets
        monkeypatch.setattr(
            csr,
            "closure_bitsets",
            lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs),
        )
        text = "a/b* | c/b* | b{2,}"
        result = database.query(text, use_cache=False)
        assert len(calls) == 1
        assert set(result.pairs) == eval_query(database.graph, text)


    @pytest.mark.parametrize("shards", [1, 3])
    def test_a_closure_the_rewriter_accepts_is_planned(self, shards, monkeypatch):
        """On 10 nodes ``b*`` unrolls, and only the multiplied disjunct
        count refuses the concatenation: ``b*`` runs through its index
        plan, as ``explain`` reports, and not through the closure."""
        rng = random.Random(3)
        edges = {
            (f"n{rng.randrange(10)}", rng.choice("abc"), f"n{rng.randrange(10)}")
            for _ in range(30)
        }
        config = ServiceConfig(k=2, shards=shards)
        database = GraphDatabase.from_edges(sorted(edges), config=config)
        text = "(a|c){1,8}/b*"
        explained = database.explain(text)
        assert "route: hybrid" in explained
        assert "operand: b*" in explained
        closures = []
        original = csr.partitioned_closure
        monkeypatch.setattr(
            csr,
            "partitioned_closure",
            lambda *args, **kwargs: closures.append(1) or original(*args, **kwargs),
        )
        result = database.query(text, use_cache=False)
        assert result.report.used_fallback
        assert not closures
        assert set(result.pairs) == eval_query(database.graph, text)


class TestClosureIntoRightOperand:
    """``S* / R`` hands ``R`` to the closure as its right operand
    (:func:`repro.csr.partitioned_closure` with ``right=``): one seeded
    pass, no join of the closure's pairs, unsharded and scattered, on the
    same 90-node graph the rewriter refuses every unbounded closure on."""

    @pytest.fixture(scope="class", params=[1, 3], ids=["shards1", "shards3"])
    def database(self, request):
        rng = random.Random(5)
        edges = {
            (f"n{rng.randrange(90)}", rng.choice("abc"), f"n{rng.randrange(90)}")
            for _ in range(300)
        }
        config = ServiceConfig(k=2, shards=request.param)
        return GraphDatabase.from_edges(sorted(edges), config=config)

    @pytest.mark.parametrize("text", ["b*/c", "(a|b)*/c", "a/b*/c", "b{2,}/c/a"])
    def test_matches_oracle(self, database, text, monkeypatch):
        closures = []
        original = csr.partitioned_closure
        monkeypatch.setattr(
            csr,
            "partitioned_closure",
            lambda *args, **kwargs: closures.append(kwargs["right"]) or original(*args, **kwargs),
        )
        result = database.query(text, use_cache=False)
        assert result.report.used_fallback
        assert len(closures) == 1 and closures[0] is not None
        assert set(result.pairs) == eval_query(database.graph, text)

    @pytest.mark.parametrize("text", ["b*/c", "(a|b)*/c"])
    def test_no_join_follows_the_closure(self, database, text, monkeypatch):
        joins = []
        original = executor.rel.compose
        monkeypatch.setattr(
            executor.rel, "compose", lambda *args: joins.append(1) or original(*args)
        )
        result = database.query(text, use_cache=False)
        assert not joins
        assert set(result.pairs) == eval_query(database.graph, text)

    def test_anchored_read_is_the_restricted_answer(self, database):
        everything = eval_query(database.graph, "b*/c")
        for source in ("n0", "n1", "n17", "n42"):
            result = database.query(f"from({source}): b*/c", use_cache=False)
            assert set(result.pairs) == {
                pair for pair in everything if pair[0] == source
            }

    def test_a_closure_next_to_its_folded_form_closes_once(self, database, monkeypatch):
        """``b*/c | b*``: the seeded pass and the plain one share the
        compiled operand, which is evaluated once."""
        calls = []
        original = csr.closure_bitsets
        monkeypatch.setattr(
            csr,
            "closure_bitsets",
            lambda *args, **kwargs: calls.append(kwargs.get("seeds")) or original(*args, **kwargs),
        )
        text = "b*/c | b*"
        result = database.query(text, use_cache=False)
        assert len(calls) == 2 and sum(seeds is None for seeds in calls) == 1
        assert result.report.scan_memo_hits > 0
        assert set(result.pairs) == eval_query(database.graph, text)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_a_closure_the_rewriter_accepts_is_planned(self, shards, monkeypatch):
        """On 10 nodes ``b*`` unrolls, and only the multiplied disjunct
        count refuses the concatenation: ``b*`` runs through its index
        plan, as ``explain`` reports, and no closure runs."""
        rng = random.Random(3)
        edges = {
            (f"n{rng.randrange(10)}", rng.choice("abc"), f"n{rng.randrange(10)}")
            for _ in range(30)
        }
        config = ServiceConfig(k=2, shards=shards)
        database = GraphDatabase.from_edges(sorted(edges), config=config)
        text = "b*/(a|c){1,8}"
        explained = database.explain(text)
        assert "route: hybrid" in explained
        assert "operand: b*" in explained
        closures = []
        original = csr.partitioned_closure
        monkeypatch.setattr(
            csr,
            "partitioned_closure",
            lambda *args, **kwargs: closures.append(1) or original(*args, **kwargs),
        )
        result = database.query(text, use_cache=False)
        assert result.report.used_fallback
        assert not closures
        assert set(result.pairs) == eval_query(database.graph, text)


def _walk_plans(plan):
    from repro.engine.plan import IndexScanPlan

    if isinstance(plan, IndexScanPlan):
        yield plan
    for child in plan.children():
        yield from _walk_plans(child)
