"""The database's one plan cache: every read path plans a query once.

``query()``, ``query_batch()`` and prepared runs resolve their plan
through :class:`repro.engine.prepared.PlanCache`: a parse memo (text →
AST) and one plan per ``(AST, strategy, statistics flavour, disjunct
budget)`` stamped with ``(graph version, statistics epoch)``.  The
governing property is that reuse is invisible in the answers: a read
interleaved with writes that add nodes (and so raise the star bound
the rewriter unrolls to) must still equal the reference semantics at
the version it reports.  Around it sit the receipts — planner calls
counted by a monkeypatched ``prepare_ast`` — and the bounds.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.api import GraphDatabase, ServiceConfig
from repro.client import Client
from repro.engine import prepared as prepared_module
from repro.errors import ParseError
from repro.graph.examples import FIGURE1_EDGES
from repro.rpq.semantics import eval_query
from repro.serve.server import serve_in_thread
from repro.write.mutation import Mutation

from tests.strategies import graphs


@pytest.fixture
def planner_calls(monkeypatch):
    """A list that grows by one per ``prepare_ast`` call the API makes."""
    calls = []
    original = api.prepare_ast

    def counting(node, *args, **kwargs):
        calls.append(str(node))
        return original(node, *args, **kwargs)

    monkeypatch.setattr(api, "prepare_ast", counting)
    return calls


def figure1(shards: int = 1) -> GraphDatabase:
    return GraphDatabase.from_edges(
        FIGURE1_EDGES, k=2, config=ServiceConfig(shards=shards)
    )


# -- reuse ---------------------------------------------------------------------


class TestPlannedOnce:
    def test_repeated_query_plans_once(self, planner_calls):
        database = figure1()
        answers = {
            database.query("supervisor/^worksFor", use_cache=False).pairs
            for _ in range(5)
        }
        assert len(answers) == 1
        assert planner_calls == ["supervisor/^worksFor"]
        prepared = database.stats().prepared
        assert (prepared.hits, prepared.misses, prepared.plans_computed) == (4, 1, 1)

    def test_repeated_text_parses_once(self, monkeypatch):
        database = figure1()
        calls = []
        original = prepared_module.parse_query

        def counting(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(prepared_module, "parse_query", counting)
        for _ in range(3):
            database.query("knows/worksFor", use_cache=False)
        assert calls == ["knows/worksFor"]

    def test_query_batch_of_repeats_plans_once(self, planner_calls):
        database = figure1()
        texts = ["supervisor/^worksFor", "supervisor/^worksFor", "knows"]
        first = database.query_batch(texts, use_cache=False)
        second = database.query_batch(texts, use_cache=False)
        assert [r.pairs for r in first] == [r.pairs for r in second]
        assert sorted(planner_calls) == ["knows", "supervisor/^worksFor"]

    def test_batch_and_query_share_plans(self, planner_calls):
        database = figure1()
        database.query_batch(["knows/worksFor"], use_cache=False)
        database.query("knows/worksFor", use_cache=False)
        assert planner_calls == ["knows/worksFor"]

    def test_reused_plan_reports_no_planning_time(self):
        database = figure1()
        first = database.query("knows/worksFor", use_cache=False)
        again = database.query("knows/worksFor", use_cache=False)
        assert first.report.planning_seconds > 0.0
        assert again.report.planning_seconds == 0.0
        assert again.report.plan == first.report.plan

    def test_use_cache_governs_answers_not_plans(self, planner_calls):
        database = figure1()
        database.query("knows/worksFor")
        hit = database.query("knows/worksFor")
        assert hit.cached
        database.query("knows/worksFor", use_cache=False)
        assert planner_calls == ["knows/worksFor"]

    def test_cache_clear_drops_plans(self, planner_calls):
        database = figure1()
        database.query("knows/worksFor", use_cache=False)
        database.cache_clear()
        assert database._plan_cache.held() == (0, 0)
        database.query("knows/worksFor", use_cache=False)
        assert planner_calls == ["knows/worksFor"] * 2


class TestKeys:
    @pytest.mark.parametrize(
        "variant",
        [
            {"method": "minjoin"},
            {"use_exact_statistics": True},
            {"max_disjuncts": 7},
        ],
        ids=["strategy", "statistics", "max_disjuncts"],
    )
    def test_each_setting_gets_its_own_plan(self, planner_calls, variant):
        database = figure1()
        base = database.query("knows/worksFor", use_cache=False)
        other = database.query("knows/worksFor", use_cache=False, **variant)
        assert other.pairs == base.pairs
        assert len(planner_calls) == 2

    def test_anchored_query_shares_the_unanchored_plan(self, planner_calls):
        database = figure1()
        whole = database.query("knows/worksFor", use_cache=False)
        anchored = database.query("from(kim): knows/worksFor", use_cache=False)
        assert planner_calls == ["knows/worksFor"]
        assert set(anchored.pairs) == {p for p in whole.pairs if p[0] == "kim"}

    def test_prepared_runs_share_query_plans(self, planner_calls):
        database = figure1()
        database.query("knows{1,2}", use_cache=False)
        statement = database.prepare("from($v): knows{1,$n}")
        statement.run(v="kim", n=2)
        statement.run(v="sue", n=2)
        assert planner_calls == ["knows{1,2}"]


class TestReplans:
    def test_apply_forces_a_replan(self, planner_calls):
        database = figure1()
        database.query("knows/worksFor", use_cache=False)
        result = database.apply(Mutation.add("kim", "knows", "ann"))
        assert result.mode == "patch"
        database.query("knows/worksFor", use_cache=False)
        assert len(planner_calls) == 2
        assert database.stats().prepared.invalidations == 1

    def test_build_index_forces_a_replan(self, planner_calls):
        database = figure1()
        database.query("knows/worksFor", use_cache=False)
        version = database.graph.version
        database.build_index()
        assert database.graph.version == version  # only the epoch moved
        database.query("knows/worksFor", use_cache=False)
        assert len(planner_calls) == 2

    def test_rebalance_forces_a_replan(self, planner_calls):
        rng = random.Random(3)
        names = [f"n{i}" for i in range(40)]
        edges = [("n0", "a", name) for name in names] + [
            (rng.choice(names), rng.choice("ab"), rng.choice(names)) for _ in range(40)
        ]
        database = GraphDatabase.from_edges(edges, config=ServiceConfig(k=2, shards=4))
        before = database.query("a/b", use_cache=False)
        assert database.rebalance(skew_threshold=0.0, candidates=8)
        after = database.query("a/b", use_cache=False)
        assert after.pairs == before.pairs
        assert planner_calls == ["a/b", "a/b"]

    def test_write_adding_nodes_replans_the_star(self):
        # a* unrolls to a{0, |V|-1}: a plan kept across a write that
        # lengthens the chain would miss the new longest path.
        database = GraphDatabase.from_edges([("n0", "a", "n1")], k=2)
        assert ("n0", "n1") in database.query("a*", use_cache=False).pairs
        database.apply([Mutation.add("n1", "a", "m0"), Mutation.add("m0", "a", "m1")])
        pairs = database.query("a*", use_cache=False).pairs
        assert ("n0", "m1") in pairs
        assert pairs == eval_query(database.graph, "a*")


class TestBounds:
    def test_parse_errors_are_never_memoised(self):
        database = figure1()
        for _ in range(3):
            with pytest.raises(ParseError):
                database.query("knows/(worksFor", use_cache=False)
        assert database._plan_cache.held() == (0, 0)

    def test_distinct_texts_stay_bounded(self):
        database = GraphDatabase.from_edges([("n0", "a", "n1"), ("n1", "b", "n2")], k=2)
        # Labels the graph lacks: every text is a distinct, cheap plan.
        texts = [f"a/x{i}" for i in range(10_000)]
        for start in range(0, len(texts), 1000):
            database.query_batch(texts[start : start + 1000], use_cache=False)
        texts_held, plans_held = database._plan_cache.held()
        limit = prepared_module.PLAN_CACHE_MAX
        assert texts_held <= limit and plans_held <= limit
        assert database.stats().prepared.plans_computed == len(texts)

    def test_http_prepared_templates_stay_bounded(self, monkeypatch):
        # The front door keeps no statement per template: distinct
        # templates past the cap leave only the cap's worth of plans.
        monkeypatch.setattr(prepared_module, "PLAN_CACHE_MAX", 8)
        database = figure1()
        handle = serve_in_thread(database)
        client = Client(port=handle.port)
        try:
            for i in range(2 * prepared_module.PLAN_CACHE_MAX):
                steps = "/".join(("knows", "worksFor")[int(bit)] for bit in f"{i:04b}")
                client.prepared(f"supervisor{{1,$n}}/{steps}", params={"n": 2})
        finally:
            client.close()
            handle.stop()
        assert database._plan_cache.held()[1] <= prepared_module.PLAN_CACHE_MAX
        assert database.stats().prepared.plans_computed == 16


class TestConcurrentReaders:
    def test_counters_lose_no_lookup(self, monkeypatch):
        # More threads than cores and a short switch interval: a lost
        # update on the LRUs or the counters breaks the sums below.
        monkeypatch.setattr(prepared_module, "PLAN_CACHE_MAX", 4)
        database = figure1()
        texts = [f"knows{{1,{n}}}" for n in range(1, 7)]
        threads, rounds = 8, 30
        errors = []

        def read():
            try:
                for _ in range(rounds):
                    for text in texts:
                        database.query(text, use_cache=False)
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=read) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(worker.is_alive() for worker in workers)
        prepared = database.stats().prepared
        assert prepared.hits + prepared.misses == threads * rounds * len(texts)
        assert prepared.plans_computed == prepared.misses
        assert database._plan_cache.held() == (4, 4)


# -- the governing property ----------------------------------------------------

QUERIES = ("a*", "(a|^b)*", "a/b", "(a|b){1,3}", "^a*/b")

#: Node names a write may use: some the graph has, some it gains.
NAMES = ("n0", "n1", "n2", "m0", "m1", "m2", "m3")


@st.composite
def _graphs(draw):
    """A graph of one to three nodes with both labels, so a write
    patches in place (no new alphabet to rebuild for) and a write
    through a new node soon outgrows the star bound planned at the
    start."""
    graph = draw(graphs(max_nodes=3, max_edges=3, labels=("a", "b")))
    graph.add_edge("n0", "a", "n0")
    graph.add_edge("n0", "b", "n0")
    return graph


def _writes():
    write = st.tuples(
        st.sampled_from(("add", "add", "remove")),
        st.sampled_from(NAMES),
        st.sampled_from("ab"),
        st.sampled_from(NAMES),
    )
    return st.lists(write, max_size=6)


class TestAnswersTrackWrites:
    @settings(max_examples=50, deadline=None)
    @given(_graphs(), _writes(), st.sampled_from([1, 2]))
    def test_interleaved_reads_equal_the_reference(self, graph, writes, shards):
        # Every query is read before the first write and after each
        # one, so each read may meet a plan made before the last write.
        database = GraphDatabase(graph, k=2, config=ServiceConfig(shards=shards))
        for write in [None, *writes]:
            if write is not None:
                kind, source, label, target = write
                make = Mutation.add if kind == "add" else Mutation.remove
                database.apply(make(source, label, target))
            for text in QUERIES:
                result = database.query(text, use_cache=False)
                assert result.version == database.graph.version
                assert result.pairs == eval_query(database.graph, text), text
