"""Tests for the GraphDatabase facade."""

from __future__ import annotations

import functools

import pytest

from repro.api import GraphDatabase, ServiceConfig
from repro.errors import (
    ParseError,
    QueryTimeoutError,
    StorageError,
    TransientError,
    ValidationError,
)
from repro.graph.examples import FIGURE1_EDGES
from repro.graph.io import save_csv, save_edgelist, save_json
from repro.graph.graph import Graph
from repro.rpq.parser import parse
from repro.rpq.semantics import eval_query
from repro.serve import CoordinatorDatabase
from repro.write import delta
from repro.write.mutation import Mutation
from repro_bench.reachability_eval import UnsupportedQueryError

from tests.evaluators import answer, evaluate


class TestConstruction:
    def test_from_edges(self):
        db = GraphDatabase.from_edges(FIGURE1_EDGES, k=2)
        assert db.graph.node_count == 9
        assert db.k == 2

    def test_lazy_build(self):
        db = GraphDatabase(Graph.from_edges(FIGURE1_EDGES), k=1, build=False)
        assert db._index is None
        _ = db.index  # triggers the build
        assert db._index is not None

    def test_empty_graph_opens(self):
        with GraphDatabase.from_edges([]) as db:
            assert len(db.query("a/b").pairs) == 0
            assert db.selectivity("a") == 0.0
            assert db.index.total_paths_k() == 0

    def test_k_validated(self):
        with pytest.raises(ValidationError):
            GraphDatabase(Graph(), k=0)

    @pytest.mark.parametrize("saver, suffix", [
        (save_edgelist, "g.tsv"),
        (save_json, "g.json"),
        (save_csv, "g.csv"),
    ])
    def test_from_file(self, tmp_path, saver, suffix):
        graph = Graph.from_edges(FIGURE1_EDGES)
        path = tmp_path / suffix
        saver(graph, path)
        db = GraphDatabase.from_file(path, k=1)
        assert db.graph.edge_count == graph.edge_count

    def test_from_file_unknown_extension(self, tmp_path):
        path = tmp_path / "graph.xml"
        path.write_text("<graph/>")
        with pytest.raises(ValidationError):
            GraphDatabase.from_file(path)

    def test_disk_backend_context_manager(self, tmp_path):
        with GraphDatabase(
            Graph.from_edges(FIGURE1_EDGES),
            k=1,
            config=ServiceConfig(backend="disk", index_path=tmp_path / "index.db"),
        ) as db:
            assert len(db.query("knows").pairs) == 9


class TestQueries:
    def test_query_returns_name_pairs(self, figure1_db):
        result = figure1_db.query("supervisor/^worksFor")
        assert result.pairs == frozenset({("kim", "sue")})
        assert ("kim", "sue") in result
        assert len(result) == 1

    def test_query_accepts_ast(self, figure1_db):
        result = figure1_db.query(parse("knows"))
        assert len(result.pairs) == 9

    def test_query_rejects_other_types(self, figure1_db):
        with pytest.raises(ValidationError):
            figure1_db.query(42)  # type: ignore[arg-type]

    def test_query_parse_error_propagates(self, figure1_db):
        with pytest.raises(ParseError):
            figure1_db.query("a//b")

    @pytest.mark.parametrize(
        "method",
        ["naive", "semi-naive", "minsupport", "minjoin",
         "automaton", "datalog", "reference"],
    )
    def test_all_methods_agree(self, figure1_db, method):
        expected = evaluate(figure1_db.graph, "knows/knows/worksFor")
        assert answer(figure1_db, "knows/knows/worksFor", method) == expected

    def test_reachability_method_on_supported_query(self, figure1_db):
        result = evaluate(figure1_db.graph, "knows*", "reachability")
        assert result == evaluate(figure1_db.graph, "knows*")

    def test_reachability_method_rejects_general_query(self, figure1_db):
        with pytest.raises(UnsupportedQueryError):
            evaluate(figure1_db.graph, "knows/worksFor", "reachability")

    def test_unknown_method_rejected(self, figure1_db):
        """Only Figure 2's strategies are methods; a baseline name is unknown."""
        from repro.errors import PlanningError

        for method in ("alchemy", "dfa", "automaton", "datalog", "reachability",
                       "reference"):
            with pytest.raises(PlanningError):
                figure1_db.query("knows", method=method)
            with pytest.raises(PlanningError):
                figure1_db.query_batch(["knows"], method=method)

    def test_exact_statistics_option(self, figure1_db):
        result = figure1_db.query(
            "knows/knows/worksFor", use_exact_statistics=True
        )
        assert result.pairs == evaluate(figure1_db.graph, "knows/knows/worksFor")

    def test_report_attached_for_index_methods(self, figure1_db):
        # The fixture is shared: another test may have cached this query,
        # and a cache hit carries no report.
        result = figure1_db.query("knows/worksFor", use_cache=False)
        assert result.report is not None
        assert result.seconds >= 0.0

    def test_star_query_via_fallback(self, figure1_db):
        result = figure1_db.query("(knows|worksFor)*", max_disjuncts=10)
        assert result.pairs == evaluate(figure1_db.graph, "(knows|worksFor)*")


class TestExplainAndStats:
    def test_explain_contains_plan(self, figure1_db_k3):
        text = figure1_db_k3.explain("knows/knows/worksFor/knows/worksFor")
        assert "strategy: minsupport" in text
        assert "IndexScan" in text
        assert "join" in text

    def test_explain_shows_disjuncts(self, figure1_db):
        text = figure1_db.explain("(knows|worksFor)/knows")
        assert "disjuncts: 2" in text

    def test_explain_bounded_query_has_no_route_line(self, figure1_db):
        text = figure1_db.explain("knows*")  # n(G) = 8: unrolls within budget
        assert text.splitlines()[2].startswith("disjuncts: 9")
        assert "route:" not in text

    def test_explain_names_the_hybrid_route(self):
        from repro.graph.generators import cycle

        database = GraphDatabase(cycle(80, label="a"), k=2)
        text = database.explain("c/(a|^a)*|(a/a)+")
        lines = text.splitlines()
        assert lines[0] == "query: c/(a|^a)*|(a/a){1,}"
        assert lines[2].startswith("route: hybrid — ")
        assert "past the" in lines[2]
        # One plan per bounded operand the closure evaluates, in order.
        assert [line for line in lines if line.startswith("operand: ")] == [
            "operand: c",
            "operand: a|^a",
            "operand: a/a",
        ]
        assert text.count("disjuncts: ") == 3
        assert "IndexScan[a/a]" in text

    def test_selectivity_small_for_rare_path(self, figure1_db):
        rare = figure1_db.selectivity("supervisor/knows")
        common = figure1_db.selectivity("knows")
        assert 0.0 <= rare
        assert rare < common

    def test_selectivity_rejects_non_path(self, figure1_db):
        with pytest.raises(ValidationError):
            figure1_db.selectivity("a|b")

    def test_normal_form(self, figure1_db):
        normal = figure1_db.normal_form("knows{0,1}")
        assert normal.has_epsilon
        assert len(normal.paths) == 1

    def test_summary(self, figure1_db):
        summary = figure1_db.summary()
        assert summary.nodes == 9
        assert summary.edges == 16

    def test_histogram_and_exact_stats_available(self, figure1_db):
        assert figure1_db.histogram.k == 2
        assert figure1_db.exact_statistics.counts == figure1_db.index.counts_by_path()
        assert figure1_db.index.total_paths_k() > 0

    def test_repr(self, figure1_db):
        assert "GraphDatabase(nodes=9" in repr(figure1_db)


class TestWitnessApi:
    def test_witness_for_answer_pair(self, figure1_db):
        witness = figure1_db.witness("kim", "sue", "supervisor/^worksFor")
        assert witness is not None
        assert witness.source == "kim" and witness.target == "sue"
        assert witness.length == 2

    def test_no_witness_for_non_answer(self, figure1_db):
        assert figure1_db.witness("sue", "kim", "supervisor") is None

    def test_witness_unknown_node(self, figure1_db):
        from repro.errors import UnknownNodeError

        with pytest.raises(UnknownNodeError):
            figure1_db.witness("ghost", "kim", "knows")
        with pytest.raises(UnknownNodeError):
            figure1_db.witness("kim", "liz", "from(ghost): supervisor")

    def test_witness_keeps_the_anchor(self):
        db = GraphDatabase.from_edges([("x", "a", "y"), ("z", "a", "w")], k=2)
        assert ("x", "y") not in db.query("from(z): a").pairs
        assert db.witness("x", "y", "from(z): a") is None
        assert str(db.witness("z", "w", "from(z): a")) == "z -a-> w"
        assert str(db.witness("x", "y", "a")) == "x -a-> y"

    def test_every_answer_pair_has_a_witness(self, figure1_db):
        result = figure1_db.query("knows/worksFor")
        for source, target in result.pairs:
            witness = figure1_db.witness(source, target, "knows/worksFor")
            assert witness is not None
            assert witness.length == 2


class TestCompressedBackendApi:
    def test_compressed_database(self, figure1):
        db = GraphDatabase(
            figure1, k=2, config=ServiceConfig(backend="compressed", shards=1)
        )
        assert db.index.backend_name == "sharded[1xcompressed]"
        (shard,) = db.index.shard_indexes
        assert shard.backend_name == "compressed"
        expected = GraphDatabase(figure1, k=2).query("knows/knows").pairs
        assert db.query("knows/knows").pairs == expected


class TestFailedIndexChange:
    """The failure arm of the index/statistics triple, as one table.

    Every way the index follows the graph — a full build, a rebuild of
    every shard in place, a delta patch — goes through
    ``GraphDatabase._replace_index_locked``, in process and over a
    worker fleet alike.  Whatever raises in there must leave no triple
    behind the mutated graph, close every index it drops (stop every
    worker), surface the original error — except that a deadline or a
    retryable fault raised by a ``close()`` propagates with the
    original riding along as ``__context__`` (rule ``error-taxonomy``)
    — and the next query must rebuild to the oracle's answer.
    """

    EDGES = [
        (f"n{i}", label, f"n{(i * step + 1) % 12}")
        for i in range(12)
        for label, step in (("a", 1), ("b", 5), ("c", 7))
    ]
    MUTATION = Mutation.add("n0", "a", "n7")

    @pytest.mark.parametrize(
        "close_error",
        [
            None,
            OSError("close() raced the handle"),
            QueryTimeoutError("deadline expired while closing shards"),
            TransientError("retryable fault while closing shards"),
        ],
        ids=lambda error: type(error).__name__,
    )
    @pytest.mark.parametrize(
        "engine, shards",
        [(GraphDatabase, 1), (GraphDatabase, 2), (CoordinatorDatabase, 2)],
        ids=["inprocess1", "inprocess2", "coordinator2"],
    )
    @pytest.mark.parametrize("change", ["build", "rebuild", "patch"])
    def test_nothing_survives(self, change, engine, shards, close_error, monkeypatch):
        if change == "rebuild":
            # A zero dirty-pair budget: the group takes the rebuild.
            monkeypatch.setattr(delta, "MAX_DIRTY_PAIRS", 0)
        config = ServiceConfig(k=2, shards=shards)
        db = engine.from_edges(self.EDGES, config=config)
        old_index = db._index
        dropped, closed = [old_index], []

        def watch_close(index):
            real_close = index.close

            def close():
                closed.append(index)
                real_close()
                if close_error is not None:
                    raise close_error

            monkeypatch.setattr(index, "close", close)

        def refuse(*args, **kwargs):
            raise StorageError(f"disk gone during {change}")

        def refuse_statistics(index):
            # The new index is up by now: two indexes to drop.
            dropped.append(index)
            watch_close(index)
            refuse()

        watch_close(old_index)
        if change == "build":
            monkeypatch.setattr(db, "_refresh_sharded_statistics", refuse_statistics)
            trigger = db.build_index
        else:
            if engine is CoordinatorDatabase:
                # Mid-broadcast: every worker but the last has applied.
                doomed, hook = old_index.shard_indexes[-1], "apply_group"
            else:
                doomed, hook = old_index, f"{change}_shards"
            monkeypatch.setattr(doomed, hook, refuse)
            trigger = functools.partial(db.apply, self.MUTATION)
        taxonomy = isinstance(close_error, (QueryTimeoutError, TransientError))
        surfacing = type(close_error) if taxonomy else StorageError
        try:
            with pytest.raises(surfacing) as failure:
                trigger()
            chain = [failure.value]
            while chain[-1].__context__ is not None:
                chain.append(chain[-1].__context__)
            assert any(isinstance(error, StorageError) for error in chain)
            assert db._index is None  # triple dropped, next query rebuilds
            assert db._exact_statistics is None and db._histogram is None
            assert closed == dropped
            if engine is CoordinatorDatabase:
                handles = [handle for index in dropped for handle in index.handles]
                assert len(handles) == shards * len(dropped)
                assert not any(handle.alive() for handle in handles)
            monkeypatch.undo()
            for query in ("a/b", "a"):
                answer = db.query(query, use_cache=False).pairs
                assert set(answer) == eval_query(db.graph, query)
            assert db._index not in dropped
            assert (change == "build") != (("n0", "n7") in db.query("a").pairs)
        finally:
            monkeypatch.undo()
            db.close()
