"""Tests for the GraphDatabase facade."""

from __future__ import annotations

import pytest

from repro.api import GraphDatabase
from repro.errors import ParseError, UnsupportedQueryError, ValidationError
from repro.graph.examples import FIGURE1_EDGES
from repro.graph.io import save_csv, save_edgelist, save_json
from repro.graph.graph import Graph
from repro.rpq.parser import parse


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
            backend="disk",
            index_path=tmp_path / "index.db",
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
        expected = figure1_db.query("knows/knows/worksFor", method="reference")
        result = figure1_db.query("knows/knows/worksFor", method=method)
        assert result.pairs == expected.pairs

    def test_reachability_method_on_supported_query(self, figure1_db):
        result = figure1_db.query("knows*", method="reachability")
        expected = figure1_db.query("knows*", method="reference")
        assert result.pairs == expected.pairs

    def test_reachability_method_rejects_general_query(self, figure1_db):
        with pytest.raises(UnsupportedQueryError):
            figure1_db.query("knows/worksFor", method="reachability")

    def test_unknown_method_rejected(self, figure1_db):
        from repro.errors import PlanningError

        with pytest.raises(PlanningError):
            figure1_db.query("knows", method="alchemy")

    def test_exact_statistics_option(self, figure1_db):
        result = figure1_db.query(
            "knows/knows/worksFor", use_exact_statistics=True
        )
        expected = figure1_db.query("knows/knows/worksFor", method="reference")
        assert result.pairs == expected.pairs

    def test_report_attached_for_index_methods(self, figure1_db):
        result = figure1_db.query("knows/worksFor")
        assert result.report is not None
        assert result.seconds >= 0.0

    def test_star_query_via_fallback(self, figure1_db):
        result = figure1_db.query("(knows|worksFor)*", max_disjuncts=10)
        expected = figure1_db.query("(knows|worksFor)*", method="reference")
        assert result.pairs == expected.pairs


class TestExplainAndStats:
    def test_explain_contains_plan(self, figure1_db_k3):
        text = figure1_db_k3.explain("knows/knows/worksFor/knows/worksFor")
        assert "strategy: minsupport" in text
        assert "IndexScan" in text
        assert "join" in text

    def test_explain_shows_disjuncts(self, figure1_db):
        text = figure1_db.explain("(knows|worksFor)/knows")
        assert "disjuncts: 2" in text

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
        assert figure1_db.exact_statistics.total_paths_k > 0

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

    def test_every_answer_pair_has_a_witness(self, figure1_db):
        result = figure1_db.query("knows/worksFor")
        for source, target in result.pairs:
            witness = figure1_db.witness(source, target, "knows/worksFor")
            assert witness is not None
            assert witness.length == 2


class TestCompressedBackendApi:
    def test_compressed_database(self, figure1):
        db = GraphDatabase(figure1, k=2, backend="compressed", shards=1)
        assert db.index.backend_name == "sharded[1xcompressed]"
        (shard,) = db.index.shard_indexes
        assert shard.backend_name == "compressed"
        expected = GraphDatabase(figure1, k=2).query("knows/knows").pairs
        assert db.query("knows/knows").pairs == expected


class TestRebuildRecoveryTaxonomy:
    """The partial-rebuild recovery path must not swallow the taxonomy.

    When ``rebuild_shards`` fails, the facade drops the index triple and
    closes the dead index.  A resilience-taxonomy exception raised by
    that ``close()`` (a deadline, a retryable fault) must propagate with
    the original rebuild failure attached as ``__context__`` — never be
    suppressed like an ordinary cleanup defect (regression for the
    broad handler in ``_rebuild_shards_locked``, rule ``error-taxonomy``).
    """

    def _sharded_db(self, figure1):
        db = GraphDatabase(figure1, k=2, shards=2)
        index = db.index  # force the build outside the locked section
        assert index.shard_count == 2
        return db, index

    def test_timeout_in_cleanup_close_propagates(self, figure1, monkeypatch):
        from repro.errors import QueryTimeoutError, StorageError

        db, index = self._sharded_db(figure1)

        def failing_rebuild(affected, endpoints=None):
            raise StorageError("disk gone during partial rebuild")

        def timing_out_close():
            raise QueryTimeoutError("deadline expired while closing shards")

        monkeypatch.setattr(index, "rebuild_shards", failing_rebuild)
        monkeypatch.setattr(index, "close", timing_out_close)
        with pytest.raises(QueryTimeoutError) as excinfo:
            db._rebuild_shards_locked({0})
        assert isinstance(excinfo.value.__context__, StorageError)
        assert db._index is None  # triple dropped, next query rebuilds

    def test_plain_cleanup_defect_keeps_original_error(
        self, figure1, monkeypatch
    ):
        from repro.errors import StorageError

        db, index = self._sharded_db(figure1)

        def failing_rebuild(affected, endpoints=None):
            raise StorageError("disk gone during partial rebuild")

        def broken_close():
            raise OSError("close() raced the handle")

        monkeypatch.setattr(index, "rebuild_shards", failing_rebuild)
        monkeypatch.setattr(index, "close", broken_close)
        with pytest.raises(StorageError):
            db._rebuild_shards_locked({0})

    def test_recovered_database_answers_again(self, figure1, monkeypatch):
        from repro.errors import StorageError

        db, index = self._sharded_db(figure1)
        expected = db.query("knows/knows", use_cache=False).pairs

        def failing_rebuild(affected, endpoints=None):
            raise StorageError("disk gone during partial rebuild")

        monkeypatch.setattr(index, "rebuild_shards", failing_rebuild)
        with pytest.raises(StorageError):
            db._rebuild_shards_locked({0})
        assert db._index is None
        assert db.query("knows/knows", use_cache=False).pairs == expected
