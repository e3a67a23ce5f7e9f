"""End-to-end integration scenarios across the whole stack."""

from __future__ import annotations

import pytest

from repro.api import GraphDatabase, ServiceConfig
from repro.graph.examples import FIGURE1_EDGES
from repro.graph.generators import advogato_like, grid
from repro.graph.io import save_edgelist
from repro.graph.graph import Graph

from tests.evaluators import answer, evaluate


class TestFileToAnswerPipeline:
    """Load from disk -> index -> query -> witness, like a real user."""

    def test_full_cycle(self, tmp_path):
        graph = Graph.from_edges(FIGURE1_EDGES)
        path = tmp_path / "people.tsv"
        save_edgelist(graph, path)

        with GraphDatabase.from_file(path, k=2) as db:
            result = db.query("supervisor/^worksFor")
            assert result.pairs == frozenset({("kim", "sue")})
            witness = db.witness("kim", "sue", "supervisor/^worksFor")
            assert witness is not None and witness.length == 2

    def test_disk_index_cycle(self, tmp_path):
        graph = Graph.from_edges(FIGURE1_EDGES)
        data = tmp_path / "people.json"
        from repro.graph.io import save_json

        save_json(graph, data)
        with GraphDatabase.from_file(
            data,
            k=2,
            config=ServiceConfig(backend="disk", index_path=tmp_path / "people.idx"),
        ) as db:
            baseline = GraphDatabase(graph, k=2)
            for text in ("knows/knows", "^worksFor/knows", "knows{1,2}"):
                assert db.query(text).pairs == baseline.query(text).pairs


class TestMethodsAgreeAtScale:
    METHODS = ("naive", "semi-naive", "minsupport", "minjoin",
               "automaton", "datalog")

    @pytest.fixture(scope="class")
    def db(self):
        return GraphDatabase(advogato_like(nodes=80, edges=480, seed=31), k=2)

    @pytest.mark.parametrize(
        "text",
        [
            "master/journeyer",
            "^apprentice/master",
            "(master|journeyer){1,2}",
            "journeyer{2,3}",
            "master/journeyer/apprentice",
        ],
    )
    def test_seven_way_agreement(self, db, text):
        reference = evaluate(db.graph, text)
        for method in self.METHODS:
            assert answer(db, text, method) == reference, method


class TestGridGroundTruth:
    """A structured graph where answers are hand-computable."""

    def test_lattice_paths(self):
        db = GraphDatabase(grid(4, 4), k=2)
        # exactly one monotone path shape right,right,down from (0,0)
        result = db.query("right/right/down")
        assert ("c0_0", "c2_1") in result.pairs
        # count: sources with x <= 1 and y <= 2: 2 columns * 3 rows? width 4:
        # x in {0,1}, y in {0,1,2} -> 6 answers
        assert len(result.pairs) == 6

    def test_bounded_recursion_on_grid(self):
        db = GraphDatabase(grid(3, 3), k=2)
        result = db.query("(right|down){2}")
        assert result.pairs == evaluate(db.graph, "(right|down){2}")

    def test_single_source_on_grid(self):
        db = GraphDatabase(grid(3, 3), k=2)
        targets = db.query_from("c0_0", "right{1,2}")
        assert targets == frozenset({"c1_0", "c2_0"})


class TestStatisticsConsistency:
    def test_histogram_vs_exact_on_real_workload(self):
        db = GraphDatabase(advogato_like(nodes=100, edges=600, seed=23), k=2)
        for text in ("master/journeyer", "journeyer{1,3}"):
            approx = db.query(text, use_exact_statistics=False)
            exact = db.query(text, use_exact_statistics=True)
            assert approx.pairs == exact.pairs

    def test_selectivity_sums_sanely(self):
        db = GraphDatabase(Graph.from_edges(FIGURE1_EDGES), k=2)
        denominator = db.index.total_paths_k()
        total = sum(
            db.exact_statistics.estimated_count(path) / denominator
            for path in db.index.paths()
            if len(path) <= 2
        )
        # Selectivities are fractions of |paths_k|; the sum over all
        # indexed paths can exceed 1 (paths overlap) but must be finite
        # and positive.
        assert total > 0.0
