"""Tests for the package surface: exports, errors, version."""

from __future__ import annotations

import tomllib
from pathlib import Path

import pytest

import repro
from repro import errors


class TestPublicExports:
    def test_version(self):
        assert repro.__version__ == "1.3.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_facade_importable_from_top_level(self):
        from repro import Graph, GraphDatabase, LabelPath, Step, Strategy

        assert GraphDatabase is not None
        assert {Graph, LabelPath, Step, Strategy} is not None

    def test_subpackage_all_exports(self):
        import repro.bench as bench
        import repro.datalog as datalog
        import repro.engine as engine
        import repro.graph as graph
        import repro.indexes as indexes
        import repro.rpq as rpq
        import repro.storage as storage

        for module in (bench, datalog, engine, graph, indexes, rpq, storage):
            for name in module.__all__:
                assert getattr(module, name) is not None, (module, name)


class TestToolConfig:
    def test_format_excludes_name_existing_files(self):
        """The ``ruff format`` exclude list only shrinks honestly: an
        entry for a deleted file would hide nothing and count as left."""
        root = Path(__file__).parents[1]
        config = tomllib.loads((root / "pyproject.toml").read_text("utf-8"))
        excluded = config["tool"]["ruff"]["format"]["exclude"]
        assert [entry for entry in excluded if not (root / entry).is_file()] == []


class TestErrorHierarchy:
    ALL_ERRORS = [
        errors.GraphError,
        errors.UnknownNodeError,
        errors.ParseError,
        errors.RewriteError,
        errors.PlanningError,
        errors.ExecutionError,
        errors.PathIndexError,
        errors.StorageError,
        errors.KeyOrderError,
        errors.DatalogError,
        errors.UnsupportedQueryError,
        errors.ValidationError,
    ]

    @pytest.mark.parametrize("exc", ALL_ERRORS)
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_unknown_node_is_graph_error(self):
        assert issubclass(errors.UnknownNodeError, errors.GraphError)

    def test_key_order_is_storage_error(self):
        assert issubclass(errors.KeyOrderError, errors.StorageError)

    def test_parse_error_position(self):
        error = errors.ParseError("bad", position=7)
        assert error.position == 7
        assert errors.ParseError("bad").position is None

    def test_one_base_class_catches_everything(self):
        """The documented API contract: catch ReproError at boundaries."""
        from repro.api import GraphDatabase
        from repro.graph.graph import Graph

        db = GraphDatabase(Graph.from_edges([("x", "a", "y")]), k=1)
        failures = 0
        for bad_call in (
            lambda: db.query("a//b"),
            lambda: db.query("a", method="warp"),
            lambda: db.query_from("ghost", "a"),
            lambda: db.selectivity("a|b"),
        ):
            try:
                bad_call()
            except errors.ReproError:
                failures += 1
        assert failures == 4


class TestDoctests:
    def test_api_module_doctest(self):
        import doctest

        import repro.api

        results = doctest.testmod(repro.api)
        assert results.failed == 0
        assert results.attempted >= 1

    def test_semantics_doctest(self):
        import doctest

        import repro.rpq.semantics

        results = doctest.testmod(repro.rpq.semantics)
        assert results.failed == 0

    def test_parser_doctest(self):
        import doctest

        import repro.rpq.parser

        results = doctest.testmod(repro.rpq.parser)
        assert results.failed == 0

    def test_graph_doctest(self):
        import doctest

        import repro.graph.graph

        results = doctest.testmod(repro.graph.graph)
        assert results.failed == 0

    def test_plan_doctest(self):
        import doctest

        import repro.engine.plan

        results = doctest.testmod(repro.engine.plan)
        assert results.failed == 0
