"""Prepared-query templates and the persistent plan-artifact cache.

The governing property is *transparency with receipts*: for every
binding, ``prepare(t).bind(**p).run()`` must return exactly what
``query()`` returns on the substituted text — across mutations, shard
counts and both kernel paths — while the ``stats()`` counters
prove when planning was actually skipped.  Around that sit the
artifact-store contracts: a restarted disk-backed service answers its
first prepared query with zero planning calls, and every stale,
corrupt or tampered artifact fails open to re-planning, never to a
wrong answer.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import relation as rel
from repro.api import GraphDatabase, ServiceConfig
from repro.engine import prepared as prepared_module
from repro.engine.prepared import PlanArtifactStore, PreparedStatement
from repro.errors import (
    ParseError,
    QueryTimeoutError,
    TransientStorageError,
    ValidationError,
)
from repro.graph.examples import FIGURE1_EDGES, figure1_graph
from repro.rpq import ast
from repro.rpq.parser import parse, parse_template

from tests.strategies import graphs

BOTH_PATHS = pytest.mark.parametrize(
    "pure_python", [False, True], ids=["vectorized", "scalar"]
)


@contextmanager
def forced_path(pure_python: bool):
    """Route kernels through one implementation path for the duration."""
    old_flag, old_min = rel._FORCE_PURE_PYTHON, rel._VECTOR_MIN
    rel._FORCE_PURE_PYTHON = pure_python
    if not pure_python:
        rel._VECTOR_MIN = 0
    try:
        yield
    finally:
        rel._FORCE_PURE_PYTHON, rel._VECTOR_MIN = old_flag, old_min


def prepared_info(database: GraphDatabase) -> dict[str, int]:
    info = database.stats().as_dict()
    return {
        key: info[key]
        for key in (
            "prepared_hits",
            "prepared_misses",
            "prepared_invalidations",
            "artifact_loads",
            "plans_computed",
        )
    }


# -- template syntax ----------------------------------------------------------


class TestTemplateParsing:
    def test_plain_parse_rejects_parameters(self):
        with pytest.raises(ParseError, match="only allowed in templates"):
            parse("knows{1,$n}")

    def test_parameter_not_allowed_as_atom(self):
        with pytest.raises(ParseError, match="not as a path atom"):
            parse_template("knows/$n")

    def test_bound_parameters_collected(self):
        template = parse_template("a{$lo,$hi}/b{2,$hi}")
        assert sorted(template.bound_params) == ["hi", "lo"]
        assert template.params == template.bound_params
        assert not template.anchored

    def test_anchor_parameter(self):
        template = parse_template("from($v): a{1,$n}/b")
        assert template.anchor_param == "v"
        assert template.anchor_name is None
        assert sorted(template.params) == ["n", "v"]
        assert str(template) == "from($v): a{1,$n}/b"

    def test_literal_anchor(self):
        template = parse_template("from(alice): a/b")
        assert template.anchor_name == "alice"
        assert template.anchor_param is None
        assert template.params == frozenset()
        assert template.anchored

    def test_from_is_still_a_legal_label(self):
        # 'from' only means anchoring when followed by '(' — as a bare
        # label (or concat head) it parses like any other identifier.
        template = parse_template("from/knows")
        assert not template.anchored
        assert str(template.node) == "from/knows"

    def test_template_unparse_round_trips(self):
        text = "a{$lo,$hi}/(b|^c){2,$hi}"
        assert str(parse_template(str(parse_template(text).node)).node) == str(
            parse_template(text).node
        )

    def test_substitution_validates_bindings(self):
        node = parse_template("a{$lo,$hi}").node
        assert str(ast.substitute_params(node, {"lo": 1, "hi": 3})) == "a{1,3}"
        with pytest.raises(ValidationError, match="missing value"):
            ast.substitute_params(node, {"lo": 1})
        with pytest.raises(ValidationError, match="integer repetition"):
            ast.substitute_params(node, {"lo": 1, "hi": "three"})
        with pytest.raises(ValidationError, match="integer repetition"):
            ast.substitute_params(node, {"lo": 1, "hi": True})
        with pytest.raises(ValidationError, match=">= 0"):
            ast.substitute_params(node, {"lo": -1, "hi": 3})
        with pytest.raises(ValidationError, match="low <= high"):
            ast.substitute_params(node, {"lo": 5, "hi": 2})
        with pytest.raises(ValidationError, match="exceeds the maximum"):
            ast.substitute_params(node, {"lo": 1, "hi": 99}, max_bound=10)


# -- prepare / bind validation ------------------------------------------------


class TestPrepareBind:
    def test_baselines_cannot_be_prepared(self):
        database = GraphDatabase(figure1_graph(), k=2)
        with pytest.raises(ValidationError, match="no plan to cache"):
            database.prepare("supervisor/^worksFor", method="automaton")

    def test_binding_must_match_parameters_exactly(self):
        database = GraphDatabase(figure1_graph(), k=2)
        statement = database.prepare("from($v): supervisor{1,$n}")
        with pytest.raises(ValidationError, match="missing \\['n'\\]"):
            statement.bind(v="kim")
        with pytest.raises(ValidationError, match="unexpected \\['x'\\]"):
            statement.bind(v="kim", n=1, x=2)

    def test_anchor_value_must_be_a_node_name(self):
        database = GraphDatabase(figure1_graph(), k=2)
        statement = database.prepare("from($v): supervisor")
        with pytest.raises(ValidationError, match="must be a node name"):
            statement.bind(v=3)

    def test_template_with_no_parameters_is_legal(self):
        database = GraphDatabase(figure1_graph(), k=2)
        statement = database.prepare("supervisor/^worksFor")
        first = statement.bind().run()
        second = statement.run()
        expected = database.query("supervisor/^worksFor", use_cache=False)
        assert first.pairs == second.pairs == expected.pairs
        # One plan: the second run and the query() both reuse it.
        assert prepared_info(database)["plans_computed"] == 1
        assert prepared_info(database)["prepared_hits"] == 2


# -- equivalence with query() -------------------------------------------------


class TestPreparedEqualsQuery:
    @BOTH_PATHS
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_across_mutations_and_shards(self, pure_python, shards):
        template = "(supervisor|worksFor|^worksFor){1,$n}"
        with forced_path(pure_python):
            database = GraphDatabase.from_edges(
                FIGURE1_EDGES, k=2, config=ServiceConfig(shards=shards)
            )
            statement = database.prepare(template)

            def check(n: int) -> None:
                bound_text = f"(supervisor|worksFor|^worksFor){{1,{n}}}"
                expected = database.query(bound_text, use_cache=False)
                assert statement.bind(n=n).run().pairs == expected.pairs

            check(1)
            check(2)
            check(2)  # second run of the same binding: plan-cache hit
            assert database.add_edge("kim", "supervisor", "ann") is not None
            check(2)
            assert database.remove_edge("kim", "supervisor", "ann") is not None
            check(2)
            database.build_index()  # same graph, fresh statistics epoch
            check(2)
        info = prepared_info(database)
        assert info["prepared_hits"] >= 1
        assert info["prepared_invalidations"] >= 3  # two mutations + rebuild
        assert info["plans_computed"] == info["prepared_misses"]

    @settings(max_examples=15, deadline=None)
    @given(graphs(max_nodes=6, max_edges=12), st.integers(0, 2))
    def test_property_random_graphs(self, graph, n):
        database = GraphDatabase(graph, k=2)
        statement = database.prepare("(a|^b){$lo,$hi}")
        result = statement.bind(lo=0, hi=n).run()
        expected = database.query(f"(a|^b){{0,{n}}}", use_cache=False)
        assert result.pairs == expected.pairs

    def test_anchored_matches_query_from(self):
        database = GraphDatabase(figure1_graph(), k=2)
        statement = database.prepare("from($v): (supervisor|worksFor){1,$n}")
        for source in ("kim", "sue", "joe"):
            result = statement.bind(v=source, n=2).run()
            expected = database.query_from(
                source, "(supervisor|worksFor){1,2}"
            )
            assert {target for _, target in result.pairs} == expected
            assert all(found == source for found, _ in result.pairs)

    def test_anchored_run_reads_only_the_owner_shard(self):
        database = GraphDatabase(
            figure1_graph(), k=2, config=ServiceConfig(shards=3)
        )
        statement = database.prepare("from($v): (supervisor|worksFor){1,$n}")
        for source in database.graph.node_names():
            result = statement.bind(v=source, n=2).run()
            expected = database.query(
                f"from({source}): (supervisor|worksFor){{1,2}}", use_cache=False
            )
            assert result.pairs == expected.pairs
            report = result.report
            assert report.shards_scanned + report.shards_pruned == 1

    def test_anchor_values_share_one_plan(self):
        database = GraphDatabase(figure1_graph(), k=2)
        statement = database.prepare("from($v): supervisor/^worksFor")
        statement.bind(v="kim").run()
        statement.bind(v="sue").run()
        info = prepared_info(database)
        assert info["plans_computed"] == 1
        assert info["prepared_hits"] == 1

    def test_prepared_bypasses_result_cache(self):
        database = GraphDatabase(figure1_graph(), k=2)
        statement = database.prepare("supervisor{1,$n}")
        first = statement.bind(n=2).run()
        second = statement.bind(n=2).run()
        assert not first.cached and not second.cached
        assert second.report is not None  # really executed, not replayed


# -- bindings in the database's plan cache ------------------------------------


class TestStatementPlanCache:
    def test_lru_eviction_is_bounded(self, monkeypatch):
        monkeypatch.setattr(prepared_module, "PLAN_CACHE_MAX", 2)
        database = GraphDatabase(figure1_graph(), k=2)
        statement = database.prepare("supervisor{1,$n}")
        for n in (1, 2, 3, 4):
            statement.bind(n=n).run()
        assert database._plan_cache.held()[1] == 2
        statement.bind(n=4).run()  # newest binding survived
        assert prepared_info(database)["prepared_hits"] == 1

    def test_distinct_bindings_plan_separately(self):
        database = GraphDatabase(figure1_graph(), k=2)
        statement = database.prepare("supervisor{1,$n}")
        statement.bind(n=1).run()
        statement.bind(n=2).run()
        assert database._plan_cache.held()[1] == 2
        assert prepared_info(database)["plans_computed"] == 2

    def test_statements_of_one_template_share_plans(self):
        database = GraphDatabase(figure1_graph(), k=2)
        database.prepare("supervisor{1,$n}").run(n=2)
        database.prepare("supervisor{1,$n}").run(n=2)
        assert prepared_info(database)["plans_computed"] == 1


# -- the persistent artifact store --------------------------------------------


def disk_database(path: Path, shards: int = 1) -> GraphDatabase:
    return GraphDatabase.from_edges(
        FIGURE1_EDGES,
        k=2,
        config=ServiceConfig(
            backend="disk", index_path=path / "index.db", shards=shards
        ),
    )


class TestPlanArtifacts:
    TEMPLATE = "(supervisor|worksFor|^worksFor){2,$n}"

    @pytest.mark.parametrize("shards", [1, 2])
    def test_restart_answers_with_zero_planning(self, tmp_path, shards):
        with disk_database(tmp_path, shards=shards) as database:
            baseline = database.prepare(self.TEMPLATE).bind(n=4).run()
            assert prepared_info(database)["plans_computed"] == 1
        artifact = tmp_path / "index.db.plans.json"
        assert artifact.exists()
        with disk_database(tmp_path, shards=shards) as restarted:
            result = restarted.prepare(self.TEMPLATE).bind(n=4).run()
            info = prepared_info(restarted)
        assert result.pairs == baseline.pairs
        assert info["plans_computed"] == 0, "restart must not plan"
        assert info["artifact_loads"] == 1

    def test_artifact_with_disjuncts_key_still_revives(self, tmp_path):
        # Artifacts once carried a per-disjunct path map beside the
        # plan; a file written that way is still a valid plan.
        with disk_database(tmp_path, shards=2) as database:
            baseline = database.prepare(self.TEMPLATE).bind(n=4).run()
        artifact = tmp_path / "index.db.plans.json"
        document = json.loads(artifact.read_text(encoding="utf-8"))
        for entry in document["entries"].values():
            entry["disjuncts"] = [["supervisor", entry["plan"]]]
        artifact.write_text(json.dumps(document), encoding="utf-8")
        with disk_database(tmp_path, shards=2) as restarted:
            result = restarted.prepare(self.TEMPLATE).bind(n=4).run()
            info = prepared_info(restarted)
        assert result.pairs == baseline.pairs
        assert info["plans_computed"] == 0
        assert info["artifact_loads"] == 1

    def test_artifact_survives_resharding(self, tmp_path):
        # Plans are shard-layout independent: shard pruning happens at
        # execution time, so re-sharding keeps the artifacts.
        with disk_database(tmp_path, shards=1) as database:
            database.prepare(self.TEMPLATE).bind(n=4).run()
        with disk_database(tmp_path, shards=2) as restarted:
            restarted.prepare(self.TEMPLATE).bind(n=4).run()
            assert prepared_info(restarted)["plans_computed"] == 0

    def test_stale_artifact_rejected_after_graph_change(self, tmp_path):
        with disk_database(tmp_path) as database:
            database.prepare(self.TEMPLATE).bind(n=4).run()
        changed = GraphDatabase.from_edges(
            list(FIGURE1_EDGES) + [("zed", "knows", "kim")],
            k=2,
            config=ServiceConfig(backend="disk", index_path=tmp_path / "index.db"),
        )
        try:
            changed.prepare(self.TEMPLATE).bind(n=4).run()
            info = prepared_info(changed)
        finally:
            changed.close()
        assert info["artifact_loads"] == 0
        assert info["plans_computed"] == 1

    def test_corrupt_artifact_fails_open(self, tmp_path):
        with disk_database(tmp_path) as database:
            expected = database.prepare(self.TEMPLATE).bind(n=4).run()
        artifact = tmp_path / "index.db.plans.json"
        artifact.write_text("{ this is not json", encoding="utf-8")
        with disk_database(tmp_path) as restarted:
            result = restarted.prepare(self.TEMPLATE).bind(n=4).run()
            info = prepared_info(restarted)
        assert result.pairs == expected.pairs
        assert info["plans_computed"] == 1

    def test_tampered_entry_fails_open(self, tmp_path):
        with disk_database(tmp_path) as database:
            expected = database.prepare(self.TEMPLATE).bind(n=4).run()
        artifact = tmp_path / "index.db.plans.json"
        document = json.loads(artifact.read_text(encoding="utf-8"))
        for entry in document["entries"].values():
            entry["query"] = "supervisor"  # plan no longer matches
        artifact.write_text(json.dumps(document), encoding="utf-8")
        with disk_database(tmp_path) as restarted:
            result = restarted.prepare(self.TEMPLATE).bind(n=4).run()
            info = prepared_info(restarted)
        assert result.pairs == expected.pairs
        assert info["artifact_loads"] == 0
        assert info["plans_computed"] == 1

    def test_memory_backend_is_inert(self):
        database = GraphDatabase(figure1_graph(), k=2)
        database.prepare("supervisor{1,$n}").bind(n=2).run()
        assert database.stats().as_dict()["plan_artifacts"] == 0
        assert not database._plan_store.enabled

    def test_store_roundtrip_unit(self, tmp_path):
        path = tmp_path / "plans.json"
        store = PlanArtifactStore(path)
        store.open("fp")
        store.store("key", {"hello": 1})
        fresh = PlanArtifactStore(path)
        assert fresh.open("fp") == 1
        assert fresh.load("key") == {"hello": 1}
        assert fresh.load("other") is None
        # A different fingerprint drops everything.
        assert fresh.open("other-fp") == 0
        assert fresh.load("key") is None


# -- serialization round-trip -------------------------------------------------


class TestArtifactRoundTrip:
    @pytest.mark.parametrize(
        "query",
        [
            "supervisor",
            "supervisor/^worksFor",
            "(supervisor|worksFor){1,2}",
            "<eps>|supervisor{2,3}",
        ],
    )
    def test_prepared_round_trips_through_json(self, query):
        from repro.engine.executor import prepare_ast
        from repro.engine.prepared import (
            artifact_from_prepared,
            prepared_from_artifact,
        )

        database = GraphDatabase(figure1_graph(), k=2)
        prepared = prepare_ast(
            parse(query),
            database.index,
            database.graph,
            database.histogram,
            database.prepare(query).strategy,
            4096,
        )
        payload = json.loads(json.dumps(artifact_from_prepared(prepared)))
        revived = prepared_from_artifact(payload)
        assert revived is not None
        assert revived.costed is not None and prepared.costed is not None
        assert revived.costed.plan == prepared.costed.plan
        assert revived.costed.cost == prepared.costed.cost
        assert str(revived.node) == str(prepared.node)

    def test_statement_repr_mentions_strategy(self):
        database = GraphDatabase(figure1_graph(), k=2)
        statement = database.prepare("supervisor{1,$n}", method="minjoin")
        assert isinstance(statement, PreparedStatement)
        assert "minjoin" in repr(statement)


# -- resilience taxonomy vs fail-open -----------------------------------------


class TestArtifactTaxonomyPropagation:
    """``prepared_from_artifact`` fails open for *defects* only.

    A deadline or retryable-fault exception raised while decoding an
    artifact belongs to the resilience taxonomy and must reach the
    caller — degrading it into silent re-planning would erase the very
    signal the timeout/chaos machinery exists to deliver (regression
    for the broad handler at engine/prepared.py, rule
    ``error-taxonomy``).
    """

    def _payload(self) -> dict:
        from repro.engine.executor import prepare_ast
        from repro.engine.prepared import artifact_from_prepared

        database = GraphDatabase(figure1_graph(), k=2)
        query = "supervisor/^worksFor"
        prepared = prepare_ast(
            parse(query),
            database.index,
            database.graph,
            database.histogram,
            database.prepare(query).strategy,
            4096,
        )
        payload = artifact_from_prepared(prepared)
        assert payload is not None
        return json.loads(json.dumps(payload))

    def test_timeout_during_decode_propagates(self, monkeypatch):
        from repro.engine.prepared import prepared_from_artifact

        payload = self._payload()

        def expired(obj):
            raise QueryTimeoutError("deadline expired during plan decode")

        monkeypatch.setattr(prepared_module, "_plan_from_obj", expired)
        with pytest.raises(QueryTimeoutError):
            prepared_from_artifact(payload)

    def test_transient_fault_during_decode_propagates(self, monkeypatch):
        from repro.engine.prepared import prepared_from_artifact

        payload = self._payload()

        def flaky(obj):
            raise TransientStorageError("injected retryable fault")

        monkeypatch.setattr(prepared_module, "_plan_from_obj", flaky)
        with pytest.raises(TransientStorageError):
            prepared_from_artifact(payload)

    def test_defects_still_fail_open(self):
        from repro.engine.prepared import prepared_from_artifact

        assert prepared_from_artifact({}) is None
        payload = self._payload()
        payload["strategy"] = "no-such-strategy"
        assert prepared_from_artifact(payload) is None
