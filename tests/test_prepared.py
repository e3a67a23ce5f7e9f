"""Prepared-query templates over the database's one plan cache.

The governing property is *transparency with receipts*: for every
binding, ``prepare(t).bind(**p).run()`` must return exactly what
``query()`` returns on the substituted text — across mutations, shard
counts and both kernel paths — while the ``stats()`` counters
prove when planning was actually skipped.  Plans live in memory only:
a reopened disk-backed database plans afresh, whatever plan file an
older build left beside its index.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import relation as rel
from repro.api import GraphDatabase, ServiceConfig
from repro.engine import prepared as prepared_module
from repro.engine.executor import prepare_ast
from repro.engine.plan import IdentityPlan, IndexScanPlan, JoinPlan, PlanNode
from repro.engine.prepared import PreparedStatement
from repro.errors import ParseError, ValidationError
from repro.graph.examples import FIGURE1_EDGES, figure1_graph
from repro.rpq import ast
from repro.rpq.parser import parse, parse_template
from repro.write import Mutation

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

    def test_statement_repr_mentions_strategy(self):
        database = GraphDatabase(figure1_graph(), k=2)
        statement = database.prepare("supervisor{1,$n}", method="minjoin")
        assert isinstance(statement, PreparedStatement)
        assert "minjoin" in repr(statement)

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
            assert database.apply(Mutation.add("kim", "supervisor", "ann")).changed
            check(2)
            assert database.apply(Mutation.remove("kim", "supervisor", "ann")).changed
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


# -- plans are not persisted ---------------------------------------------------


def disk_database(path: Path) -> GraphDatabase:
    return GraphDatabase.from_edges(
        FIGURE1_EDGES,
        k=2,
        config=ServiceConfig(backend="disk", index_path=path / "index.db"),
    )


def _digest(payload: list) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _plan_obj(plan: PlanNode) -> dict:
    if isinstance(plan, IndexScanPlan):
        return {"op": "scan", "path": plan.path.encode(), "inverse": plan.via_inverse}
    if isinstance(plan, JoinPlan):
        return {
            "op": "join",
            "algorithm": plan.algorithm,
            "left": _plan_obj(plan.left),
            "right": _plan_obj(plan.right),
        }
    if isinstance(plan, IdentityPlan):
        return {"op": "identity"}
    return {"op": "union", "parts": [_plan_obj(part) for part in plan.parts]}


def older_build_plan_file(database: GraphDatabase, template: str, ns) -> dict:
    """The ``<index>.plans.json`` a plan-persisting build wrote.

    Format 1: a content fingerprint of the statistics, and one entry
    per binding of ``template``'s ``$n``, keyed by a hash of the
    template body, the binding and the plan settings.  A build that
    read this file answered the bindings with zero planner calls.
    """
    statement = database.prepare(template)
    statistics = database.exact_statistics
    fingerprint = _digest(
        [
            database.k,
            64,  # histogram buckets
            sorted(database.graph.labels()),
            database.graph.node_count,
            statistics.total_paths_k,
            sorted(statistics.counts.items()),
        ]
    )
    entries = {}
    for n in ns:
        bound = statement.bind(n=n)
        prepared = prepare_ast(
            bound.node,
            database.index,
            database.graph,
            database.histogram,
            statement.strategy,
            statement.max_disjuncts,
        )
        key = _digest(
            [
                str(statement.template.node),
                [["n", n]],
                statement.strategy.value,
                statement.use_exact_statistics,
                statement.max_disjuncts,
            ]
        )
        entries[key] = {
            "query": str(prepared.node),
            "strategy": prepared.strategy.value,
            "max_disjuncts": prepared.max_disjuncts,
            "plan": _plan_obj(prepared.costed.plan),
            "cost": prepared.costed.cost,
            "cardinality": prepared.costed.cardinality,
        }
    return {"format": 1, "fingerprint": fingerprint, "entries": entries}


class TestPlansAreNotPersisted:
    TEMPLATE = "(supervisor|worksFor|^worksFor){2,$n}"

    def test_reopen_ignores_an_older_builds_plan_file(self, tmp_path):
        with disk_database(tmp_path) as database:
            document = older_build_plan_file(database, self.TEMPLATE, (2, 3, 4))
        leftover = tmp_path / "index.db.plans.json"
        leftover.write_text(json.dumps(document), encoding="utf-8")
        with disk_database(tmp_path) as reopened:
            statement = reopened.prepare(self.TEMPLATE)
            results = {n: statement.bind(n=n).run() for n in (2, 3, 4)}
            assert prepared_info(reopened)["plans_computed"] == 3
            for n, result in results.items():
                text = f"(supervisor|worksFor|^worksFor){{2,{n}}}"
                assert result.pairs == reopened.query(text, use_cache=False).pairs
        assert json.loads(leftover.read_text(encoding="utf-8")) == document
