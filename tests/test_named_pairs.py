"""``QueryResult.pairs`` is a frozenset to every observer — and lazy.

:class:`~repro.graph.graph.NamedPairs` lays names over an answer's two
id columns and decodes only what is read.  These tests pin the two
halves of that bargain: nothing an observer can do tells the view from
``frozenset(graph.pairs_to_names(relation))`` (the model), and nothing
short of asking for the whole set builds it.
"""

from __future__ import annotations

import itertools
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BASELINE_METHODS, GraphDatabase
from repro.client import RemoteResult
from repro.config import ServiceConfig
from repro.errors import UnsupportedQueryError
from repro.graph.examples import figure1_graph
from repro.graph.generators import advogato_like
from repro.graph.graph import Graph, NamedPairs
from repro.relation import Order, Relation, dedup_sort
from repro.rpq.semantics import eval_query
from repro.write import Mutation

from tests.strategies import graphs

STRATEGIES = ("naive", "semi-naive", "minsupport", "minjoin")
ORDERS = (Order.BY_SRC, Order.BY_TGT, Order.NONE)


def oracle(graph: Graph, query: str) -> frozenset:
    return frozenset(eval_query(graph, query))


def relation_of(id_pairs: list[tuple[int, int]], order: Order) -> Relation:
    """Duplicate-free ``id_pairs`` as a relation honestly in ``order``."""
    relation = Relation.from_pairs(id_pairs)
    return relation if order is Order.NONE else dedup_sort(relation, order)


@st.composite
def graph_and_relations(draw):
    """A graph, two id relations over it in drawn orders, and a name set."""
    graph = draw(graphs(max_nodes=6, max_edges=0))
    ids = st.integers(0, graph.node_count - 1)
    id_pairs = st.lists(st.tuples(ids, ids), unique=True, max_size=12)
    relations = [
        relation_of(draw(id_pairs), draw(st.sampled_from(ORDERS))) for _ in range(2)
    ]
    names = st.sampled_from([*graph.node_names(), "stranger"])
    others = draw(st.frozensets(st.tuples(names, names), max_size=12))
    return graph, relations, others


#: What is not a ``(source, target)`` name pair is not a member — of a
#: view, a :class:`QueryResult` or a :class:`RemoteResult` alike.
MALFORMED = [
    ("n0",),
    ("n0", "n0", "n0"),
    "n0",
    "ab",
    b"ab",
    ("n0", 0),
    (0, 0),
    (["n0"], "n0"),
    {"n0", "n1"},
    {"n0": "n1", "n1": "n0"},
    None,
    7,
    (),
]


class TestFrozensetToEveryObserver:
    @settings(max_examples=150, deadline=None)
    @given(graph_and_relations())
    def test_agrees_with_the_model(self, drawn):
        graph, (relation, second), others = drawn
        view = graph.named_pairs(relation)
        model = frozenset(graph.pairs_to_names(relation))
        assert isinstance(view, NamedPairs)
        assert len(view) == len(model)
        assert bool(view) == bool(model)
        assert sorted(view) == sorted(model)  # the multiset: no duplicates
        assert sorted(iter(view)) == sorted(view)  # re-iterable
        for probe in model | others:
            assert (probe in view) == (probe in model)
            assert (list(probe) in view) == (probe in model)
        for probe in MALFORMED:
            assert probe not in view
        # A twin graph interns the same names, so a view over it compares
        # by name; a view over the same graph compares by id.
        twin = Graph()
        for name in graph.node_names():
            twin.add_node(name)
        same_columns = Relation(relation.src, relation.tgt, relation.order)
        rivals = [
            (others, others),
            (set(others), others),
            (model, model),
            (set(model), model),
            (graph.named_pairs(second), frozenset(graph.pairs_to_names(second))),
            (twin.named_pairs(second), frozenset(twin.pairs_to_names(second))),
            (twin.named_pairs(relation), model),
            (graph.named_pairs(same_columns), model),
        ]
        for rival, rival_model in rivals:
            assert (view == rival) == (model == rival_model)
            assert (rival == view) == (rival_model == model)
            assert (view != rival) == (model != rival_model)
            assert (view <= rival) == (model <= rival_model)
            assert (rival <= view) == (rival_model <= model)
            assert (view < rival) == (model < rival_model)
            assert (rival < view) == (rival_model < model)
            assert (view >= rival) == (model >= rival_model)
            assert (view > rival) == (model > rival_model)
            assert view & rival == model & rival_model
            assert rival & view == rival_model & model
            assert view | rival == model | rival_model
            assert rival | view == rival_model | model
            assert view - rival == model - rival_model
            assert rival - view == rival_model - model
            assert view ^ rival == model ^ rival_model
            assert rival ^ view == rival_model ^ model
            assert view.isdisjoint(rival) == model.isdisjoint(rival_model)
            assert isinstance(view & rival, frozenset)
        assert hash(view) == hash(model)
        assert {view: 1}[model] == 1
        assert repr(view) == repr(view.frozen())
        assert view.frozen() == model and isinstance(view.frozen(), frozenset)
        assert view != sorted(model) and view != "pairs"

    def test_repr_prints_like_a_frozenset(self):
        graph = figure1_graph()
        view = graph.named_pairs([(graph.node_id("kim"), graph.node_id("sue"))])
        assert repr(view) == "frozenset({('kim', 'sue')})"
        assert repr(graph.named_pairs([])) == "frozenset()"

    def test_comparing_to_a_non_set_is_a_type_error_as_for_frozenset(self):
        view = figure1_graph().named_pairs([(0, 1)])
        with pytest.raises(TypeError):
            view <= [("a", "b")]


class TestOneProbeRule:
    """``pair in answer``: same rule in process, on the view, over the wire."""

    PROBES = [
        (("kim", "sue"), True),
        (["kim", "sue"], True),
        (("sue", "kim"), False),
        (["sue", "kim"], False),
        (("kim", "nobody"), False),
        (("kim",), False),
        (("kim", "sue", "kim"), False),
        ("ks", False),
        (("kim", 3), False),
        ((["kim"], "sue"), False),
        ({"kim", "sue"}, False),
        (None, False),
        (7, False),
    ]

    def answers(self):
        result = GraphDatabase(figure1_graph(), k=2).query("supervisor/^worksFor")
        remote = RemoteResult(
            result.query, result.method, pairs=frozenset(result.pairs)
        )
        return {
            "QueryResult": result,
            "NamedPairs": result.pairs,
            "RemoteResult": remote,
        }

    def test_same_table_everywhere(self):
        for kind, answer in self.answers().items():
            for probe, expected in self.PROBES:
                assert (probe in answer) is expected, (kind, probe)


#: Bounded, recursive, and the one shape the reachability baseline takes.
QUERIES = ("(supervisor|worksFor)/^worksFor", "(knows|supervisor)*/worksFor", "knows+")
ANCHORED = ("from($v): (supervisor|worksFor){1,$n}", "(supervisor|worksFor){1,2}")
#: Over a graph large enough that joins, unions and the closure take the
#: numpy paths the Figure-1 fixture never reaches.
VECTOR_QUERIES = (
    "master/journeyer/^apprentice",
    "(master|journeyer)*",
    "apprentice{1,3}",
)


class TestLenRestsOnDuplicateFreeAnswers:
    """Every relation that reaches ``_result_locked`` is duplicate-free."""

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("backend", ["memory", "disk", "compressed"])
    def test_every_method_backend_and_shard_count(self, backend, shards, tmp_path):
        graph = figure1_graph()
        config = ServiceConfig(
            backend=backend,
            shards=shards,
            index_path=tmp_path / "index" if backend == "disk" else None,
        )
        database = GraphDatabase(graph, k=2, config=config)
        try:
            for method in STRATEGIES + BASELINE_METHODS:
                for query in QUERIES:
                    try:
                        result = database.query(query, method=method, use_cache=False)
                    except UnsupportedQueryError:
                        assert method == "reachability"
                        continue
                    pairs = result.pairs
                    assert len(pairs) == len(set(pairs)), (method, query)
                    assert pairs == oracle(graph, query), (method, query)
            template, expansion = ANCHORED
            for method in STRATEGIES:
                statement = database.prepare(template, method=method)
                for source in graph.node_names():
                    pairs = statement.bind(v=source, n=2).run().pairs
                    expected = {
                        pair for pair in oracle(graph, expansion) if pair[0] == source
                    }
                    assert len(pairs) == len(set(pairs)), (method, source)
                    assert pairs == expected, (method, source)
        finally:
            database.close()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_vectorized_kernels_too(self, shards):
        graph = advogato_like(120, 600, seed=5)
        database = GraphDatabase(graph, k=2, config=ServiceConfig(shards=shards))
        for query in VECTOR_QUERIES:
            for method in STRATEGIES:
                pairs = database.query(query, method=method, use_cache=False).pairs
                assert len(pairs) == len(set(pairs)), (method, query)
                assert pairs == oracle(graph, query), (method, query)


class TestDecodedAtTheResultsVersion:
    """Reading late is reading the answer as of ``result.version``."""

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize(
        "query",
        ["knows", "knows/worksFor", "(knows|supervisor)*", "^worksFor/knows{1,2}"],
    )
    def test_untouched_result_survives_later_writes(self, query, shards):
        graph = figure1_graph()
        database = GraphDatabase(graph, k=2, config=ServiceConfig(shards=shards))
        result = database.query(query, use_cache=False)
        expected_then = oracle(graph, query)
        add, remove = Mutation.add, Mutation.remove
        first, second, *_, last = sorted(graph.node_names())
        known = [edge for edge in graph.edges() if edge[1] == "knows"]
        batches = [
            [add("newcomer", "knows", "stranger"), add("stranger", "worksFor", first)],
            [add(first, "knows", last), add(second, "supervisor", "newcomer")],
            [remove(*edge) for edge in known[:2]],
            [add("later", "knows", "newcomer")],
        ]
        for batch in batches:
            assert database.apply(batch).version > result.version
        assert oracle(graph, query) != expected_then  # the writes did bite
        assert result.pairs == expected_then
        assert len(result.pairs) == len(expected_then)
        assert sorted(result.pairs) == sorted(expected_then)
        assert ("newcomer", "stranger") not in result.pairs
        fresh = database.query(query, use_cache=False)
        assert fresh.version > result.version
        assert fresh.pairs == oracle(graph, query)


class TestLazy:
    def database(self):
        graph = advogato_like(60, 300, seed=3)
        return GraphDatabase(graph, k=2, config=ServiceConfig(shards=1))

    def test_counting_probing_and_peeking_build_no_set(self):
        database = self.database()
        result = database.query("master/journeyer")
        pairs = result.pairs
        assert len(pairs) > 10 and len(result) == len(pairs)
        names = database.graph.node_names()
        probes = list(zip(names[:10], names[10:20]))
        assert sum(probe in pairs for probe in probes) < len(probes)
        peeked = list(itertools.islice(iter(pairs), 10))
        assert all(pair in pairs for pair in peeked)
        assert pairs._frozen is None and pairs._keys is None

    def test_a_cache_hit_shares_the_view_and_its_memo(self):
        database = self.database()
        first = database.query("master/journeyer")
        hit = database.query("master/journeyer")
        assert hit.cached and not first.cached
        assert hit.pairs is first.pairs and hit.pairs._frozen is None
        built = hit.pairs.frozen()
        assert database.query("master/journeyer").pairs.frozen() is built
        assert first.pairs._frozen is built

    def test_eight_threads_materialise_one_view(self):
        database = self.database()
        pairs = database.query("(master|journeyer)*", use_cache=False).pairs
        expected = oracle(database.graph, "(master|journeyer)*")
        barrier = threading.Barrier(8)
        seen: list[frozenset] = []
        errors: list[Exception] = []

        def materialise():
            try:
                barrier.wait(timeout=10)
                seen.append(pairs.frozen())
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=materialise) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8 and all(found == expected for found in seen)
        assert pairs.frozen() == expected
