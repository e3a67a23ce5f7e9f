"""The sharded graph engine: partition rule, scatter-gather, mutations.

The governing property is *transparency*: ``GraphDatabase(shards=N)``
must answer every query exactly like the unsharded engine, on both
kernel paths, across mutations — the hypothesis oracle at the bottom
pins it.  Around that sit the boundary cases sharding introduces:
shards that own no vertices, shards that own exactly one, chains whose
every hop crosses a shard boundary, vocabulary changes that invalidate
every shard at once, and the disk backend's per-shard files.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import relation as rel
from repro.api import GraphDatabase
from repro.config import ServiceConfig
from repro.errors import ValidationError
from repro.graph.examples import figure1_graph
from repro.graph.generators import advogato_like
from repro.graph.graph import Graph, LabelPath
from repro.indexes.builder import path_relations, path_relations_columnar
from repro.indexes.pathindex import PathIndex
from repro.rpq.semantics import eval_query
from repro.sharding import ShardedGraph, ShardMembership, shard_of
from repro.write import Mutation, delta

from tests.strategies import graphs, label_paths

STRATEGIES = ("naive", "semi-naive", "minsupport", "minjoin")


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


BOTH_PATHS = pytest.mark.parametrize(
    "pure_python", [False, True], ids=["vectorized", "scalar"]
)


def chain_graph(length: int, label: str = "a") -> Graph:
    """A directed path ``n0 -> n1 -> ... -> n<length>``."""
    graph = Graph()
    for i in range(length):
        graph.add_edge(f"n{i}", label, f"n{i + 1}")
    return graph


# -- the partition rule -------------------------------------------------------


def test_shard_of_is_deterministic_total_and_balanced():
    owners = [shard_of(node, 4) for node in range(4000)]
    assert owners == [shard_of(node, 4) for node in range(4000)]
    assert set(owners) <= set(range(4))
    counts = [owners.count(shard) for shard in range(4)]
    # A multiplicative hash over dense ids should stay within a loose
    # band of the uniform share (1000 per shard here).
    assert min(counts) > 500 and max(counts) < 1500


def test_shard_membership_matches_shard_of():
    membership = ShardMembership(2, 5)
    contained = {node for node in range(200) if node in membership}
    assert contained == {node for node in range(200) if shard_of(node, 5) == 2}


@pytest.mark.skipif(rel._np is None, reason="numpy unavailable")
def test_shard_membership_mask_matches_contains():
    numpy = rel._np
    ids = numpy.arange(500, dtype=numpy.int64)
    membership = ShardMembership(1, 3)
    mask = membership.mask(ids)
    assert [bool(flag) for flag in mask] == [
        int(node) in membership for node in ids
    ]


def test_shard_scans_partition_the_unsharded_scan():
    graph = advogato_like(nodes=80, edges=400, seed=5)
    plain = PathIndex.build(graph, 2)
    sharded = ShardedGraph.build(graph, 2, shards=3)
    for path in plain.paths():
        whole = plain.scan(path)
        slices = [sharded.shard_scan(shard, path) for shard in range(3)]
        assert sum(len(piece) for piece in slices) == len(whole)
        merged = set()
        for shard, piece in enumerate(slices):
            pairs = piece.to_set()
            assert all(
                shard_of(source, 3) == shard for source, _ in pairs
            )
            merged |= pairs
        assert merged == whole.to_set()
        assert sharded.scan(path) == whole
        assert sharded.scan_swapped(path) == plain.scan_swapped(path)
        assert sharded.count(path) == plain.count(path)


def test_shard_scan_swapped_is_target_sorted():
    graph = advogato_like(nodes=60, edges=300, seed=9)
    sharded = ShardedGraph.build(graph, 2, shards=4)
    path = LabelPath.of("master", "journeyer")
    for shard in range(4):
        piece = sharded.shard_scan_swapped(shard, path)
        pairs = piece.pairs()
        assert pairs == sorted(pairs, key=lambda pair: (pair[1], pair[0]))


# -- builder restriction ------------------------------------------------------


@BOTH_PATHS
def test_builder_sources_filter_tuple_and_columnar_agree(pure_python):
    graph = advogato_like(nodes=50, edges=260, seed=13)
    membership = ShardMembership(0, 3)
    with forced_path(pure_python):
        tuple_rows = {
            path.encode(): pairs
            for path, pairs in path_relations(graph, 2, sources=membership)
        }
        columnar_rows = {
            path.encode(): relation.pairs()
            for path, relation in path_relations_columnar(
                graph, 2, sources=membership
            )
        }
    assert tuple_rows == columnar_rows
    flat = [pair for pairs in tuple_rows.values() for pair in pairs]
    assert all(shard_of(source, 3) == 0 for source, _ in flat)


def test_from_relations_matches_build():
    """Tuple-list relations (the oracle builder's shape) load to the
    same index the columnar build produces."""
    graph = figure1_graph()
    built = PathIndex.build(graph, 2)
    loaded = PathIndex.from_relations(graph, 2, path_relations(graph, 2))
    assert loaded.counts_by_path() == built.counts_by_path()
    assert loaded.entry_count == built.entry_count
    for path in built.paths():
        assert loaded.scan(path) == built.scan(path)


# -- boundary topologies ------------------------------------------------------


def test_empty_and_single_vertex_shards():
    """More shards than vertices: every shard owns one vertex or none."""
    graph = chain_graph(3)  # four vertices, ids 0..3
    shards = 64
    owners = [shard_of(node, shards) for node in range(4)]
    assert len(set(owners)) == 4, "want pairwise-distinct owners"
    sharded = ShardedGraph.build(graph, 2, shards=shards)
    path = LabelPath.of("a", "a")
    assert sharded.scan(path).to_set() == {(0, 2), (1, 3)}
    for shard in range(shards):
        piece = sharded.shard_scan(shard, path)
        assert len(piece) <= 1  # a single-vertex shard holds <= 1 start
        if shard not in owners:
            assert len(piece) == 0
            assert sharded.shard_identity(shard) == []
    database = GraphDatabase(graph, k=2, config=ServiceConfig(shards=shards))
    for method in STRATEGIES:
        assert database.query("a/a/a", method=method, use_cache=False).pairs == {
            ("n0", "n3")
        }
        assert database.query("a*", method=method, use_cache=False).pairs == {
            (f"n{i}", f"n{j}") for i in range(4) for j in range(i, 4)
        }


def test_every_hop_crosses_shards():
    """A chain interleaved so consecutive vertices never share a shard."""
    shards = 2
    # Intern names in id order, picking ids whose owners alternate.
    wanted, ids, lane = [0, 1], [], 0
    candidate = 0
    while len(ids) < 6:
        if shard_of(candidate, shards) == wanted[lane]:
            ids.append(candidate)
            lane = 1 - lane
        candidate += 1
    graph = Graph()
    for node in range(max(ids) + 1):
        graph.add_node(f"n{node}")
    for left, right in zip(ids, ids[1:]):
        graph.add_edge(f"n{left}", "a", f"n{right}")
    owners = [shard_of(node, shards) for node in ids]
    assert all(x != y for x, y in zip(owners, owners[1:]))
    database = GraphDatabase(graph, k=2, config=ServiceConfig(shards=shards))
    oracle = GraphDatabase(graph, k=2, config=ServiceConfig(shards=1))
    for query in ("a/a", "a/a/a", "a/a/a/a/a", "a*", "^a/a"):
        for method in STRATEGIES:
            assert (
                database.query(query, method=method, use_cache=False).pairs
                == oracle.query(query, method=method, use_cache=False).pairs
            ), (query, method)
    start = f"n{ids[0]}"
    assert database.query_from(start, "a/a/a") == oracle.query_from(
        start, "a/a/a"
    )
    assert database.query_pair(start, f"n{ids[3]}", "a{3}") is True


def test_isolated_nodes_appear_in_identity_answers():
    graph = chain_graph(2)
    graph.add_node("loner")
    database = GraphDatabase(graph, k=2, config=ServiceConfig(shards=5))
    answer = database.query("a{0,1}", use_cache=False).pairs
    assert ("loner", "loner") in answer
    assert ("n0", "n0") in answer and ("n0", "n1") in answer


# -- facade parity ------------------------------------------------------------


def test_catalog_and_statistics_merge():
    graph = advogato_like(nodes=70, edges=350, seed=3)
    plain = PathIndex.build(graph, 2)
    sharded = ShardedGraph.build(graph, 2, shards=4)
    merged = sharded.counts_by_path()
    for encoded, count in merged.items():
        assert plain.counts_by_path().get(encoded, 0) == count
    nonzero = {
        encoded: count
        for encoded, count in plain.counts_by_path().items()
        if count
    }
    assert {k: v for k, v in merged.items() if v} == nonzero
    assert sharded.entry_count == plain.entry_count
    assert {p.encode() for p in sharded.paths()} >= set(nonzero)


def test_disk_backend_shards_and_rebuilds(tmp_path):
    graph = advogato_like(nodes=40, edges=200, seed=2)
    base = tmp_path / "index.db"
    database = GraphDatabase(
        graph, k=2, config=ServiceConfig(backend="disk", index_path=base, shards=3)
    )
    for shard in range(3):
        assert ShardedGraph.shard_index_path(base, shard).exists()
    oracle = GraphDatabase(
        advogato_like(nodes=40, edges=200, seed=2), k=2, config=ServiceConfig(shards=1)
    )
    query = "master/^journeyer"
    assert (
        database.query(query, use_cache=False).pairs
        == oracle.query(query, use_cache=False).pairs
    )
    database.apply(Mutation.add("extra", "master", "n0"))
    oracle.apply(Mutation.add("extra", "master", "n0"))
    assert (
        database.query(query, use_cache=False).pairs
        == oracle.query(query, use_cache=False).pairs
    )
    database.close()


# -- mutations and partial rebuilds -------------------------------------------


def mutation_oracle(graph: Graph, database: GraphDatabase, queries):
    # shards=1 pinned: the oracle must stay the unsharded engine even
    # under the REPRO_DEFAULT_SHARDS stress knob.
    fresh = GraphDatabase(graph, k=database.k, config=ServiceConfig(shards=1))
    for query in queries:
        assert (
            database.query(query, use_cache=False).pairs
            == fresh.query(query, use_cache=False).pairs
        ), query


MUTATION_QUERIES = ("a/a", "a/^a", "b/a", "a*", "(a|b){1,3}")


def test_add_edge_patches_shards_in_place():
    graph = advogato_like(
        nodes=50, edges=150, seed=4, labels=("a", "b", "c")
    )
    database = GraphDatabase(
        graph, config=ServiceConfig(k=2, shards=4)
    )
    sharded = database.index
    assert isinstance(sharded, ShardedGraph)
    before = sharded.shard_indexes
    result = database.apply(Mutation.add("n1", "a", "n2"))
    assert result.changed and result.mode == "patch"
    # Delta patching edits the touched shards' B+trees in place: no
    # shard index object is replaced, and the patched shards are a
    # subset of the mutation ball.
    after = database.index.shard_indexes
    touched = sharded.shards_touching(
        (graph.node_id("n1"), graph.node_id("n2"))
    )
    assert touched, "the mutated endpoints must touch some shard"
    assert all(old is new for old, new in zip(before, after))
    assert set(result.patched_shards) <= set(touched)
    mutation_oracle(graph, database, MUTATION_QUERIES)


def test_add_edge_ball_rebuild_without_patching(monkeypatch):
    graph = advogato_like(
        nodes=50, edges=150, seed=4, labels=("a", "b", "c")
    )
    # A zero dirty-pair budget: every changed group overflows into the
    # ball rebuild.
    monkeypatch.setattr(delta, "MAX_DIRTY_PAIRS", 0)
    database = GraphDatabase(
        graph, config=ServiceConfig(k=2, shards=4)
    )
    sharded = database.index
    before = sharded.shard_indexes
    result = database.apply(Mutation.add("n1", "a", "n2"))
    assert result.changed and result.mode == "rebuild"
    after = database.index.shard_indexes
    touched = sharded.shards_touching(
        (graph.node_id("n1"), graph.node_id("n2"))
    )
    replaced = {
        shard
        for shard, (old, new) in enumerate(zip(before, after))
        if old is not new
    }
    assert replaced == set(touched)
    mutation_oracle(graph, database, MUTATION_QUERIES)


def test_mutations_match_fresh_unsharded_engine():
    graph = advogato_like(nodes=40, edges=120, seed=6, labels=("a", "b"), label_weights=None)
    database = GraphDatabase(graph, k=2, config=ServiceConfig(shards=3))
    assert database.apply(Mutation.add("n3", "a", "n17")).changed
    mutation_oracle(graph, database, MUTATION_QUERIES)
    # Duplicate: no-op.
    assert not database.apply(Mutation.add("n3", "a", "n17")).changed
    assert database.apply(Mutation.remove("n3", "a", "n17")).changed
    mutation_oracle(graph, database, MUTATION_QUERIES)
    # Absent: no-op.
    assert not database.apply(Mutation.remove("n3", "a", "n17")).changed
    # New node: still answered exactly, identity included.
    assert database.apply(Mutation.add("brand-new", "b", "n0")).changed
    mutation_oracle(graph, database, MUTATION_QUERIES)


def test_new_label_forces_full_rebuild_and_stays_exact():
    graph = advogato_like(nodes=30, edges=90, seed=8, labels=("a", "b"), label_weights=None)
    database = GraphDatabase(graph, k=2, config=ServiceConfig(shards=3))
    sharded = database.index
    assert database.apply(Mutation.add("n0", "zzz", "n1")).changed
    rebuilt = database.index
    assert rebuilt is not sharded  # vocabulary change: whole new index
    assert rebuilt.alphabet == graph.labels()
    mutation_oracle(graph, database, MUTATION_QUERIES + ("zzz/a", "zzz*"))
    # Removing the label's only edge shrinks the vocabulary again.
    assert database.apply(Mutation.remove("n0", "zzz", "n1")).changed
    assert database.index.alphabet == graph.labels()
    mutation_oracle(graph, database, MUTATION_QUERIES)


def test_rebuild_shards_guards_against_alphabet_drift():
    graph = advogato_like(nodes=20, edges=60, seed=1, labels=("a", "b"), label_weights=None)
    sharded = ShardedGraph.build(graph, 2, shards=2)
    graph.add_edge("n0", "fresh", "n1")
    with pytest.raises(ValidationError):
        sharded.rebuild_shards([0])


def test_shards_touching_radius():
    graph = chain_graph(6)
    sharded = ShardedGraph.build(graph, 1, shards=3)
    # k=1: only the endpoints' own shards are affected.
    assert sharded.shards_touching((2, 3)) == {shard_of(2, 3), shard_of(3, 3)}
    wide = ShardedGraph.build(graph, 3, shards=3)
    ball = wide.shards_touching((3,))
    assert ball == {shard_of(node, 3) for node in (1, 2, 3, 4, 5)}


def test_query_cache_survives_sharded_mutations():
    graph = advogato_like(nodes=30, edges=90, seed=12, labels=("a", "b"), label_weights=None)
    database = GraphDatabase(graph, k=2, config=ServiceConfig(shards=3))
    first = database.query("a/b")
    again = database.query("a/b")
    assert again.cached and again.pairs == first.pairs
    if not database.apply(Mutation.add("n0", "a", "n1")).changed:
        database.apply(Mutation.remove("n0", "a", "n1"))
    refreshed = database.query("a/b")
    assert not refreshed.cached
    mutation_oracle(graph, database, ("a/b",))


# -- scatter-gather internals -------------------------------------------------


def test_scattered_execution_shares_global_subtrees():
    graph = advogato_like(nodes=60, edges=300, seed=17)
    database = GraphDatabase(graph, k=2, config=ServiceConfig(shards=4))
    report = database.query(
        "master/journeyer/apprentice", use_cache=False
    ).report
    assert report is not None
    # The gather side of each join is executed once and memoized; the
    # other three shard executions hit the memo.
    assert report.scan_memo_hits >= 3


def test_sharded_star_routes_through_global_closure():
    # A two-shard cycle: shard-local closure would terminate early and
    # miss every cross-shard round trip; the global closure must not.
    shards = 2
    ids, lane, candidate = [], 0, 0
    while len(ids) < 4:
        if shard_of(candidate, shards) == lane % 2:
            ids.append(candidate)
            lane += 1
        candidate += 1
    graph = Graph()
    for node in range(max(ids) + 1):
        graph.add_node(f"n{node}")
    cycle = ids + [ids[0]]
    for left, right in zip(cycle, cycle[1:]):
        graph.add_edge(f"n{left}", "a", f"n{right}")
    database = GraphDatabase(graph, k=2, config=ServiceConfig(shards=shards))
    answer = database.query("a*", use_cache=False).pairs
    for left in ids:
        for right in ids:
            assert (f"n{left}", f"n{right}") in answer


# -- the transparency oracle --------------------------------------------------


@BOTH_PATHS
@settings(max_examples=40, deadline=None)
@given(
    graph=graphs(max_nodes=7, max_edges=14),
    path=label_paths(max_length=4),
    shards=st.sampled_from((2, 3, 5)),
    method=st.sampled_from(STRATEGIES),
)
def test_sharded_answers_equal_unsharded_oracle(
    pure_python, graph, path, shards, method
):
    """``shards=N`` is bit-identical to ``shards=1`` on every method.

    The query is a random label path (the normal-form core every RPQ
    reduces to); the unsharded side is additionally pinned to the
    independent tuple-set semantics, so a bug that broke both engines
    identically would still be caught.
    """
    query = "/".join(str(step) for step in path)
    with forced_path(pure_python):
        oracle = GraphDatabase(graph, k=2, config=ServiceConfig(shards=1))
        sharded = GraphDatabase(graph, k=2, config=ServiceConfig(shards=shards))
        expected = oracle.query(query, method=method, use_cache=False).pairs
        answer = sharded.query(query, method=method, use_cache=False).pairs
    assert answer == expected
    assert expected == frozenset(eval_query(graph, query))


@BOTH_PATHS
@settings(max_examples=25, deadline=None)
@given(
    graph=graphs(max_nodes=6, max_edges=12),
    shards=st.sampled_from((2, 4)),
)
def test_sharded_star_and_point_lookups_equal_oracle(
    pure_python, graph, shards
):
    """Recursive queries and the point-lookup API agree with shards=1."""
    with forced_path(pure_python):
        oracle = GraphDatabase(graph, k=2, config=ServiceConfig(shards=1))
        sharded = GraphDatabase(graph, k=2, config=ServiceConfig(shards=shards))
        for query in ("(a|b)*", "a*/b", "c{0,2}"):
            assert (
                sharded.query(query, use_cache=False).pairs
                == oracle.query(query, use_cache=False).pairs
            ), query
        name = graph.node_name(0)
        assert sharded.query_from(name, "a/b") == oracle.query_from(
            name, "a/b"
        )
        for target in graph.node_names():
            assert sharded.query_pair(
                name, target, "a{1,2}"
            ) == oracle.query_pair(name, target, "a{1,2}")
