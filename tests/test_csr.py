"""Tests for the CSR closure engine (:mod:`repro.csr`).

The builder is pinned against a direct adjacency construction; the
frontier fixpoint, bounded powers and relation power are property-tested
against the tuple-set oracle in :mod:`repro.rpq.semantics` — on both
the numpy-assisted and pure-Python paths, on graphs that include
self-loops and cycles, and with ``low > 1`` seeds.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import csr
from repro import relation as rel
from repro.errors import QueryTimeoutError, ValidationError
from repro.graph.graph import Graph, Step
from repro.relation import Order, Relation
from repro.rpq.semantics import (
    bounded_powers as set_bounded_powers,
    relation_power as set_relation_power,
    transitive_fixpoint as set_transitive_fixpoint,
)

from tests.strategies import graphs
from tests.test_relation import forced_path

#: Pairs over a small dense id space; self-loops are frequent.
PAIRS = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30
).map(lambda pairs: sorted(set(pairs)))

BOTH_PATHS = pytest.mark.parametrize(
    "pure_python", [False, True], ids=["vectorized", "scalar"]
)


def _graph_with(pairs, extra_nodes: int = 0) -> Graph:
    """A graph interning ids 0..max covering ``pairs`` (plus spares)."""
    bound = max((max(a, b) for a, b in pairs), default=-1) + 1 + extra_nodes
    graph = Graph()
    for i in range(bound):
        graph.add_node(f"n{i}")
    return graph


class TestBuilder:
    def test_offsets_and_neighbors(self):
        pairs = [(0, 1), (0, 3), (2, 2), (4, 0)]
        built = csr.CSR.from_relation(Relation.from_pairs(pairs))
        assert built.n == 5
        assert len(built) == 4
        assert list(built.offsets) == [0, 2, 2, 3, 3, 4]
        assert list(built.neighbors(0)) == [1, 3]
        assert list(built.neighbors(1)) == []
        assert list(built.neighbors(2)) == [2]
        assert built.out_degree(4) == 1

    def test_unsorted_input_is_sorted_and_deduplicated(self):
        shuffled = Relation.from_pairs([(3, 0), (1, 2), (3, 0), (1, 1)])
        built = csr.CSR.from_relation(shuffled)
        assert built.relation.pairs() == [(1, 1), (1, 2), (3, 0)]
        assert built.relation.order is Order.BY_SRC

    def test_widened_id_space(self):
        built = csr.CSR.from_relation(Relation.from_pairs([(0, 1)]), n=7)
        assert built.n == 7
        assert built.out_degree(6) == 0

    def test_transpose(self):
        pairs = [(0, 1), (0, 2), (2, 1)]
        transposed = csr.CSR.from_relation(Relation.from_pairs(pairs)).transpose()
        assert transposed.relation.to_set() == {(1, 0), (2, 0), (1, 2)}
        assert list(transposed.neighbors(1)) == [0, 2]

    def test_adjacency_bitsets(self):
        built = csr.CSR.from_relation(Relation.from_pairs([(0, 1), (0, 3), (2, 0)]))
        assert built.adjacency_bitsets() == {0: 0b1010, 2: 0b1}

    def test_sparse_ids_rejected(self):
        huge = Relation.from_pairs([(csr.MAX_DENSE_NODE + 1, 0)])
        with pytest.raises(ValidationError):
            csr.CSR.from_relation(huge)
        assert not csr.supports(range(0), huge)

    @settings(max_examples=40, deadline=None)
    @given(PAIRS)
    def test_builder_matches_adjacency(self, pairs):
        built = csr.CSR.from_relation(Relation.from_pairs(pairs))
        for node in range(built.n):
            expected = sorted(b for a, b in pairs if a == node)
            assert list(built.neighbors(node)) == expected


@st.composite
def condensable_pairs(draw):
    """Pairs over 0..11 mixing cycles, self-loops and DAG tails.

    Cycles run over disjoint node groups.  Tail edges point from a lower
    to a higher id, so among themselves they close no cycle, but with
    the cycle edges they may merge groups into larger components.
    """
    nodes = draw(st.permutations(range(12)))
    sizes = draw(st.lists(st.integers(1, 4), max_size=4))
    pairs = set()
    start = 0
    for size in sizes:
        group = nodes[start : start + size]
        start += size
        if len(group) > 1:
            pairs.update(zip(group, group[1:] + group[:1]))
    loops = draw(st.sets(st.integers(0, 11), max_size=3))
    pairs.update((node, node) for node in loops)
    tails = draw(
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=12)
    )
    pairs.update((min(a, b), max(a, b)) for a, b in tails if a != b)
    return sorted(pairs)


def _decoded(bits: int) -> set[int]:
    return {node for node in range(bits.bit_length()) if bits >> node & 1}


class _ExpiresOnCheck:
    """A deadline whose ``nth`` call to :meth:`check` raises."""

    def __init__(self, nth: int) -> None:
        self.nth = nth
        self.checks = 0

    def check(self) -> None:
        self.checks += 1
        if self.checks >= self.nth:
            raise QueryTimeoutError(f"expired on check {self.checks}")


#: Two 3-cycles (one with a self-loop), a bridge from the first to the
#: second, a two-node DAG tail into the first and two leaves.
MIXED = [
    (0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 5),
    (6, 0), (6, 9), (7, 6), (4, 8),
]


class TestCondensation:
    @settings(max_examples=80, deadline=None)
    @given(condensable_pairs())
    def test_reach_matches_oracle_and_components_share_one_set(self, pairs):
        built = csr.CSR.from_relation(Relation.from_pairs(pairs))
        reach = csr.closure_bitsets(built)
        closure = set_transitive_fixpoint(_graph_with(pairs), set(pairs), 1)
        sources = {a for a, _ in pairs}
        assert set(reach) == sources
        for source in sources:
            expected = {b for a, b in closure if a == source}
            assert _decoded(reach[source]) == expected
        for a, b in closure:
            if a != b and (b, a) in closure:
                assert reach[a] is reach[b]

    def test_dag_components_are_singletons(self):
        chain = Relation.from_pairs([(0, 1), (1, 2), (2, 3)])
        reach = csr.closure_bitsets(csr.CSR.from_relation(chain))
        assert {node: _decoded(bits) for node, bits in reach.items()} == {
            0: {1, 2, 3}, 1: {2, 3}, 2: {3},
        }
        assert len({id(bits) for bits in reach.values()}) == 3

    def test_long_chain_needs_no_recursion(self):
        n = 20_000
        chain = Relation.from_pairs([(i, i + 1) for i in range(n - 1)])
        reach = csr.closure_bitsets(csr.CSR.from_relation(chain))
        assert len(reach) == n - 1
        assert reach[0] == (1 << n) - 2
        assert reach[n - 2] == 1 << (n - 1)

    def test_large_cycle_needs_no_recursion(self):
        n = 50_000
        cycle = Relation.from_pairs([(i, (i + 1) % n) for i in range(n)])
        reach = csr.closure_bitsets(csr.CSR.from_relation(cycle))
        assert len(reach) == n
        assert len({id(bits) for bits in reach.values()}) == 1
        assert reach[0] == (1 << n) - 1

    @BOTH_PATHS
    @pytest.mark.parametrize("low", [0, 1, 2, 3])
    def test_low_seeds_match_oracle(self, pure_python, low):
        graph = _graph_with(MIXED, extra_nodes=2)
        with forced_path(pure_python):
            result = csr.transitive_fixpoint(
                graph.node_ids(), Relation.from_pairs(MIXED), low
            )
        assert result.to_set() == set_transitive_fixpoint(graph, set(MIXED), low)
        assert result.pairs() == sorted(result.to_set())

    @BOTH_PATHS
    @pytest.mark.parametrize("low", [0, 1])
    def test_emit_decodes_each_reach_set_once(
        self, pure_python, low, monkeypatch
    ):
        decoded = []
        original = csr._decode
        monkeypatch.setattr(
            csr, "_decode", lambda bits: decoded.append(bits) or original(bits)
        )
        graph = _graph_with(MIXED, extra_nodes=2)
        with forced_path(pure_python):
            result = csr.transitive_fixpoint(
                graph.node_ids(), Relation.from_pairs(MIXED), low
            )
        rows: dict[int, set[int]] = {}
        for a, b in result.pairs():
            rows.setdefault(a, set()).add(b)
        # {0,1,2} share one set and {3,4,5} another; 6 and 7 have their
        # own, and under low == 0 so do the identity rows of 8 to 11.
        assert len(decoded) == len({frozenset(row) for row in rows.values()})
        assert len(decoded) == (8 if low == 0 else 4)

    @pytest.mark.parametrize("low", [2, 3])
    def test_deadline_is_checked_after_the_closure(self, low):
        base = Relation.from_pairs(MIXED)
        built = csr.CSR.from_relation(base)
        in_closure = _ExpiresOnCheck(10**9)
        csr.closure_bitsets(built, deadline=in_closure)
        total = _ExpiresOnCheck(10**9)
        csr.transitive_fixpoint(range(10), base, low, deadline=total)
        assert total.checks > in_closure.checks
        for nth in range(1, total.checks + 1):
            with pytest.raises(QueryTimeoutError):
                csr.transitive_fixpoint(
                    range(10), base, low, deadline=_ExpiresOnCheck(nth)
                )


@BOTH_PATHS
class TestClosureMatchesOracle:
    @settings(max_examples=50, deadline=None)
    @given(PAIRS, st.integers(0, 3))
    def test_transitive_fixpoint(self, pure_python, pairs, low):
        graph = _graph_with(pairs, extra_nodes=1)
        with forced_path(pure_python):
            result = csr.transitive_fixpoint(
                graph.node_ids(), Relation.from_pairs(pairs), low
            )
        assert result.to_set() == set_transitive_fixpoint(
            graph, set(pairs), low
        )
        assert result.order is Order.BY_SRC
        assert result.pairs() == sorted(set(result.pairs()))

    @settings(max_examples=50, deadline=None)
    @given(PAIRS, st.integers(0, 3), st.integers(0, 4))
    def test_bounded_powers(self, pure_python, pairs, low, extra):
        graph = _graph_with(pairs)
        with forced_path(pure_python):
            result = csr.bounded_powers(
                graph.node_ids(), Relation.from_pairs(pairs), low, low + extra
            )
        assert result.to_set() == set_bounded_powers(
            graph, set(pairs), low, low + extra
        )

    @settings(max_examples=50, deadline=None)
    @given(PAIRS, st.integers(0, 4))
    def test_relation_power(self, pure_python, pairs, exponent):
        graph = _graph_with(pairs)
        with forced_path(pure_python):
            result = csr.relation_power(
                graph.node_ids(), Relation.from_pairs(pairs), exponent
            )
        assert result.to_set() == set_relation_power(
            graph, set(pairs), exponent
        )

    @settings(max_examples=25, deadline=None)
    @given(graphs(max_nodes=7, max_edges=14), st.integers(0, 2))
    def test_fixpoint_on_random_labeled_graphs(self, pure_python, graph, low):
        edges = set()
        for label in graph.labels():
            edges.update(graph.step_pairs(Step(label)))
        with forced_path(pure_python):
            result = csr.transitive_fixpoint(
                graph.node_ids(), Relation.from_pairs(sorted(edges)), low
            )
        assert result.to_set() == set_transitive_fixpoint(graph, edges, low)

    def test_cycle_with_high_low_seed(self, pure_python):
        """A pure cycle with a low > 1 seed exercises the power-seeded
        closure: every node reaches every node regardless of low."""
        cycle = [(i, (i + 1) % 5) for i in range(5)]
        graph = _graph_with(cycle)
        with forced_path(pure_python):
            result = csr.transitive_fixpoint(
                graph.node_ids(), Relation.from_pairs(cycle), low=3
            )
        assert result.to_set() == {(a, b) for a in range(5) for b in range(5)}

    def test_self_loop_only(self, pure_python):
        loop = Relation.from_pairs([(2, 2)])
        with forced_path(pure_python):
            result = csr.transitive_fixpoint(range(4), loop, low=1)
        assert result.to_set() == {(2, 2)}


class TestRelationDelegation:
    """The public :mod:`repro.relation` kernels route through CSR."""

    def test_dense_ids_route_to_csr(self, monkeypatch):
        calls = []
        original = csr.transitive_fixpoint
        monkeypatch.setattr(
            csr, "transitive_fixpoint",
            lambda *args: calls.append(args) or original(*args),
        )
        rel.transitive_fixpoint(range(3), Relation.from_pairs([(0, 1)]), 1)
        assert len(calls) == 1

    def test_sparse_ids_fall_back_to_delta(self):
        """Ids beyond the dense bound still evaluate (via delta)."""
        huge = csr.MAX_DENSE_NODE + 17
        base = Relation.from_pairs([(huge, huge + 1), (huge + 1, huge + 2)])
        result = rel.transitive_fixpoint([], base, 1)
        assert result.to_set() == {
            (huge, huge + 1), (huge + 1, huge + 2), (huge, huge + 2),
        }

    def test_delta_twins_still_agree(self):
        """The benchmark baseline stays semantically equivalent."""
        pairs = [(0, 1), (1, 2), (2, 0), (3, 3)]
        base = Relation.from_pairs(pairs)
        for low in (0, 1, 2):
            assert (
                rel.delta_transitive_fixpoint(range(5), base, low).to_set()
                == csr.transitive_fixpoint(range(5), base, low).to_set()
            )
        assert (
            rel.delta_bounded_powers(range(5), base, 1, 4).to_set()
            == csr.bounded_powers(range(5), base, 1, 4).to_set()
        )
