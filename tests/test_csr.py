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
from repro.errors import QueryTimeoutError
from repro.graph.graph import Graph, Step
from repro.relation import Order, Relation
from repro.rpq.semantics import (
    bounded_powers as set_bounded_powers,
    compose as set_compose,
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
    @pytest.mark.parametrize("low", [0, 1, 2])
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
        # Under low == 2 the extended sets of 0, 1, 2 and 6 are equal
        # ints, made one object.
        assert len(decoded) == len({frozenset(row) for row in rows.values()})
        assert len(decoded) == {0: 8, 1: 4, 2: 3}[low]

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


@st.composite
def layered_pairs(draw):
    """Pairs over ``n`` scattered ids: several cycles, self-loops, a long
    chain and sinks, wired forward between them.

    The ids are a random permutation.  The first groups of it close into
    cycles (one strongly connected component each, a one-node group only
    through a self-loop); the next 40 to 80 form a chain, long enough
    that the chain alone takes the vectorized emission; the rest are
    sinks.  Every other edge points forward in the permutation, so no
    component merges with another, and sinks are reached but never left.
    """
    n = draw(st.integers(75, 100))
    order = draw(st.permutations(range(n)))
    position = {node: index for index, node in enumerate(order)}
    pairs = set()
    start = 0
    for size in draw(st.lists(st.integers(1, 6), min_size=2, max_size=5)):
        group = order[start : start + size]
        start += size
        if len(group) > 1:
            pairs.update(zip(group, group[1:] + group[:1]))
    chain = order[start : start + draw(st.integers(40, n - start - 2))]
    pairs.update(zip(chain, chain[1:]))
    loops = draw(st.sets(st.sampled_from(order[: start + len(chain)]), max_size=6))
    pairs.update((node, node) for node in loops)
    for a, b in draw(st.lists(_pairs_below(n), max_size=40)):
        if position[a] < position[b]:
            pairs.add((a, b))
    return n, sorted(pairs)


def _graph_of(n: int) -> Graph:
    return _graph_with([(n - 1, n - 1)])


@BOTH_PATHS
class TestComponentsMatchOracle:
    """The condensation pass against the tuple-set oracle on graphs with
    self-loops, sinks, several components and a long chain."""

    @settings(max_examples=30, deadline=None)
    @given(layered_pairs(), st.integers(0, 3))
    def test_closure(self, pure_python, case, low):
        n, pairs = case
        graph = _graph_of(n)
        with forced_path(pure_python):
            result = csr.transitive_fixpoint(
                graph.node_ids(), Relation.from_pairs(pairs), low
            )
        assert result.to_set() == set_transitive_fixpoint(graph, set(pairs), low)
        assert result.pairs() == sorted(result.to_set())

    @settings(max_examples=30, deadline=None)
    @given(layered_pairs(), st.integers(0, 2), st.data())
    def test_right_operand(self, pure_python, case, low, data):
        n, pairs = case
        right = sorted(data.draw(st.sets(_pairs_below(n), max_size=60)))
        graph = _graph_of(n)
        with forced_path(pure_python):
            result = csr.transitive_fixpoint(
                graph.node_ids(),
                Relation.from_pairs(pairs),
                low,
                right=Relation.from_pairs(right),
            )
        closure = set_transitive_fixpoint(graph, set(pairs), low)
        assert result.to_set() == set_compose(closure, set(right))
        assert result.pairs() == sorted(result.to_set())


def _counting_decode(monkeypatch) -> list[int]:
    """Record each bitset :func:`repro.csr._decode` decodes."""
    decoded = []
    original = csr._decode
    monkeypatch.setattr(
        csr, "_decode", lambda bits: decoded.append(bits) or original(bits)
    )
    return decoded


@BOTH_PATHS
class TestEmission:
    """``_emit_bitsets`` writes the columns of its rows, decoding each
    distinct set object once wherever its sources sit."""

    def _emit(self, pure_python, answers, monkeypatch, **kwargs):
        decoded = _counting_decode(monkeypatch)
        with forced_path(pure_python):
            result = csr._emit_bitsets(answers, **kwargs)
        return result, decoded

    def test_equal_rows_of_non_adjacent_sources(self, pure_python, monkeypatch):
        shared = 0b1011_0001 << 60  # one object, a wide set
        other = 0b110
        answers = {9: shared, 3: other, 0: shared, 5: shared, 7: other, 8: 1 << 2}
        result, decoded = self._emit(pure_python, answers, monkeypatch)
        expected = sorted(
            (source, target)
            for source, bits in answers.items()
            for target in _decoded(bits)
        )
        assert list(result.src) == [source for source, _ in expected]
        assert list(result.tgt) == [target for _, target in expected]
        assert result.order is Order.BY_SRC
        assert sorted(decoded) == sorted([shared, other, 1 << 2])

    def test_every_source_shares_one_row(self, pure_python, monkeypatch):
        row = sum(1 << node for node in range(0, 150, 3))
        sources = list(range(0, 200, 2))
        result, decoded = self._emit(
            pure_python, {source: row for source in sources}, monkeypatch
        )
        targets = sorted(_decoded(row))
        assert list(result.src) == [s for s in sources for _ in targets]
        assert list(result.tgt) == targets * len(sources)
        assert decoded == [row]

    def test_identity_keeps_a_component_shared(self, pure_python, monkeypatch):
        """Under ``low == 0`` a cyclic component's members already reach
        themselves: their row stays one object, and only rows the
        identity widens decode on their own."""
        component = 0b0111  # 0, 1, 2 reach each other
        answers = {0: component, 1: component, 2: component, 4: 0b1000}
        result, decoded = self._emit(
            pure_python, answers, monkeypatch, identity_ids=range(6)
        )
        assert result.to_set() == {
            (s, t) for s in range(3) for t in range(3)
        } | {(4, 3), (4, 4), (3, 3), (5, 5)}
        assert decoded.count(component) == 1
        assert len(decoded) == 4  # the component, 4's widened row, 3 and 5


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
        """One power alone: ``bounded_powers`` with ``low == high``."""
        graph = _graph_with(pairs)
        with forced_path(pure_python):
            result = csr.bounded_powers(
                graph.node_ids(), Relation.from_pairs(pairs), exponent, exponent
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
    """The public :mod:`repro.relation` kernels are the CSR engine."""

    def test_dense_ids_route_to_csr(self, monkeypatch):
        calls = []
        original = csr.transitive_fixpoint
        monkeypatch.setattr(
            csr, "transitive_fixpoint",
            lambda *args: calls.append(args) or original(*args),
        )
        rel.transitive_fixpoint(range(3), Relation.from_pairs([(0, 1)]), 1)
        assert len(calls) == 1


# -- a left operand: ``left / base{low,}`` ------------------------------------


def _pairs_below(n: int):
    return st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))


@st.composite
def dense_left(draw):
    """``(n, left, base)`` on the fold's side of the density rule.

    The base holds a cycle through every node, so every row is all of
    ``range(n)``: ``n <= 64`` makes that one word, and every left pair
    produces ``n >= 1`` pairs through the compose.
    """
    n = draw(st.integers(2, 40))
    order = draw(st.permutations(range(n)))
    base = set(zip(order, order[1:] + order[:1]))
    base.update(draw(st.sets(_pairs_below(n), max_size=20)))
    left = draw(st.sets(_pairs_below(n), min_size=1, max_size=30))
    return n, sorted(left), sorted(base)


@st.composite
def wide_sparse_left(draw):
    """``(n, left, base)`` on the compose's side of the density rule.

    The half-shift ``u -> u + n/2`` over ``n > 128`` ids: every row holds
    at most one reached node (plus its own under ``low == 0``) but spans
    ``⌈n/64⌉ >= 3`` words.
    """
    n = 2 * draw(st.integers(65, 100))
    left = draw(st.sets(_pairs_below(n), min_size=1, max_size=40))
    return n, sorted(left), [(u, u + n // 2) for u in range(n // 2)]


class _CountingCompose:
    """Counts :func:`repro.relation.compose` calls while active."""

    def __enter__(self):
        self.calls = 0
        self.original = rel.compose

        def counting(left, right):
            self.calls += 1
            return self.original(left, right)

        rel.compose = counting
        return self

    def __exit__(self, *exc):
        rel.compose = self.original


def _left_matches_compose(pure_python, n, left_pairs, base_pairs, low):
    """Run ``left=`` against compose-after; return the compose calls made."""
    ids = range(n)
    left = Relation.from_pairs(left_pairs)
    base = Relation.from_pairs(base_pairs)
    with forced_path(pure_python):
        expected = rel.compose(left, csr.transitive_fixpoint(ids, base, low))
        with _CountingCompose() as counter:
            result = csr.transitive_fixpoint(ids, base, low, left=left)
    assert result.to_set() == expected.to_set()
    assert len(result.pairs()) == len(set(result.pairs()))
    return counter.calls


@BOTH_PATHS
class TestLeftOperand:
    """``transitive_fixpoint(ids, base, low, left=L)`` is
    ``compose(L, transitive_fixpoint(ids, base, low))`` on both sides of
    the density rule."""

    @settings(max_examples=40, deadline=None)
    @given(PAIRS, PAIRS, st.integers(0, 3))
    def test_random(self, pure_python, left, base, low):
        _left_matches_compose(pure_python, 12, left, base, low)

    @settings(max_examples=30, deadline=None)
    @given(dense_left(), st.integers(0, 3))
    def test_dense_folds(self, pure_python, case, low):
        n, left, base = case
        assert _left_matches_compose(pure_python, n, left, base, low) == 0

    @settings(max_examples=20, deadline=None)
    @given(wide_sparse_left(), st.integers(0, 3))
    def test_wide_sparse_composes(self, pure_python, case, low):
        n, left, base = case
        assert _left_matches_compose(pure_python, n, left, base, low) == 1

    @pytest.mark.parametrize("low", [0, 1, 2, 3])
    def test_empty_left(self, pure_python, low):
        with forced_path(pure_python):
            result = csr.transitive_fixpoint(
                range(12), Relation.from_pairs(MIXED), low, left=Relation.empty()
            )
        assert not result

    @pytest.mark.parametrize("low", [0, 1, 2, 3])
    def test_left_targets_without_reach(self, pure_python, low):
        """Targets outside the base reach nothing: only ``low == 0``'s
        identity keeps a pair, and a target outside ``node_ids`` not even that."""
        left = [(0, 20), (1, 21), (2, 29), (3, 31)]
        _left_matches_compose(pure_python, 30, left, MIXED, low)
        with forced_path(pure_python):
            result = csr.transitive_fixpoint(
                range(30), Relation.from_pairs(MIXED), low,
                left=Relation.from_pairs(left),
            )
        assert result.to_set() == ({(0, 20), (1, 21), (2, 29)} if low == 0 else set())

    @pytest.mark.parametrize("low", [0, 1, 2])
    def test_empty_base(self, pure_python, low):
        left = [(0, 1), (1, 2)]
        _left_matches_compose(pure_python, 4, left, [], low)

    def test_deadline_is_checked_per_left_source(self, pure_python):
        n = 8
        base = Relation.from_pairs([(i, (i + 1) % n) for i in range(n)])
        left = Relation.from_pairs([(s, t) for s in range(n) for t in range(2)])
        with forced_path(pure_python):
            reach = csr.Reach().fill(range(n), base)
            counted = _ExpiresOnCheck(10**9)
            csr.partitioned_closure(
                range(n), (), 1, deadline=counted, left=left, reach=reach
            )
            assert counted.checks == n  # the closure came from ``reach``
            with pytest.raises(QueryTimeoutError):
                csr.partitioned_closure(
                    range(n), (), 1, deadline=_ExpiresOnCheck(n),
                    left=left, reach=reach,
                )


def _right_matches_oracle(pure_python, n, base_pairs, right_pairs, low, left_pairs=None):
    """Run ``right=`` (and ``left=``) against the tuple-set oracle."""
    graph = _graph_of(n)
    left = None if left_pairs is None else Relation.from_pairs(left_pairs)
    with forced_path(pure_python):
        result = csr.transitive_fixpoint(
            graph.node_ids(),
            Relation.from_pairs(base_pairs),
            low,
            left=left,
            right=Relation.from_pairs(right_pairs),
        )
    expected = set_compose(
        set_transitive_fixpoint(graph, set(base_pairs), low), set(right_pairs)
    )
    if left_pairs is not None:
        expected = set_compose(set(left_pairs), expected)
    assert result.to_set() == expected
    assert result.pairs() == sorted(expected)
    return result


@BOTH_PATHS
class TestRightOperand:
    """``transitive_fixpoint(ids, base, low, right=R)`` is ``base{low,} / R``,
    closed in one seeded pass, against the tuple-set oracle."""

    @settings(max_examples=40, deadline=None)
    @given(PAIRS, PAIRS, st.integers(0, 1))
    def test_random(self, pure_python, base, right, low):
        _right_matches_oracle(pure_python, 12, base, right, low)

    @settings(max_examples=20, deadline=None)
    @given(PAIRS, PAIRS, st.integers(2, 3))
    def test_random_high_low(self, pure_python, base, right, low):
        _right_matches_oracle(pure_python, 12, base, right, low)

    @pytest.mark.parametrize("low", [0, 1])
    def test_mixed_components(self, pure_python, low):
        right = [(0, 11), (3, 10), (5, 0), (8, 8), (9, 1), (9, 2)]
        _right_matches_oracle(pure_python, 12, MIXED, right, low)

    @pytest.mark.parametrize("low", [0, 1, 2])
    def test_empty_right(self, pure_python, low, monkeypatch):
        calls = []
        monkeypatch.setattr(csr, "closure_bitsets", lambda *a, **k: calls.append(1))
        with forced_path(pure_python):
            result = csr.transitive_fixpoint(
                range(12), Relation.from_pairs(MIXED), low, right=Relation.empty()
            )
        assert not result
        assert not calls  # an empty right operand closes nothing

    @pytest.mark.parametrize("low", [0, 1])
    def test_rows_of_nodes_outside_the_base(self, pure_python, low):
        """``R``-rows of nodes the base never touches (10, 11) count only
        under ``low == 0``'s identity; a row of a node outside
        ``node_ids`` (40) never does."""
        right = [(10, 3), (11, 11), (40, 1), (4, 30)]
        result = _right_matches_oracle(pure_python, 12, MIXED, right, low)
        assert ((10, 3) in result.to_set()) == (low == 0)
        assert not any(source == 40 for source, _ in result.pairs())

    @pytest.mark.parametrize("low", [0, 1, 2])
    def test_left_and_right(self, pure_python, low):
        left = [(0, 6), (1, 7), (2, 3), (9, 9), (11, 4)]
        right = [(0, 1), (3, 5), (5, 8), (9, 11), (8, 2)]
        _right_matches_oracle(pure_python, 12, MIXED, right, low, left_pairs=left)

    @settings(max_examples=30, deadline=None)
    @given(dense_left(), st.integers(0, 1), st.data())
    def test_left_and_right_dense(self, pure_python, case, low, data):
        n, left, base = case
        right = sorted(data.draw(st.sets(_pairs_below(n), min_size=1, max_size=30)))
        _right_matches_oracle(pure_python, n, base, right, low, left_pairs=left)

    def test_a_filled_reach_is_seeded_without_closing_it(self, pure_python):
        """A right operand closes its own seeded pass over the kept CSR:
        the reach's plain bitsets are closed only when a closure without
        one needs them."""
        base = Relation.from_pairs(MIXED)
        right = Relation.from_pairs([(3, 0), (7, 9)])
        reach = csr.Reach()
        with forced_path(pure_python):
            seeded = csr.partitioned_closure(range(12), [base], 1, right=right, reach=reach)
            assert reach.filled and reach.bits is None
            plain = csr.partitioned_closure(range(12), (), 1, reach=reach)
        assert reach.bits is not None
        assert seeded.to_set() == rel.compose(plain, right).to_set()


class TestReach:
    def test_a_filled_reach_skips_the_condensation(self, monkeypatch):
        base = Relation.from_pairs(MIXED)
        left = Relation.from_pairs([(9, 0), (8, 3)])
        expected = {
            low: csr.transitive_fixpoint(range(12), base, low) for low in range(4)
        }
        calls = []
        original = csr.closure_bitsets
        monkeypatch.setattr(
            csr, "closure_bitsets",
            lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs),
        )
        reach = csr.Reach()
        alone = csr.partitioned_closure(range(12), [base], 0, reach=reach)
        assert reach.filled
        # A filled reach is closed from as it is: no parts are read.
        results = {
            low: csr.partitioned_closure(range(12), (), low, reach=reach)
            for low in (1, 2, 3)
        }
        folded = {
            low: csr.partitioned_closure(range(12), (), low, left=left, reach=reach)
            for low in range(4)
        }
        assert len(calls) == 1  # every low, with or without left, shares it
        assert alone.to_set() == expected[0].to_set()
        for low, result in results.items():
            assert result.to_set() == expected[low].to_set()
        for low, result in folded.items():
            assert result.to_set() == rel.compose(left, expected[low]).to_set()

    def test_an_empty_base_fills_an_empty_reach(self):
        reach = csr.Reach()
        identity = csr.partitioned_closure(range(3), [Relation.empty()], 0, reach=reach)
        assert identity.to_set() == {(0, 0), (1, 1), (2, 2)}
        assert not csr.partitioned_closure(range(3), (), 1, reach=reach)
