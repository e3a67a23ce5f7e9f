"""Tests for the columnar relation core (:mod:`repro.relation`).

Every kernel is property-tested against the tuple-set reference
implementations in :mod:`repro.rpq.semantics` — the library's
correctness oracle — on both the vectorized (numpy) and pure-Python
fallback paths.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import relation as rel
from repro.errors import ExecutionError, ValidationError
from repro.indexes.pathindex import PathIndex
from repro.relation import Order, Relation
from repro.rpq.semantics import (
    bounded_powers as set_bounded_powers,
    compose as set_compose,
    eval_ast,
    eval_label_path,
    transitive_fixpoint as set_transitive_fixpoint,
)

from tests.strategies import graphs, label_paths, rpq_asts

PAIRS = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=30
).map(lambda pairs: sorted(set(pairs)))

#: Exercise both the numpy fast path and the scalar fallback.
BOTH_PATHS = pytest.mark.parametrize("pure_python", [False, True],
                                     ids=["vectorized", "scalar"])


@contextmanager
def forced_path(pure_python: bool):
    """Route kernels through one implementation path for the duration."""
    old_flag, old_min = rel._FORCE_PURE_PYTHON, rel._VECTOR_MIN
    rel._FORCE_PURE_PYTHON = pure_python
    if not pure_python:
        rel._VECTOR_MIN = 0  # let tiny inputs hit the vectorized kernels
    try:
        yield
    finally:
        rel._FORCE_PURE_PYTHON, rel._VECTOR_MIN = old_flag, old_min


def by_src(pairs) -> Relation:
    return Relation.from_pairs(sorted(pairs), Order.BY_SRC)


def by_tgt(pairs) -> Relation:
    return Relation.from_pairs(
        sorted(pairs, key=lambda pair: (pair[1], pair[0])), Order.BY_TGT
    )


class TestRelationType:
    def test_sequence_protocol(self):
        relation = Relation.from_pairs([(1, 2), (3, 4)])
        assert len(relation) == 2
        assert relation[0] == (1, 2)
        assert relation[0:2] == [(1, 2), (3, 4)]
        assert list(relation) == [(1, 2), (3, 4)]
        assert (3, 4) in relation
        assert (9, 9) not in relation
        assert relation == [(1, 2), (3, 4)]
        assert relation == Relation.from_pairs([(1, 2), (3, 4)])
        assert relation != [(1, 2)]

    def test_empty(self):
        empty = Relation.empty()
        assert len(empty) == 0 and not empty
        assert empty == []

    def test_column_length_mismatch_rejected(self):
        from array import array

        with pytest.raises(ValidationError):
            Relation(array("q", [1]), array("q"))

    def test_coerce_passthrough(self):
        relation = Relation.from_pairs([(1, 2)])
        assert Relation.coerce(relation) is relation
        assert Relation.coerce([(1, 2)]) == relation

    def test_out_of_range_ids_rejected(self):
        """Packed-key kernels would corrupt silently; fail loudly instead."""
        with pytest.raises(ValidationError):
            Relation.from_pairs([(2**32 + 1, 5)])
        with pytest.raises(ValidationError):
            Relation.from_pairs([(1, -2)])
        # The boundary values themselves are fine.
        edge = Relation.from_pairs([(0, 2**32 - 1)])
        assert edge.pairs() == [(0, 2**32 - 1)]

    def test_swap_flips_columns_and_order(self):
        relation = by_src([(1, 5), (2, 3)])
        swapped = rel.swap(relation)
        assert swapped.order is Order.BY_TGT
        assert set(swapped) == {(5, 1), (3, 2)}
        assert rel.swap(swapped).order is Order.BY_SRC

    def test_to_frozenset(self):
        assert Relation.from_pairs([(1, 2), (1, 2)]).to_frozenset() == {(1, 2)}


@BOTH_PATHS
class TestKernelsMatchOracle:
    @settings(max_examples=60, deadline=None)
    @given(PAIRS, PAIRS)
    def test_merge_join_matches_compose(self, pure_python, left, right):
        with forced_path(pure_python):
            result = rel.merge_join(by_tgt(left), by_src(right))
        assert result.to_set() == set_compose(set(left), set(right))

    @settings(max_examples=60, deadline=None)
    @given(PAIRS, PAIRS)
    def test_hash_join_matches_compose(self, pure_python, left, right):
        with forced_path(pure_python):
            result = rel.hash_join(
                Relation.from_pairs(left), Relation.from_pairs(right)
            )
        assert result.to_set() == set_compose(set(left), set(right))

    @settings(max_examples=60, deadline=None)
    @given(PAIRS, PAIRS)
    def test_compose_picks_algorithm_by_order(self, pure_python, left, right):
        with forced_path(pure_python):
            merged = rel.compose(by_tgt(left), by_src(right))
            hashed = rel.compose(
                Relation.from_pairs(left), Relation.from_pairs(right)
            )
        assert merged.to_set() == hashed.to_set() == set_compose(
            set(left), set(right)
        )

    @settings(max_examples=60, deadline=None)
    @given(PAIRS, PAIRS, PAIRS)
    def test_union_dedups_and_sorts(self, pure_python, a, b, c):
        with forced_path(pure_python):
            result = rel.union([Relation.from_pairs(p) for p in (a, b, c)])
        assert result.order is Order.BY_SRC
        assert result.to_set() == set(a) | set(b) | set(c)
        assert result.pairs() == sorted(result.to_set())

    def test_union_of_one_sorted_part_is_zero_copy(self, pure_python):
        """The single-disjunct fast path: already BY_SRC → returned as-is."""
        part = by_src([(1, 2), (3, 4)])
        with forced_path(pure_python):
            assert rel.union([part]) is part
            assert rel.union([part, Relation.empty()]) is part
            shuffled = rel.union([Relation.from_pairs([(3, 4), (1, 2), (3, 4)])])
        assert shuffled.order is Order.BY_SRC
        assert shuffled.pairs() == [(1, 2), (3, 4)]

    @settings(max_examples=60, deadline=None)
    @given(PAIRS)
    def test_dedup_sort_both_orders(self, pure_python, pairs):
        doubled = Relation.from_pairs(pairs + pairs)
        with forced_path(pure_python):
            sorted_src = rel.dedup_sort(doubled, Order.BY_SRC)
            sorted_tgt = rel.dedup_sort(doubled, Order.BY_TGT)
        assert sorted_src.pairs() == sorted(set(pairs))
        assert sorted_tgt.pairs() == sorted(
            set(pairs), key=lambda pair: (pair[1], pair[0])
        )

    @settings(max_examples=40, deadline=None)
    @given(graphs(), PAIRS, st.integers(0, 2))
    def test_transitive_fixpoint_matches_oracle(
        self, pure_python, graph, pairs, low
    ):
        pairs = [
            (a, b) for a, b in pairs
            if a < graph.node_count and b < graph.node_count
        ]
        with forced_path(pure_python):
            result = rel.transitive_fixpoint(
                graph.node_ids(), Relation.from_pairs(pairs), low
            )
        assert result.to_set() == set_transitive_fixpoint(
            graph, set(pairs), low
        )

    @settings(max_examples=40, deadline=None)
    @given(graphs(), PAIRS, st.integers(0, 2), st.integers(0, 3))
    def test_bounded_powers_matches_oracle(
        self, pure_python, graph, pairs, low, extra
    ):
        pairs = [
            (a, b) for a, b in pairs
            if a < graph.node_count and b < graph.node_count
        ]
        with forced_path(pure_python):
            result = rel.bounded_powers(
                graph.node_ids(), Relation.from_pairs(pairs), low, low + extra
            )
        assert result.to_set() == set_bounded_powers(
            graph, set(pairs), low, low + extra
        )

    def test_merge_join_validates_orders(self, pure_python):
        with forced_path(pure_python), pytest.raises(ExecutionError):
            rel.merge_join(by_src([(1, 2)]), by_src([(2, 3)]))

    def test_dedup_sort_rejects_none(self, pure_python):
        with forced_path(pure_python), pytest.raises(ValidationError):
            rel.dedup_sort(Relation.from_pairs([(1, 2)]), Order.NONE)


class TestIndexScanRelations:
    @settings(max_examples=25, deadline=None)
    @given(graphs(max_nodes=6, max_edges=10), label_paths(max_length=2))
    def test_scan_agrees_with_reference(self, graph, path):
        index = PathIndex.build(graph, k=2)
        scanned = index.scan(path)
        assert scanned.order is Order.BY_SRC
        assert scanned.pairs() == sorted(eval_label_path(graph, path))
        swapped = index.scan_swapped(path)
        assert swapped.order is Order.BY_TGT
        assert swapped.to_set() == scanned.to_set()

    @settings(max_examples=15, deadline=None)
    @given(graphs(max_nodes=6, max_edges=10))
    def test_compressed_backend_scan_columns(self, graph):
        memory = PathIndex.build(graph, k=2)
        compressed = PathIndex.build(graph, k=2, backend="compressed")
        for path in memory.paths():
            assert compressed.scan(path) == memory.scan(path)


class TestEndToEndAgainstOracle:
    """Acceptance: every planner strategy equals the reference evaluator."""

    @settings(max_examples=20, deadline=None)
    @given(graphs(max_nodes=6, max_edges=12), rpq_asts(max_leaves=4))
    def test_all_strategies_match_eval_ast(self, graph, query):
        from repro.api import GraphDatabase

        expected = graph.pairs_to_names(eval_ast(graph, query))
        database = GraphDatabase(graph, k=2)
        for method in ("naive", "semi-naive", "minsupport", "minjoin"):
            result = database.query(query, method=method, use_cache=False)
            assert result.pairs == expected, method


class TestUnionInto:
    """The fused N-way gather kernel (:func:`repro.relation.union_into`)."""

    @BOTH_PATHS
    @settings(max_examples=40, deadline=None)
    @given(st.lists(PAIRS, max_size=5))
    def test_matches_pairwise_union(self, pure_python, parts):
        relations = [by_src(pairs) for pairs in parts]
        expected = sorted({pair for pairs in parts for pair in pairs})
        with forced_path(pure_python):
            fused = rel.union_into(relations)
        assert fused.order is Order.BY_SRC
        assert list(fused) == expected

    @BOTH_PATHS
    def test_accepts_unsorted_parts(self, pure_python):
        messy = Relation.from_pairs([(3, 1), (1, 2), (3, 1)], Order.NONE)
        with forced_path(pure_python):
            fused = rel.union_into([messy, by_src([(0, 9)])])
        assert list(fused) == [(0, 9), (1, 2), (3, 1)]

    @BOTH_PATHS
    def test_disjoint_skips_dedup_soundly(self, pure_python):
        """Disjoint inputs: the fast path equals the deduping path."""
        left = by_src([(0, 1), (0, 2), (2, 5)])
        right = by_src([(1, 1), (3, 0)])
        with forced_path(pure_python):
            fused = rel.union_into([left, right], disjoint=True)
            plain = rel.union_into([left, right])
        assert list(fused) == list(plain)

    @BOTH_PATHS
    def test_check_hook_catches_broken_disjoint_contract(self, pure_python):
        overlapping = [by_src([(1, 2)]), by_src([(1, 2), (3, 4)])]
        old = rel._CHECK_DISJOINT
        rel._CHECK_DISJOINT = True
        try:
            with forced_path(pure_python):
                with pytest.raises(ExecutionError, match="overlapping"):
                    rel.union_into(overlapping, disjoint=True)
        finally:
            rel._CHECK_DISJOINT = old

    @BOTH_PATHS
    def test_empty_and_single_part(self, pure_python):
        with forced_path(pure_python):
            assert len(rel.union_into([])) == 0
            assert len(rel.union_into([Relation.empty()])) == 0
            only = by_src([(1, 2), (3, 4)])
            # A single sorted part is returned as-is (zero copy).
            assert rel.union_into([only]) is only
            assert rel.union_into([only], disjoint=True) is only


class TestRestrictSrc:
    @BOTH_PATHS
    @settings(max_examples=40, deadline=None)
    @given(PAIRS, st.integers(0, 12))
    def test_matches_filter(self, pure_python, pairs, source):
        expected = [pair for pair in sorted(pairs) if pair[0] == source]
        with forced_path(pure_python):
            sliced = rel.restrict_src(by_src(pairs), source)
            unsorted = rel.restrict_src(
                Relation.from_pairs(pairs, Order.NONE), source
            )
        assert list(sliced) == expected
        assert sorted(unsorted) == expected
