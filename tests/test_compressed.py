"""Tests for the compressed (delta+varint) index backend."""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.graph.examples import figure1_graph
from repro.graph.generators import advogato_like
from repro.indexes.compressed import (
    CompressedBackend,
    PostingList,
    compression_ratio,
    decode_varint,
    encode_varint,
)
from repro.indexes.pathindex import PathIndex

PAIRS = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 200)),
    max_size=80,
).map(lambda pairs: sorted(set(pairs)))


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**60])
    def test_roundtrip_examples(self, value):
        encoded = encode_varint(value)
        decoded, offset = decode_varint(encoded, 0)
        assert decoded == value
        assert offset == len(encoded)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_property_roundtrip(self, value):
        decoded, _ = decode_varint(encode_varint(value), 0)
        assert decoded == value

    def test_negative_rejected(self):
        with pytest.raises(StorageError):
            encode_varint(-1)

    def test_truncated_rejected(self):
        with pytest.raises(StorageError):
            decode_varint(encode_varint(300)[:-1], 0)

    def test_small_values_one_byte(self):
        assert len(encode_varint(127)) == 1
        assert len(encode_varint(128)) == 2


class TestPostingList:
    def test_roundtrip(self):
        pairs = [(1, 2), (1, 5), (3, 0), (3, 7), (9, 9)]
        postings = PostingList.from_pairs(pairs)
        assert list(zip(*postings.columns())) == pairs
        assert postings.count == 5

    def test_empty(self):
        postings = PostingList.from_pairs([])
        assert list(zip(*postings.columns())) == []
        assert postings.targets_of(1) == []

    def test_targets_of(self):
        pairs = [(1, 2), (1, 5), (3, 0), (9, 9)]
        postings = PostingList.from_pairs(pairs)
        assert postings.targets_of(1) == [2, 5]
        assert postings.targets_of(3) == [0]
        assert postings.targets_of(9) == [9]
        assert postings.targets_of(2) == []
        assert postings.targets_of(0) == []
        assert postings.targets_of(10) == []

    def test_skip_list_on_many_groups(self):
        pairs = [(src, src + 1) for src in range(0, 500, 2)]
        postings = PostingList.from_pairs(pairs)
        assert len(postings.skips) > 1
        for src in range(0, 500, 2):
            assert postings.targets_of(src) == [src + 1]
        assert postings.targets_of(1) == []

    @settings(max_examples=80, deadline=None)
    @given(PAIRS)
    def test_property_roundtrip(self, pairs):
        postings = PostingList.from_pairs(pairs)
        assert list(zip(*postings.columns())) == pairs

    @settings(max_examples=80, deadline=None)
    @given(PAIRS, st.integers(0, 200))
    def test_property_targets_of(self, pairs, wanted):
        postings = PostingList.from_pairs(pairs)
        expected = [tgt for src, tgt in pairs if src == wanted]
        assert postings.targets_of(wanted) == expected


class TestBackend:
    def test_contains(self):
        backend = CompressedBackend()
        backend.load([(0, array("q", [1]), array("q", [2]))])
        assert backend.contains(0, 1, 2)
        assert not backend.contains(0, 1, 3)
        assert not backend.contains(9, 1, 2)

    def test_len(self):
        backend = CompressedBackend()
        backend.load(
            [
                (0, array("q", [1, 1]), array("q", [2, 3])),
                (2, array("q", [0]), array("q", [0])),
            ]
        )
        assert len(backend) == 3


MANY = [(src, tgt) for src in range(0, 500, 2) for tgt in (src, src + 3)]


class TestBackendPatch:
    """A patch re-encodes the path byte for byte as a fresh load would."""

    @staticmethod
    def check(start, adds, removes):
        backend = CompressedBackend()
        columns = array("q", [s for s, _ in start]), array("q", [t for _, t in start])
        backend.load([(0, *columns)] if start else [])  # a new path if empty
        kept = set(start) - set(removes)
        final = sorted(kept | set(adds))
        counts = backend.patch(0, adds, removes)
        assert counts == (len(final) - len(kept), len(start) - len(kept))
        want = PostingList.from_pairs(final)
        got = backend._postings.get(0, want)  # absent only if nothing changed
        assert (got.data, got.skips, got.count) == (want.data, want.skips, want.count)
        for source in range(-1, 503):
            assert got.targets_of(source) == want.targets_of(source)
        assert list(zip(*backend.scan_columns(0))) == final
        assert len(backend) == len(final)

    @pytest.mark.parametrize(
        "start, adds, removes",
        [
            ([], [(7, 1), (3, 4), (3, 2)], []),
            (MANY, [], MANY),
            # (1, 1) is absent until added; MANY[3] is present throughout.
            (MANY, [(1, 1), (501, 0), (0, 1), MANY[3]], MANY[::7] + [(1, 1)]),
        ],
        ids=["adds-a-new-path", "empties-a-path", "adds-and-removes"],
    )
    def test_patch_equals_a_fresh_encoding(self, start, adds, removes):
        assert len(PostingList.from_pairs(MANY).skips) > 1
        self.check(start, adds, removes)

    @settings(max_examples=60, deadline=None)
    @given(PAIRS, PAIRS, PAIRS)
    def test_property_patch_equals_a_fresh_encoding(self, start, adds, removes):
        self.check(start, adds, removes)


class TestPathIndexIntegration:
    def test_compressed_equals_memory(self):
        graph = figure1_graph()
        memory = PathIndex.build(graph, k=2)
        compressed = PathIndex.build(graph, k=2, backend="compressed")
        assert compressed.entry_count == memory.entry_count
        for path in memory.paths():
            assert compressed.scan(path) == memory.scan(path)
            assert compressed.scan_swapped(path) == memory.scan_swapped(path)
            for node in graph.node_ids():
                assert compressed.scan_from(path, node) == memory.scan_from(
                    path, node
                )

    def test_queries_through_compressed_index(self):
        from repro.api import GraphDatabase, ServiceConfig

        graph = figure1_graph()
        db = GraphDatabase(graph, k=2, config=ServiceConfig(backend="compressed"))
        reference = GraphDatabase(graph, k=2)
        for text in ["knows/knows/worksFor", "supervisor/^worksFor",
                     "(knows|worksFor){1,2}"]:
            assert db.query(text).pairs == reference.query(text).pairs

    def test_compression_actually_compresses(self):
        graph = advogato_like(nodes=150, edges=900, seed=3)
        index = PathIndex.build(graph, k=2, backend="compressed")
        ratio = compression_ratio(index._backend)
        # raw 3x int64 triples are 24 bytes; postings should be far under
        assert 0.0 < ratio < 0.25

    def test_backend_name(self):
        index = PathIndex.build(figure1_graph(), k=1, backend="compressed")
        assert index.backend_name == "compressed"
