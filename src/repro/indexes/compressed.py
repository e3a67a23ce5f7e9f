"""A compressed k-path index backend (delta + varint postings).

The companion work the paper cites ([14], the from-scratch B+tree
study) investigates *index size and compression*.  This backend stores
each label path's relation as a postings byte-string:

* pairs are grouped by source, sources ascending;
* each group is ``varint(source_delta) varint(target_count)`` followed
  by ascending ``varint(target_delta)`` values;
* a sparse skip list of ``(source, byte_offset)`` entries (one per
  ``SKIP_EVERY`` groups) makes ``scan_from`` sub-linear.

Varints are unsigned LEB128.  Typical k-path relations (clustered ids,
runs of shared sources) compress to a fraction of the raw
3-integer-tuple representation; the exact ratio is reported by
``benchmarks/bench_storage.py`` and :func:`compression_ratio`.
"""

from __future__ import annotations

import bisect
from array import array
from typing import Iterable

from repro.errors import StorageError

Pair = tuple[int, int]

#: One skip entry is kept every this many source groups.
SKIP_EVERY = 32


def encode_varint(value: int) -> bytes:
    """Unsigned LEB128 encoding."""
    if value < 0:
        raise StorageError(f"varints are unsigned, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Decode one varint; returns (value, next offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise StorageError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise StorageError("varint too long")


class PostingList:
    """One path's relation, compressed."""

    __slots__ = ("data", "skips", "count")

    def __init__(self, data: bytes, skips: list[tuple[int, int]], count: int):
        self.data = data
        self.skips = skips  # (first source of group, byte offset)
        self.count = count

    @classmethod
    def from_pairs(cls, pairs: list[Pair]) -> "PostingList":
        """Compress a (src, tgt)-sorted, duplicate-free pair list."""
        out = bytearray()
        skips: list[tuple[int, int]] = []
        previous_source = 0
        index = 0
        group_number = 0
        total = len(pairs)
        while index < total:
            source = pairs[index][0]
            end = index
            while end < total and pairs[end][0] == source:
                end += 1
            if group_number % SKIP_EVERY == 0:
                skips.append((source, len(out)))
            out += encode_varint(source - previous_source)
            out += encode_varint(end - index)
            previous_target = 0
            for _, target in pairs[index:end]:
                out += encode_varint(target - previous_target)
                previous_target = target
            previous_source = source
            index = end
            group_number += 1
        return cls(bytes(out), skips, total)

    # -- decoding -----------------------------------------------------------

    def columns(self) -> tuple[array, array]:
        """Decompress the full relation into (src, tgt) int64 columns.

        No per-pair tuple objects are created, and the columns come
        back (src, tgt)-sorted — the encoding order — ready to wrap in
        a BY_SRC ``Relation``.
        """
        sources = array("q")
        targets = array("q")
        data = self.data
        offset = 0
        source = 0
        while offset < len(data):
            delta, offset = decode_varint(data, offset)
            source += delta
            count, offset = decode_varint(data, offset)
            target = 0
            for _ in range(count):
                step, offset = decode_varint(data, offset)
                target += step
                sources.append(source)
                targets.append(target)
        return sources, targets

    def targets_of(self, wanted: int) -> list[int]:
        """Decode only the targets of one source (skip-list assisted)."""
        if not self.skips:
            return []
        position = bisect.bisect_right(self.skips, (wanted, float("inf"))) - 1
        if position < 0:
            return []
        anchor_source, offset = self.skips[position]
        data = self.data
        # The anchor group's source delta is relative to the *previous*
        # group; we know its absolute value from the skip entry.
        source = anchor_source
        first = True
        while offset < len(data):
            delta, offset = decode_varint(data, offset)
            if first:
                first = False  # absolute value known from the skip entry
            else:
                source += delta
            if source > wanted:
                return []
            count, offset = decode_varint(data, offset)
            if source == wanted:
                targets: list[int] = []
                target = 0
                for _ in range(count):
                    step, offset = decode_varint(data, offset)
                    target += step
                    targets.append(target)
                return targets
            for _ in range(count):
                _, offset = decode_varint(data, offset)
        return []

    def byte_size(self) -> int:
        return len(self.data) + 16 * len(self.skips)


class CompressedBackend:
    """PathIndex backend storing a :class:`PostingList` per path."""

    name = "compressed"

    def __init__(self) -> None:
        self._postings: dict[int, PostingList] = {}

    def load(self, runs: Iterable[tuple[int, array, array]]) -> None:
        """Each run is one path's sorted columns: a posting list apiece."""
        for path_id, sources, targets in runs:
            self._postings[path_id] = PostingList.from_pairs(
                list(zip(sources, targets))
            )

    def scan_columns(self, path_id: int) -> tuple[array, array]:
        """One path's full relation as (src, tgt)-sorted int64 columns."""
        postings = self._postings.get(path_id)
        if postings is None:
            return array("q"), array("q")
        return postings.columns()

    def targets_from(self, path_id: int, source: int) -> list[int]:
        postings = self._postings.get(path_id)
        return [] if postings is None else postings.targets_of(source)

    def contains(self, path_id: int, source: int, target: int) -> bool:
        targets = self.targets_from(path_id, source)
        position = bisect.bisect_left(targets, target)
        return position < len(targets) and targets[position] == target

    def __len__(self) -> int:
        return sum(postings.count for postings in self._postings.values())

    def byte_size(self) -> int:
        """Total compressed bytes (postings + skip lists)."""
        return sum(postings.byte_size() for postings in self._postings.values())

    def close(self) -> None:
        """Nothing to release."""


def compression_ratio(backend: CompressedBackend) -> float:
    """Compressed bytes per entry vs a raw 24-byte (3×int64) triple."""
    entries = len(backend)
    if entries == 0:
        return 0.0
    return backend.byte_size() / (24 * entries)
