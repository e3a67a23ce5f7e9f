"""The k-path index ``I_{G,k}`` (Section 3.1).

An ordered dictionary with search key ``(label path, source, target)``,
supporting exactly the lookups of Example 3.1:

* ``scan(p)`` — all pairs of ``p(G)``, sorted by (source, target);
* ``scan_from(p, a)`` — all targets ``b`` with ``(a, b) ∈ p(G)``;
* ``contains(p, a, b)`` — membership of one pair.

Three backends implement the ordered dictionary.  The memory backend
(default, fastest) keeps, per label path, the builder's ``(src, tgt)``-
sorted ``array('q')`` column pair: a scan hands those columns out, the
other two lookups are binary searches on them.  The disk backend is the
same columns plus one *image* file holding them, and the compressed
backend one posting list per path.  A catalog maps each label path to a
dense integer path id assigned in build (trie) order; the catalog also
records exact per-path counts, from which the statistics layer is
derived.

The image is the whole index in one file, little-endian::

    magic "RPQIMAGE" | version u32 | catalog bytes u32 | catalog JSON
    | per non-empty path in id order: src int64 x count, tgt int64 x count
    | CRC32 u32 of everything before it

The catalog JSON is ``{"k": k, "paths": [[encoded path, count], ...]}``
in id order.  An image is written to ``<path>.build``, fsynced and
renamed over ``<path>``, so a crash leaves the previous image whole;
:meth:`PathIndex.open_disk` reads it back and raises
:class:`~repro.errors.StorageError` on a missing, truncated, foreign,
unknown-version or corrupt file.  Nothing outside this module knows the
format.

A patch never edits an installed column.  ``scan`` is zero-copy, so the
columns it returned may at any moment sit inside a
``QueryResult.report.relation``, a ``ScanMemo`` or a worker reply being
encoded; :meth:`PathIndex.patch` therefore edits a *copy* of the path's
columns and swaps it in (copy-on-write).  Whoever holds the old pair
keeps the relation as of the version it was scanned at.  A patched disk
index reaches its image on :meth:`PathIndex.flush`.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import zlib
from array import array
from bisect import bisect_left, bisect_right
from pathlib import Path as FilePath
from typing import Iterable, Iterator

from repro.errors import PathIndexError, StorageError, ValidationError
from repro.faults import fire
from repro.graph.graph import Graph, LabelPath
from repro.indexes.builder import path_relations_columnar
from repro.relation import Order, Relation, locate, swap

Pair = tuple[int, int]

#: The backend names :meth:`PathIndex.build` accepts.
BACKENDS = ("memory", "disk", "compressed")

IMAGE_MAGIC = b"RPQIMAGE"
IMAGE_VERSION = 1
_HEADER = struct.Struct("<8sII")  # magic, version, catalog bytes
_CRC = struct.Struct("<I")
#: Images are little-endian; a big-endian host swaps each column.
_SWAP = sys.byteorder != "little"

#: What a backend loads: one ``(path_id, src, tgt)`` run per non-empty
#: path, ids ascending, columns (src, tgt)-sorted and duplicate-free.
Run = tuple[int, array, array]


def edit_columns(
    sources: array, targets: array, adds: Iterable[Pair], removes: Iterable[Pair]
) -> tuple[int, int]:
    """Remove, then add, in place on (src, tgt)-sorted columns; returns
    the counts of pairs actually ``(inserted, removed)``.  Every backend's
    ``patch`` runs its edit through here, each on columns it owns."""
    inserted = removed = 0
    for source, target in removes:
        position, present = locate(sources, targets, source, target)
        if present:
            del sources[position], targets[position]
            removed += 1
    for source, target in adds:
        position, present = locate(sources, targets, source, target)
        if not present:
            sources.insert(position, source)
            targets.insert(position, target)
            inserted += 1
    return inserted, removed


class _MemoryBackend:
    """Per-path sorted columns, adopted from the builder as they come."""

    name = "memory"

    def __init__(self) -> None:
        self._columns: dict[int, tuple[array, array]] = {}

    def load(self, runs: Iterable[Run]) -> None:
        self._columns = {path_id: (src, tgt) for path_id, src, tgt in runs}

    def scan_columns(self, path_id: int) -> tuple[array, array]:
        """One path's installed columns themselves — not a copy."""
        return self._columns.get(path_id) or (array("q"), array("q"))

    def targets_from(self, path_id: int, source: int) -> list[int]:
        sources, targets = self.scan_columns(path_id)
        low = bisect_left(sources, source)
        return targets[low : bisect_right(sources, source, low)].tolist()

    def contains(self, path_id: int, source: int, target: int) -> bool:
        return locate(*self.scan_columns(path_id), source, target)[1]

    def patch(
        self, path_id: int, adds: Iterable[Pair], removes: Iterable[Pair]
    ) -> tuple[int, int]:
        """Edit a copy of the columns; install it if anything changed."""
        installed = self.scan_columns(path_id)
        sources, targets = installed[0][:], installed[1][:]
        inserted, removed = edit_columns(sources, targets, adds, removes)
        if inserted or removed:
            self._columns[path_id] = (sources, targets)
        return inserted, removed

    def __len__(self) -> int:
        return sum(len(sources) for sources, _ in self._columns.values())


class _DiskBackend(_MemoryBackend):
    """The memory backend's columns, mirrored to an image file at ``path``."""

    name = "disk"

    def __init__(self, path: str | FilePath) -> None:
        super().__init__()
        self.path = FilePath(path)


def _write_image(
    target: FilePath,
    k: int,
    counts: dict[str, int],
    columns: dict[int, tuple[array, array]],
) -> None:
    """Write an index image to ``target`` atomically (module docstring).

    ``counts`` is the catalog in path-id order, ``columns`` the
    non-empty paths' columns by id.  The bytes go to ``<target>.build``,
    are fsynced, and only then replace ``target``; a failure on the way
    removes the ``.build`` file and leaves ``target`` as it was.
    """
    catalog = json.dumps({"k": k, "paths": list(counts.items())}).encode()
    temp = target.with_name(target.name + ".build")
    try:
        with open(temp, "wb") as handle:
            header = _HEADER.pack(IMAGE_MAGIC, IMAGE_VERSION, len(catalog))
            checksum = 0
            for chunk in (header, catalog):
                handle.write(chunk)
                checksum = zlib.crc32(chunk, checksum)
            for path_id, count in enumerate(counts.values()):
                if not count:
                    continue
                for column in columns[path_id]:
                    if _SWAP:
                        column = array("q", column)
                        column.byteswap()
                    chunk = column.tobytes()
                    handle.write(chunk)
                    checksum = zlib.crc32(chunk, checksum)
            handle.write(_CRC.pack(checksum))
            handle.flush()
            os.fsync(handle.fileno())
        temp.replace(target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _read_image(
    source: FilePath,
) -> tuple[int, dict[str, int], dict[int, tuple[array, array]]]:
    """``(k, catalog counts in id order, columns by id)`` from an image.

    Every way the file can be wrong is a :class:`StorageError`; the
    checksum covers the whole file, so no corrupt byte reaches a scan.
    """
    try:
        raw = source.read_bytes()
    except OSError as error:
        raise StorageError(f"cannot read index image {source}: {error}") from error
    raw = fire("storage.read_image", raw, path=source.name)
    if len(raw) < _HEADER.size + _CRC.size:
        raise StorageError(f"index image {source} is truncated")
    magic, version, catalog_size = _HEADER.unpack_from(raw)
    if magic != IMAGE_MAGIC:
        raise StorageError(f"{source} is not an index image (bad magic number)")
    if version != IMAGE_VERSION:
        raise StorageError(f"index image {source} has unknown version {version}")
    body = memoryview(raw)[: -_CRC.size]
    if zlib.crc32(body) != _CRC.unpack_from(raw, len(body))[0]:
        raise StorageError(f"index image {source} fails its checksum")
    offset = _HEADER.size + catalog_size
    try:
        catalog = json.loads(bytes(body[_HEADER.size : offset]))
        k = int(catalog["k"])
        counts = {str(encoded): int(count) for encoded, count in catalog["paths"]}
    except (ValueError, KeyError, TypeError) as error:
        raise StorageError(f"index image {source} has a bad catalog") from error
    sizes = counts.values()
    if min(sizes, default=0) < 0 or offset + 16 * sum(sizes) != len(body):
        raise StorageError(f"index image {source} does not match its catalog")
    columns: dict[int, tuple[array, array]] = {}
    for path_id, count in enumerate(sizes):
        if not count:
            continue
        pair = (array("q"), array("q"))
        for column in pair:
            column.frombytes(body[offset : offset + 8 * count])
            offset += 8 * count
            if _SWAP:
                column.byteswap()
        columns[path_id] = pair
    return k, counts, columns


class PathIndex:
    """The paper's ``I_{G,k}`` over a fixed graph.

    Build with :meth:`PathIndex.build`; query with :meth:`scan`,
    :meth:`scan_from` and :meth:`contains`.  Exact per-path counts are
    kept in the catalog (:meth:`count`) — the equi-depth histogram
    compresses them for the optimizer.
    """

    #: A ``PathIndex`` is one shard: the executor's scatter-or-plain
    #: selection reads this off whatever index it is handed.
    shard_count = 1

    def __init__(self, graph: Graph, k: int, backend) -> None:
        self.graph = graph
        self.k = k
        self._backend = backend
        self._path_ids: dict[str, int] = {}
        self._counts: dict[str, int] = {}

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(
        cls,
        graph: Graph,
        k: int,
        backend: str = "memory",
        prune_empty: bool = True,
        path: str | FilePath | None = None,
    ) -> "PathIndex":
        """Materialize ``I_{G,k}`` over ``graph``.

        Parameters
        ----------
        backend:
            ``"memory"`` (per-path sorted columns), ``"disk"`` (the
            same columns plus an image file at ``path``) or
            ``"compressed"`` (posting lists).
        prune_empty:
            Skip descendants of empty paths (their relations are
            provably empty); the empty paths themselves are still
            recorded with count 0.
        """
        return cls.from_relations(
            graph,
            k,
            path_relations_columnar(graph, k, prune_empty=prune_empty),
            backend=backend,
            path=path,
        )

    @classmethod
    def from_relations(
        cls,
        graph: Graph,
        k: int,
        relations: Iterable[tuple[LabelPath, "Relation | list[Pair]"]],
        backend: str = "memory",
        path: str | FilePath | None = None,
    ) -> "PathIndex":
        """Materialize an index from precomputed ``(path, relation)`` pairs.

        ``relations`` must arrive in trie (DFS) order with each relation
        ``(src, tgt)``-sorted and duplicate-free — exactly what
        :func:`repro.indexes.builder.path_relations_columnar` yields and
        what :class:`repro.sharding.ShardedGraph` workers hand back.
        Each non-empty path reaches the backend as one ``(path_id, src,
        tgt)`` run of the relation's own columns: the memory and disk
        backends keep them, the compressed one encodes them.  A disk
        index writes its image before it is returned.
        """
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        store = cls._make_backend(backend, path)
        index = cls(graph, k, store)

        def runs() -> Iterator[Run]:
            for label_path, relation in relations:
                relation = Relation.coerce(relation, Order.BY_SRC)
                encoded = label_path.encode()
                path_id = len(index._path_ids)
                index._path_ids[encoded] = path_id
                index._counts[encoded] = len(relation)
                if len(relation):
                    yield path_id, relation.src, relation.tgt

        store.load(runs())
        index.flush()
        return index

    @staticmethod
    def _make_backend(backend: str, path: str | FilePath | None):
        if backend == "memory":
            return _MemoryBackend()
        if backend == "disk":
            if path is None:
                raise ValidationError("the disk backend requires a file path")
            return _DiskBackend(path)
        if backend == "compressed":
            from repro.indexes.compressed import CompressedBackend

            return CompressedBackend()
        raise ValidationError(f"unknown backend {backend!r}")

    # -- lookups ------------------------------------------------------------------

    def scan(self, path: LabelPath) -> Relation:
        """``I_{G,k}(p)``: the relation of ``p`` as a columnar ``Relation``.

        Sorted by (src, tgt) — the index's key order — so the returned
        relation carries ``Order.BY_SRC`` and merge joins can consume it
        without re-sorting.  On the memory backend its columns *are*
        the installed ones (so on the disk backend): read them, never
        write them.
        """
        path_id = self._path_id(path)
        if path_id is None:
            return Relation.empty(Order.BY_SRC)
        sources, targets = self._backend.scan_columns(path_id)
        return Relation(sources, targets, Order.BY_SRC)

    def scan_swapped(self, path: LabelPath) -> Relation:
        """The relation of ``p`` sorted by (tgt, src), as ``Order.BY_TGT``.

        Implemented exactly as the paper does: scan the index on the
        *inverse* path (which is itself indexed, because inverse steps
        are alphabet symbols) and exchange the columns — a zero-copy
        swap in the columnar representation.
        """
        return swap(self.scan(path.inverted()))

    def scan_from(self, path: LabelPath, source: int) -> list[int]:
        """``I_{G,k}(p, a)``: sorted targets reachable from ``source``."""
        path_id = self._path_id(path)
        if path_id is None:
            return []
        return self._backend.targets_from(path_id, source)

    def contains(self, path: LabelPath, source: int, target: int) -> bool:
        """``I_{G,k}(p, a, b)``: is the pair in ``p(G)``?"""
        path_id = self._path_id(path)
        if path_id is None:
            return False
        return self._backend.contains(path_id, source, target)

    def count(self, path: LabelPath) -> int:
        """Exact ``|p(G)|`` from the catalog (0 for pruned/empty paths)."""
        self._check_length(path)
        return self._counts.get(path.encode(), 0)

    # -- patching (the sharded write path) ----------------------------------

    def patch(
        self,
        path: LabelPath,
        adds: Iterable[Pair],
        removes: Iterable[Pair],
    ) -> tuple[int, int]:
        """Edit one path's relation, copy-on-write; returns the counts
        of entries actually ``(inserted, removed)``.

        Removes apply before adds, and both lists are idempotent:
        inserting a present pair or removing an absent one is a no-op,
        so a recheck-driven caller
        (:func:`repro.write.delta.resolve_patch`) can assert final
        state without probing first.  The edit lands on a copy of the
        path's columns, swapped in when done, so relations scanned
        before it are unaffected (module docstring).  A path the
        catalog pruned as empty gains an id on its first insert — ids
        are dense and append-only, and every lookup is per path, so
        cross-path id order never matters.  Exact per-path counts stay
        exact (they are the statistics layer's ground truth).  A disk
        index's image lags until :meth:`flush`; a compressed index
        re-encodes the path's posting list.
        """
        self._check_length(path)
        encoded = path.encode()
        path_id = self._path_ids.get(encoded, len(self._path_ids))
        inserted, removed = self._backend.patch(path_id, adds, removes)
        if inserted or removed:
            self._path_ids[encoded] = path_id
            self._counts[encoded] = self._counts.get(encoded, 0) + inserted - removed
        return inserted, removed

    # -- inspection ------------------------------------------------------------------

    @property
    def backend_name(self) -> str:
        return self._backend.name

    @property
    def entry_count(self) -> int:
        """Total number of ``(p, a, b)`` entries in the index."""
        return len(self._backend)

    @property
    def path_count(self) -> int:
        """Number of label paths recorded in the catalog."""
        return len(self._path_ids)

    def paths(self) -> Iterator[LabelPath]:
        """All cataloged label paths, in build order."""
        for encoded in self._path_ids:
            yield LabelPath.decode(encoded)

    def counts_by_path(self) -> dict[str, int]:
        """Encoded path -> exact count (the statistics layer's input)."""
        return dict(self._counts)

    def close(self) -> None:
        """Nothing to release: every backend serves from memory."""

    def __enter__(self) -> "PathIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the disk image -------------------------------------------------------------

    def flush(self) -> None:
        """Rewrite the disk backend's image from the index as it is now.

        A no-op on the other backends.  Atomic: a failure leaves the
        previous image whole (module docstring), and the index itself
        keeps serving either way.  ``_counts`` lists the paths in id
        order: ids are dense and given on first entry to both maps.
        """
        if isinstance(self._backend, _DiskBackend):
            _write_image(
                self._backend.path, self.k, self._counts, self._backend._columns
            )

    @classmethod
    def open_disk(cls, graph: Graph, path: str | FilePath) -> "PathIndex":
        """Re-open a disk index from the image at ``path``.

        Raises :class:`~repro.errors.StorageError` when the file is
        missing, truncated, not an image, of an unknown version or
        fails its checksum.
        """
        k, counts, columns = _read_image(FilePath(path))
        store = _DiskBackend(path)
        store._columns = columns
        index = cls(graph, k, store)
        index._counts = counts
        index._path_ids = {encoded: path_id for path_id, encoded in enumerate(counts)}
        return index

    # -- internals ---------------------------------------------------------------------

    def _path_id(self, path: LabelPath) -> int | None:
        self._check_length(path)
        return self._path_ids.get(path.encode())

    def _check_length(self, path: LabelPath) -> None:
        if len(path) > self.k:
            raise PathIndexError(f"path {path} has length {len(path)} > k={self.k}")

    def __repr__(self) -> str:
        return (
            f"PathIndex(k={self.k}, backend={self.backend_name!r}, "
            f"paths={self.path_count}, entries={self.entry_count})"
        )
