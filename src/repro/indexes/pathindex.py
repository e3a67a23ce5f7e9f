"""The k-path index ``I_{G,k}`` (Section 3.1).

An ordered dictionary with search key ``(label path, source, target)``,
supporting exactly the lookups of Example 3.1:

* ``scan(p)`` — all pairs of ``p(G)``, sorted by (source, target);
* ``scan_from(p, a)`` — all targets ``b`` with ``(a, b) ∈ p(G)``;
* ``contains(p, a, b)`` — membership of one pair.

Two backends implement the ordered dictionary: the in-memory B+tree
(default, fastest) and the page-based disk B+tree (faithful to the
paper's use of PostgreSQL B+trees).  A catalog maps each label path to
a dense integer path id assigned in build (trie) order, so index keys
are homogeneous ``(path_id, src, tgt)`` integer triples; the catalog
also records exact per-path counts, from which the statistics layer is
derived.
"""

from __future__ import annotations

import json
from array import array
from itertools import repeat
from pathlib import Path as FilePath
from typing import Iterable, Iterator

from repro.errors import PathIndexError, ValidationError
from repro.graph.graph import Graph, LabelPath
from repro.indexes.builder import path_relations_columnar
from repro.relation import Order, Relation, swap
from repro.storage.diskbtree import DiskBPlusTree
from repro.storage.memtree import BPlusTree
from repro.storage.records import decode_key, encode_key

Pair = tuple[int, int]


class _MemoryBackend:
    """Tuple-key B+tree backend."""

    name = "memory"

    def __init__(self, order: int = 64):
        self._tree = BPlusTree(order=order)

    def bulk_load(self, entries: Iterator[tuple[int, int, int]]) -> None:
        self._tree = BPlusTree.bulk_load(
            ((key, None) for key in entries), order=self._tree.order
        )

    def bulk_load_runs(self, runs: Iterator[list[tuple[int, int, int]]]) -> None:
        """Load pre-sorted per-path key runs by leaf slicing (fast path)."""
        self._tree = BPlusTree.bulk_load_runs(runs, order=self._tree.order)

    def prefix(self, prefix: tuple[int, ...]) -> Iterator[tuple[int, int, int]]:
        for key, _ in self._tree.prefix_scan(prefix):
            yield key

    def scan_columns(self, path_id: int) -> tuple[array, array]:
        """One path's relation as (src, tgt)-sorted int64 columns."""
        return self._tree.prefix_scan_columns((path_id,))

    def insert(self, key: tuple[int, int, int]) -> bool:
        """Point-insert one entry; False if it was already present."""
        return self._tree.insert(key)

    def delete(self, key: tuple[int, int, int]) -> bool:
        """Point-delete one entry; False if it was absent."""
        return self._tree.delete(key)

    def contains(self, key: tuple[int, int, int]) -> bool:
        return key in self._tree

    def __len__(self) -> int:
        return len(self._tree)

    def close(self) -> None:
        """Nothing to release for the in-memory backend."""


class _DiskBackend:
    """Page-based disk B+tree backend with memcomparable keys."""

    name = "disk"

    def __init__(
        self, path: str | FilePath, page_size: int = 4096, cache_pages: int = 256
    ):
        self._path = FilePath(path)
        self._page_size = page_size
        self._cache_pages = cache_pages
        self._tree = DiskBPlusTree(path, page_size=page_size, cache_pages=cache_pages)

    def bulk_load(self, entries: Iterator[tuple[int, int, int]]) -> None:
        """Crash-safe load: build a sibling file, atomically swap it in.

        The tree is written to ``<path>.build`` and renamed over the
        real path only after a successful flush, so a crash mid-build
        leaves whatever was at the path before (for a fresh build, a
        valid empty tree) instead of a torn file that fails every
        subsequent open.  Same contract the plan-artifact store already
        had; the index was the remaining gap.
        """
        temp_path = self._path.with_name(self._path.name + ".build")
        temp_path.unlink(missing_ok=True)
        temp = DiskBPlusTree(
            temp_path, page_size=self._page_size, cache_pages=self._cache_pages
        )
        try:
            temp.bulk_load((encode_key(key), b"") for key in entries)
            temp.flush()
        except BaseException:
            temp.close()
            temp_path.unlink(missing_ok=True)
            raise
        temp.close()
        self._tree.close()
        temp_path.replace(self._path)
        self._tree = DiskBPlusTree(
            self._path, page_size=self._page_size, cache_pages=self._cache_pages
        )

    def bulk_load_runs(self, runs: Iterator[list[tuple[int, int, int]]]) -> None:
        """No columnar fast path on disk: flatten the runs."""
        self.bulk_load(key for run in runs for key in run)

    def prefix(self, prefix: tuple[int, ...]) -> Iterator[tuple[int, int, int]]:
        encoded = encode_key(prefix)
        for key, _ in self._tree.prefix_scan(encoded):
            yield decode_key(key)  # type: ignore[misc]

    def scan_columns(self, path_id: int) -> tuple[array, array]:
        """One path's relation as (src, tgt)-sorted int64 columns.

        No tuple-free fast path exists here — ``decode_key`` builds the
        key tuple either way — so this just reshapes :meth:`prefix`.
        """
        sources = array("q")
        targets = array("q")
        for _, source, target in self.prefix((path_id,)):
            sources.append(source)
            targets.append(target)
        return sources, targets

    def contains(self, key: tuple[int, int, int]) -> bool:
        return encode_key(key) in self._tree

    def __len__(self) -> int:
        return len(self._tree)

    def close(self) -> None:
        self._tree.close()


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
        order: int = 64,
        path: str | FilePath | None = None,
        page_size: int = 4096,
        cache_pages: int = 256,
    ) -> "PathIndex":
        """Materialize ``I_{G,k}`` over ``graph``.

        Parameters
        ----------
        backend:
            ``"memory"`` (in-memory B+tree) or ``"disk"`` (page-based
            B+tree at ``path``).
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
            order=order,
            path=path,
            page_size=page_size,
            cache_pages=cache_pages,
        )

    @classmethod
    def from_relations(
        cls,
        graph: Graph,
        k: int,
        relations: Iterable[tuple[LabelPath, "Relation | list[Pair]"]],
        backend: str = "memory",
        order: int = 64,
        path: str | FilePath | None = None,
        page_size: int = 4096,
        cache_pages: int = 256,
    ) -> "PathIndex":
        """Materialize an index from precomputed ``(path, relation)`` pairs.

        ``relations`` must arrive in trie (DFS) order with each relation
        ``(src, tgt)``-sorted and duplicate-free — exactly what
        :func:`repro.indexes.builder.path_relations_columnar` yields and
        what :class:`repro.sharding.ShardedGraph` workers hand back.
        Each path becomes one key run loaded through the backend's
        ``bulk_load_runs`` fast path (leaf slicing on the memory B+tree,
        one posting list per run on the compressed backend), with key
        tuples materialized by C-speed ``zip``.  Both columns go through
        one list of the graph's node ids first: an ``array('q')`` read
        mints a fresh ``int`` per element, and an index holding two of
        those per entry weighs a fifth more than one sharing them.
        """
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        store = cls._make_backend(
            backend,
            order=order,
            path=path,
            page_size=page_size,
            cache_pages=cache_pages,
        )
        index = cls(graph, k, store)
        shared_id = list(graph.node_ids()).__getitem__

        def runs() -> Iterator[list[tuple[int, int, int]]]:
            for label_path, relation in relations:
                encoded = label_path.encode()
                path_id = len(index._path_ids)
                index._path_ids[encoded] = path_id
                index._counts[encoded] = len(relation)
                if len(relation):
                    if isinstance(relation, Relation):
                        sources, targets = relation.src, relation.tgt
                    else:
                        sources, targets = zip(*relation)
                    yield list(
                        zip(
                            repeat(path_id),
                            map(shared_id, sources),
                            map(shared_id, targets),
                        )
                    )

        try:
            store.bulk_load_runs(runs())
        except BaseException:
            store.close()
            raise
        return index

    @staticmethod
    def _make_backend(
        backend: str,
        order: int,
        path: str | FilePath | None,
        page_size: int,
        cache_pages: int,
    ):
        if backend == "memory":
            return _MemoryBackend(order=order)
        if backend == "disk":
            if path is None:
                raise ValidationError("the disk backend requires a file path")
            return _DiskBackend(path, page_size=page_size, cache_pages=cache_pages)
        if backend == "compressed":
            from repro.indexes.compressed import CompressedBackend

            return CompressedBackend()
        raise ValidationError(f"unknown backend {backend!r}")

    # -- lookups ------------------------------------------------------------------

    def scan(self, path: LabelPath) -> Relation:
        """``I_{G,k}(p)``: the relation of ``p`` as a columnar ``Relation``.

        Sorted by (src, tgt) — the B+tree's key order — so the returned
        relation carries ``Order.BY_SRC`` and merge joins can consume it
        without re-sorting.
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
        return [tgt for _, _, tgt in self._backend.prefix((path_id, source))]

    def contains(self, path: LabelPath, source: int, target: int) -> bool:
        """``I_{G,k}(p, a, b)``: is the pair in ``p(G)``?"""
        path_id = self._path_id(path)
        if path_id is None:
            return False
        return self._backend.contains((path_id, source, target))

    def count(self, path: LabelPath) -> int:
        """Exact ``|p(G)|`` from the catalog (0 for pruned/empty paths)."""
        self._check_length(path)
        return self._counts.get(path.encode(), 0)

    # -- point patching (the sharded write path) ----------------------------

    @property
    def supports_patch(self) -> bool:
        """Whether the backend takes point edits (memory B+tree only)."""
        return hasattr(self._backend, "insert")

    def patch(
        self,
        path: LabelPath,
        adds: Iterable[Pair],
        removes: Iterable[Pair],
    ) -> tuple[int, int]:
        """Point-edit one path's relation in place; returns the counts
        of entries actually ``(inserted, removed)``.

        Both edit lists are idempotent: inserting a present pair or
        removing an absent one is a no-op, so a recheck-driven caller
        (:func:`repro.write.delta.resolve_patch`) can assert final
        state without probing first.  A path the catalog pruned as
        empty gains an id on its first insert — ids are dense and
        append-only, and every lookup is a per-path prefix scan, so
        cross-path id order never matters.  Exact per-path counts stay
        exact (they are the statistics layer's ground truth).
        """
        if not self.supports_patch:
            raise PathIndexError(
                f"backend {self.backend_name!r} cannot patch in place; "
                "rebuild instead"
            )
        self._check_length(path)
        encoded = path.encode()
        path_id = self._path_ids.get(encoded)
        inserted = removed = 0
        if path_id is not None:
            for source, target in removes:
                if self._backend.delete((path_id, source, target)):
                    removed += 1
        for source, target in adds:
            if path_id is None:
                path_id = len(self._path_ids)
                self._path_ids[encoded] = path_id
                self._counts[encoded] = 0
            if self._backend.insert((path_id, source, target)):
                inserted += 1
        if inserted or removed:
            self._counts[encoded] = (
                self._counts.get(encoded, 0) + inserted - removed
            )
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
        """Release backend resources (a no-op for the memory backend)."""
        self._backend.close()

    def __enter__(self) -> "PathIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- catalog persistence (disk backend) --------------------------------------------

    def save_catalog(self, path: str | FilePath) -> None:
        """Persist the path-id catalog and counts next to a disk index.

        Written via temp file + atomic rename: a crash mid-write must
        not leave a torn catalog that poisons every future open of an
        otherwise healthy index file.
        """
        payload = {
            "k": self.k,
            "path_ids": self._path_ids,
            "counts": self._counts,
        }
        target = FilePath(path)
        temp = target.with_name(target.name + ".tmp")
        temp.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        temp.replace(target)

    @classmethod
    def open_disk(
        cls,
        graph: Graph,
        index_path: str | FilePath,
        catalog_path: str | FilePath,
        page_size: int = 4096,
        cache_pages: int = 256,
    ) -> "PathIndex":
        """Re-open a previously built disk index and its catalog."""
        payload = json.loads(FilePath(catalog_path).read_text(encoding="utf-8"))
        store = _DiskBackend(index_path, page_size=page_size, cache_pages=cache_pages)
        index = cls(graph, int(payload["k"]), store)
        index._path_ids = {
            key: int(value) for key, value in payload["path_ids"].items()
        }
        index._counts = {key: int(value) for key, value in payload["counts"].items()}
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
