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
page-based B+tree (faithful to the paper's use of PostgreSQL B+trees)
and the compressed backend one posting list per path.  A catalog maps
each label path to a dense integer path id assigned in build (trie)
order; the catalog also records exact per-path counts, from which the
statistics layer is derived.

A patch never edits an installed column.  ``scan`` is zero-copy, so the
columns it returned may at any moment sit inside a
``QueryResult.report.relation``, a ``ScanMemo`` or a worker reply being
encoded; :meth:`PathIndex.patch` therefore edits a *copy* of the path's
columns and swaps it in (copy-on-write).  Whoever holds the old pair
keeps the relation as of the version it was scanned at.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, bisect_right
from pathlib import Path as FilePath
from typing import Iterable, Iterator

from repro.errors import PathIndexError, ValidationError
from repro.graph.graph import Graph, LabelPath
from repro.indexes.builder import path_relations_columnar
from repro.relation import Order, Relation, locate, swap
from repro.storage.diskbtree import DiskBPlusTree
from repro.storage.records import decode_key, encode_key

Pair = tuple[int, int]

#: What a backend loads: one ``(path_id, src, tgt)`` run per non-empty
#: path, ids ascending, columns (src, tgt)-sorted and duplicate-free.
Run = tuple[int, array, array]


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
        """Remove, then add, on a copy; install it if anything changed."""
        installed = self.scan_columns(path_id)
        sources, targets = installed[0][:], installed[1][:]
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
        if inserted or removed:
            self._columns[path_id] = (sources, targets)
        return inserted, removed

    def __len__(self) -> int:
        return sum(len(sources) for sources, _ in self._columns.values())

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

    def load(self, runs: Iterable[Run]) -> None:
        """Crash-safe load: build a sibling file, atomically swap it in.

        The tree is written to ``<path>.build`` and renamed over the
        real path only after a successful flush, so a crash mid-build
        leaves whatever was at the path before (for a fresh build, a
        valid empty tree) instead of a torn file that fails every
        subsequent open.
        """
        temp_path = self._path.with_name(self._path.name + ".build")
        temp_path.unlink(missing_ok=True)
        temp = DiskBPlusTree(
            temp_path, page_size=self._page_size, cache_pages=self._cache_pages
        )
        try:
            temp.bulk_load(
                (encode_key((path_id, source, target)), b"")
                for path_id, sources, targets in runs
                for source, target in zip(sources, targets)
            )
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

    def _prefix(self, *prefix: int) -> Iterator[tuple[int, ...]]:
        for key, _ in self._tree.prefix_scan(encode_key(prefix)):
            yield decode_key(key)

    def scan_columns(self, path_id: int) -> tuple[array, array]:
        """One path's relation as (src, tgt)-sorted int64 columns."""
        sources = array("q")
        targets = array("q")
        for _, source, target in self._prefix(path_id):
            sources.append(source)
            targets.append(target)
        return sources, targets

    def targets_from(self, path_id: int, source: int) -> list[int]:
        return [target for _, _, target in self._prefix(path_id, source)]

    def contains(self, path_id: int, source: int, target: int) -> bool:
        return encode_key((path_id, source, target)) in self._tree

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
        path: str | FilePath | None = None,
        page_size: int = 4096,
        cache_pages: int = 256,
    ) -> "PathIndex":
        """Materialize ``I_{G,k}`` over ``graph``.

        Parameters
        ----------
        backend:
            ``"memory"`` (per-path sorted columns), ``"disk"``
            (page-based B+tree at ``path``) or ``"compressed"``
            (posting lists).
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
        path: str | FilePath | None = None,
        page_size: int = 4096,
        cache_pages: int = 256,
    ) -> "PathIndex":
        """Materialize an index from precomputed ``(path, relation)`` pairs.

        ``relations`` must arrive in trie (DFS) order with each relation
        ``(src, tgt)``-sorted and duplicate-free — exactly what
        :func:`repro.indexes.builder.path_relations_columnar` yields and
        what :class:`repro.sharding.ShardedGraph` workers hand back.
        Each non-empty path reaches the backend as one ``(path_id, src,
        tgt)`` run of the relation's own columns: the memory backend
        keeps them, the other two encode them.
        """
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        store = cls._make_backend(
            backend, path=path, page_size=page_size, cache_pages=cache_pages
        )
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

        try:
            store.load(runs())
        except BaseException:
            store.close()
            raise
        return index

    @staticmethod
    def _make_backend(
        backend: str,
        path: str | FilePath | None,
        page_size: int,
        cache_pages: int,
    ):
        if backend == "memory":
            return _MemoryBackend()
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

        Sorted by (src, tgt) — the index's key order — so the returned
        relation carries ``Order.BY_SRC`` and merge joins can consume it
        without re-sorting.  On the memory backend its columns *are*
        the installed ones: read them, never write them.
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

    @property
    def supports_patch(self) -> bool:
        """Whether the backend takes edits (the memory backend only)."""
        return hasattr(self._backend, "patch")

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
        exact (they are the statistics layer's ground truth).
        """
        if not self.supports_patch:
            raise PathIndexError(
                f"backend {self.backend_name!r} cannot patch; rebuild instead"
            )
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
