"""Hash-partitioned path indexes: the sharded graph engine.

The k-path index is the dominant offline cost of the paper's approach,
and both its build and its scans parallelize naturally once the data is
partitioned.  This module partitions by *path start*: a multiplicative
hash assigns every vertex to one of N shards (:func:`shard_of`), and
shard ``s`` owns exactly the index entries ``(p, a, b)`` whose start
vertex ``a`` it owns.  Equivalently, each forward edge lives in the
shard of its source vertex and each inverse traversal in the shard of
its target — "hash-partition edges by source vertex", applied per
traversal direction so that every label path's relation is split by
its first column.

Three properties fall out of that rule and carry the whole design:

* **disjoint exactness** — for every label path ``p``, the per-shard
  relations partition ``p(G)``; their union (one packed-key merge,
  :func:`repro.relation.union`) is exactly the one-shard scan.  Nothing
  is approximated, so ``shards=N`` answers are identical to
  ``shards=1``.
* **independent builds** — a shard's relations are computed by
  restricting the *first* step of the trie walk to owned vertices and
  composing against full-graph step relations
  (:func:`repro.indexes.builder.path_relations_columnar`), so shards
  build with no communication — one after the other in this process,
  one process per shard under ``repro serve``.
* **locality** — single-source lookups (``I(p, a)`` scans, membership
  probes) route to the one shard owning ``a``; a graph mutation
  invalidates only the shards within undirected distance ``k - 1`` of
  the touched edge (:meth:`ShardedGraph.shards_touching`), so a
  commit group through :meth:`repro.api.GraphDatabase.apply` patches
  or rebuilds a neighborhood, not the world.

What does *not* shard is Kleene recursion: a ``Star`` path may hop
between shards arbitrarily often, so cross-shard closure cannot be
answered shard-locally.  Recursive subplans are therefore routed
through a single global CSR closure over the merged base relation
(:func:`repro.csr.partitioned_closure`) — exactness over locality.

:class:`ShardedGraph` presents the full :class:`~repro.indexes.pathindex.PathIndex`
interface (scan / scan_swapped / scan_from / contains / counts), so the
executor (anchored reads included) and the statistics layer run
unmodified against it;
the scatter-gather plan executor
(:func:`repro.engine.operators.execute_scattered`) additionally uses the
per-shard scan methods to keep join fan-in partitioned.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import BrokenExecutor
from pathlib import Path as FilePath
from typing import Iterable, Iterator, Sequence

from repro import relation as rel
from repro.errors import ShardUnavailableError, TransientError, ValidationError
from repro.faults import fire, retry_call
from repro.graph.graph import Graph, LabelPath
from repro.graph.stats import paths_k_sizes
from repro.indexes.builder import cataloged_counts, path_relations_columnar
from repro.indexes.pathindex import PathIndex
from repro.indexes.statistics import ExactStatistics, merge_shard_counts
from repro.relation import Order, Relation

#: Fibonacci-style multiplicative mixer: consecutive dense ids spread
#: uniformly over shards while staying a pure function of the id.
SHARD_MIX = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_SHARD_SHIFT = 17

#: Size bound on the per-index scatter-decision cache: decisions are
#: tiny, but a template-heavy workload of distinct queries would
#: otherwise pin plan trees forever.
DECISION_CACHE_MAX = 4096


class BoundedCache:
    """A size-capped mapping with FIFO eviction.

    Holds the sharded engine's scatter-pruning decisions.  They are
    pure functions of state that only changes when a shard's contents
    do, so eviction merely costs a re-derivation —
    insertion order is as good an eviction policy as any, and it keeps
    every operation O(1).  Writes can race between reader threads
    (queries are readers); each mutation is guarded by a lock so the
    size invariant holds under concurrency, and racing writers of the
    same key store equal values.
    """

    __slots__ = ("_data", "_maxsize", "_lock")

    def __init__(self, maxsize: int = DECISION_CACHE_MAX) -> None:
        if maxsize < 1:
            raise ValidationError(f"cache maxsize must be >= 1, got {maxsize}")
        self._data: OrderedDict = OrderedDict()
        self._maxsize = maxsize
        self._lock = threading.Lock()

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def get(self, key, default=None):
        return self._data.get(key, default)

    def __getitem__(self, key):
        return self._data[key]

    def __setitem__(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)

    def __contains__(self, key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


def shard_of(node_id: int, shard_count: int, seed: int = 0) -> int:
    """The shard owning ``node_id`` (and every path starting there).

    ``seed`` perturbs the hash before mixing, giving a whole family of
    placements; ``rebalance()`` walks candidate seeds when the default
    placement goes skewed under a hostile mutation stream.  ``seed=0``
    is bit-for-bit the historical map.
    """
    return ((((node_id + seed) * SHARD_MIX) & _MASK64) >> _SHARD_SHIFT) % shard_count


class ShardMembership:
    """Set-like view of one shard's vertices (no materialized set).

    Passed as the ``sources`` filter of the builder; ``mask`` is the
    vectorized membership test
    (:func:`repro.indexes.builder._restrict_sources` uses it to filter
    a whole column in one numpy pass).
    """

    __slots__ = ("shard", "shard_count", "seed")

    def __init__(self, shard: int, shard_count: int, seed: int = 0) -> None:
        self.shard = shard
        self.shard_count = shard_count
        self.seed = seed

    def __contains__(self, node_id: int) -> bool:
        return shard_of(node_id, self.shard_count, self.seed) == self.shard

    def mask(self, ids):
        """Boolean numpy mask of which ``ids`` belong to this shard."""
        numpy = rel._np
        mixed = (ids.astype(numpy.uint64) + numpy.uint64(self.seed)) * numpy.uint64(
            SHARD_MIX
        )
        return (mixed >> numpy.uint64(_SHARD_SHIFT)) % numpy.uint64(
            self.shard_count
        ) == numpy.uint64(self.shard)


class ShardedGraph:
    """N hash-partitioned :class:`PathIndex` shards over one graph.

    Build with :meth:`build`; query through the PathIndex-compatible
    facade (global scatter-gather) or the ``shard_*`` methods (one
    shard's slice).  This is the only index the API layer holds:
    ``shards=1`` is the one-shard instance, whose facade scans hand the
    single shard's relations through untouched.
    """

    def __init__(
        self,
        graph: Graph,
        k: int,
        shards: Sequence[PathIndex],
        backend: str,
        index_path: str | FilePath | None,
        shard_seed: int = 0,
    ) -> None:
        self.graph = graph
        self.k = k
        self._shards = list(shards)
        self._backend = backend
        self._index_path = index_path
        #: Hash seed of the vertex-to-shard map.  Fixed per instance:
        #: re-seeding (rebalancing) means a full rebuild into a new
        #: instance, never an in-place remap.
        self.shard_seed = shard_seed
        #: The step vocabulary the shards were enumerated over.  A
        #: mutation that changes it invalidates every shard's path set
        #: at once — the API layer then forces a full rebuild.
        self.alphabet = graph.labels()
        # Per-shard owned-vertex lists, computed in one pass over the
        # node ids and cached against the graph version (the id->shard
        # map is pure, but the id space grows with the graph).
        self._owned_version = -1
        self._owned_lists: list[list[int]] = []
        # Statistics caches (see invalidate_statistics for what drops
        # them).  Each shard's catalog is read once — one ``counts`` RPC
        # per worker on the coordinator — and both the merged catalog
        # and the per-shard statistics derive from that read.
        self._catalogs: list[dict[str, int] | None] = [None for _ in self._shards]
        self._merged_counts: dict[str, int] | None = None
        self._shard_statistics: list[ExactStatistics | None] = [
            None for _ in self._shards
        ]
        # |paths_k(G)| is maintained, not cached: one ball size
        # |paths_k_from(G, s, k)| per node id and their running sum.
        # ``None`` until first read, and again whenever the graph
        # changed at endpoints nobody named.
        self._ball_sizes: list[int] | None = None
        self._total_paths_k = 0
        #: Sources sized since the last :meth:`take_recounted_sources`.
        self._recounted_sources = 0
        #: Scatter-pruning decisions, keyed on ``(shard, plan)``.  A
        #: shard's catalog only changes with its contents, so its
        #: decisions are a per-*change* cost instead of a per-execution
        #: one.  Bounded (FIFO eviction) so a template-heavy workload of
        #: distinct queries cannot grow it without limit; dropped
        #: wholesale with the other statistics caches in
        #: :meth:`invalidate_statistics`.
        self.decision_cache = BoundedCache(DECISION_CACHE_MAX)

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        graph: Graph,
        k: int,
        shards: int,
        backend: str = "memory",
        index_path: str | FilePath | None = None,
        shard_seed: int = 0,
    ) -> "ShardedGraph":
        """Partition ``graph`` and build every shard's index.

        Shards build one after the other on the calling thread, each
        streamed from the columnar builder into its backend's load
        (:meth:`_serial_shard`).  In-process fan-out measured slower
        than this loop (PR 19), so parallel builds are one process per
        shard (:func:`repro.serve.worker.launch_workers`).
        """
        if shards < 1:
            raise ValidationError(f"shards must be >= 1, got {shards}")
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        if backend == "disk" and index_path is None:
            # Fail before any relation is computed (the dominant
            # build cost).
            raise ValidationError("the disk backend requires a file path")
        built = cls._build_shards(
            graph,
            k,
            shards,
            list(range(shards)),
            shard_seed,
            backend,
            index_path,
        )
        return cls(
            graph,
            k,
            [built[shard] for shard in range(shards)],
            backend,
            index_path,
            shard_seed=shard_seed,
        )

    @classmethod
    def _build_shards(
        cls,
        graph: Graph,
        k: int,
        shard_count: int,
        shard_ids: list[int],
        seed: int,
        backend: str,
        index_path: str | FilePath | None,
    ) -> dict[int, PathIndex]:
        """The listed shards' indexes, built from the graph as it is now.

        One :meth:`_serial_shard` per shard, in order; nothing built is
        left open when a later shard fails.
        """
        built: dict[int, PathIndex] = {}
        try:
            for shard in shard_ids:
                built[shard] = cls._serial_shard(
                    graph,
                    k,
                    shard_count,
                    shard,
                    seed,
                    backend,
                    index_path,
                )
        except BaseException:
            for index in built.values():
                index.close()
            raise
        return built

    @classmethod
    def _serial_shard(
        cls,
        graph: Graph,
        k: int,
        shard_count: int,
        shard: int,
        seed: int,
        backend: str,
        index_path: str | FilePath | None,
    ) -> PathIndex:
        """One shard's index, with build retry.

        The builder's generator feeds the load directly, so only ``k``
        relations are alive at a time — a payload list would hold the
        whole shard twice.  Transient faults retry with backoff *per
        shard* (the retry starts the generator over) — one flaky shard
        does not restart the whole build.  A worker-crash fault that
        persists through the retries is permanent for this build and
        surfaces as a typed :class:`ShardUnavailableError` naming the
        shard (degraded *query* answers exist; degraded *builds* do
        not — an index missing a shard would silently under-answer
        every future query).
        """

        def attempt() -> PathIndex:
            fire("shard.build", shard=shard)
            relations = path_relations_columnar(
                graph,
                k,
                sources=ShardMembership(shard, shard_count, seed),
            )
            return cls._shard_index(graph, k, relations, backend, index_path, shard)

        try:
            return retry_call(attempt)
        except TransientError as error:
            raise ShardUnavailableError(
                f"shard {shard} build failed after retries: {error}",
                shard=shard,
            ) from error
        except BrokenExecutor as error:
            raise ShardUnavailableError(
                f"shard {shard} build worker crashed: {error}", shard=shard
            ) from error

    @classmethod
    def _shard_index(
        cls,
        graph: Graph,
        k: int,
        relations: Iterable[tuple[LabelPath, Relation]],
        backend: str,
        index_path: str | FilePath | None,
        shard: int,
    ) -> PathIndex:
        path = cls.shard_index_path(index_path, shard)
        if backend == "disk" and path is not None:
            # The disk B+tree only bulk-loads into an empty file; a
            # stale or partial shard file must go first.
            FilePath(path).unlink(missing_ok=True)
        return PathIndex.from_relations(
            graph, k, relations, backend=backend, path=path
        )

    @staticmethod
    def shard_index_path(
        index_path: str | FilePath | None, shard: int
    ) -> FilePath | None:
        """Per-shard backing file for the disk backend."""
        if index_path is None:
            return None
        return FilePath(f"{index_path}.shard{shard}")

    # -- shard topology ---------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def shard_indexes(self) -> tuple[PathIndex, ...]:
        """The per-shard indexes (read-only view, for tests/benchmarks)."""
        return tuple(self._shards)

    def owner(self, node_id: int) -> int:
        return shard_of(node_id, len(self._shards), self.shard_seed)

    def owned_ids(self, shard: int) -> list[int]:
        """All graph node ids the shard owns, ascending (cached).

        One pass assigns every node to its shard; the lists are reused
        until the graph version moves (every query's epsilon disjunct
        asks for them, so rescanning per call would cost
        O(nodes x shards) per query).
        """
        if self._owned_version != self.graph.version:
            count = len(self._shards)
            lists: list[list[int]] = [[] for _ in range(count)]
            for node_id in self.graph.node_ids():
                lists[shard_of(node_id, count, self.shard_seed)].append(node_id)
            self._owned_lists = lists
            self._owned_version = self.graph.version
        return self._owned_lists[shard]

    def shards_touching(self, vertices: Iterable[int]) -> set[int]:
        """Shards whose relations can change when edges at ``vertices`` do.

        A length-``<= k`` path using an edge at ``vertices`` on hop
        ``i`` starts within ``i - 1 <= k - 1`` undirected hops of an
        endpoint, so the owners of the radius-``k - 1`` undirected ball
        around ``vertices`` are exactly the shards whose index entries
        a mutation there can create or destroy.  Callers must evaluate
        the ball on the graph that *contains* the edge: post-insert for
        additions, pre-delete for removals.
        """
        count = len(self._shards)
        seed = self.shard_seed
        frontier = set(vertices)
        seen = set(frontier)
        touched = {shard_of(node, count, seed) for node in frontier}
        for _ in range(self.k - 1):
            if not frontier or len(touched) == count:
                break
            next_frontier: set[int] = set()
            for node in frontier:
                for neighbor in self.graph.undirected_neighbors(node):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        next_frontier.add(neighbor)
                        touched.add(shard_of(neighbor, count, seed))
            frontier = next_frontier
        return touched

    def rebuild_shards(
        self,
        shard_ids: Iterable[int],
        endpoints: Iterable[int] | None = None,
    ) -> None:
        """Recompute the listed shards against the current graph.

        Every replacement is built before any shard is swapped, so a
        failing computation leaves every shard intact — except on the
        disk backend, whose stale files must be released before their
        replacements can be written.  Any failure propagates and the
        API layer discards the whole index (the same all-or-nothing
        contract as a full rebuild).  Must not be used across an
        alphabet change — the unlisted shards' path sets would silently
        be stale (:attr:`alphabet` is the guard).  ``endpoints`` goes
        to :meth:`invalidate_statistics`.
        """
        if self.alphabet != self.graph.labels():
            raise ValidationError(
                "edge-label vocabulary changed; rebuild the whole index"
            )
        shard_ids = sorted(set(shard_ids))
        for shard in shard_ids:
            if not 0 <= shard < len(self._shards):
                raise ValidationError(f"no such shard {shard}")
        if self._backend == "disk":
            for shard in shard_ids:
                self._shards[shard].close()
        built = self._build_shards(
            self.graph,
            self.k,
            len(self._shards),
            shard_ids,
            self.shard_seed,
            self._backend,
            self._index_path,
        )
        for shard, replacement in built.items():
            old, self._shards[shard] = self._shards[shard], replacement
            if self._backend != "disk":
                old.close()
        self.invalidate_statistics(endpoints)

    def invalidate_statistics(self, endpoints: Iterable[int] | None = None) -> None:
        """Bring the statistics in line with changed shards and graph.

        Called by everything that changes shard contents under one
        instance: :meth:`rebuild_shards`, :meth:`patch_shards`, and the
        RPC engine's ``apply_commit_group``.  The shard catalogs, their
        merge, the per-shard statistics and :attr:`decision_cache` are
        dropped and rebuilt on next use — touched shards changed their
        catalogs, and the graph change behind that moved
        ``|paths_k(G)|`` under *every* shard's selectivities.

        The per-source ball sizes behind :meth:`total_paths_k` survive:
        ``endpoints`` names the endpoints of every edge the graph
        gained or lost since the last call, and only the sources near
        them are sized again (:func:`repro.graph.stats.paths_k_sizes`
        has the argument).  ``None`` means the endpoints are unknown,
        which drops the sizes for a count from scratch on next read.
        New sizes are computed before any is stored, so a failure in
        between leaves the old, consistent sizes (and a caller that
        discards the index, as the API layer does).
        """
        self._catalogs = [None for _ in self._shards]
        self._merged_counts = None
        self._shard_statistics = [None for _ in self._shards]
        self.decision_cache.clear()
        sizes = self._ball_sizes
        if endpoints is None or sizes is None:
            self._ball_sizes = None
            return
        # Nodes the graph grew by are sized whether or not an endpoint.
        grown = range(len(sizes), self.graph.node_count)
        fresh = paths_k_sizes(self.graph, self.k, around={*endpoints, *grown})
        sizes.extend([0] * len(grown))
        for source, size in fresh.items():
            self._total_paths_k += size - sizes[source]
            sizes[source] = size
        self._recounted_sources += len(fresh)

    # -- delta patching (the sharded write path) --------------------------

    @property
    def supports_patch(self) -> bool:
        """Whether every shard index takes per-path edits.

        True for the memory backend (copy-on-write column edits); the
        disk and compressed backends only bulk-load, so mutations
        there fall back to the ball rebuild.
        """
        return all(
            getattr(shard, "supports_patch", False) for shard in self._shards
        )

    def patch_shards(
        self, changes: dict[int, dict], endpoints: Iterable[int] | None = None
    ) -> None:
        """Apply per-shard index deltas in place of a ball rebuild.

        ``changes`` maps shard id -> (encoded path -> ``(adds,
        removes)`` pair lists), the shape
        :func:`repro.write.delta.resolve_patch` produces.  Inserts and
        deletes are idempotent at the backend, so patching is safe to
        drive from a recheck that lists a pair already in its final
        state.  Each edited path's columns are replaced, never written
        (:meth:`PathIndex.patch`), so relations scanned before the
        patch stay what they were.  ``endpoints`` goes to :meth:`invalidate_statistics`,
        exactly as for :meth:`rebuild_shards`.  Must not be used across
        an alphabet change — same guard, same reason.
        """
        if self.alphabet != self.graph.labels():
            raise ValidationError(
                "edge-label vocabulary changed; rebuild the whole index"
            )
        for shard in changes:
            if not 0 <= shard < len(self._shards):
                raise ValidationError(f"no such shard {shard}")
        for shard, patches in changes.items():
            index = self._shards[shard]
            for encoded, (adds, removes) in patches.items():
                index.patch(LabelPath.decode(encoded), adds, removes)
        self.invalidate_statistics(endpoints)

    def absorb_group(
        self,
        batches,
        changes: dict[int, dict] | None,
        touched: set[int],
        endpoints: Iterable[int] | None,
    ) -> None:
        """Follow one commit group the graph has already taken.

        ``batches`` are the group's mutation batches, ``changes`` the
        per-shard point edits resolved for it (``None`` when it cannot
        be patched), ``touched`` the shards its edges can reach.  How
        the group gets to the shards is this object's decision because
        it knows where they live: in this process they are patched in
        place when there are edits to apply and rebuilt otherwise; the
        batches themselves are for shards that keep their own graph.
        """
        if changes is not None:
            self.patch_shards(changes, endpoints)
        else:
            self.rebuild_shards(touched, endpoints=endpoints)

    # -- PathIndex facade (global scatter-gather) -------------------------

    def scan(self, path: LabelPath) -> Relation:
        """``I_{G,k}(p)`` — the union of every shard's slice, BY_SRC.

        Per-shard slices are disjoint (they partition by start owner),
        so the packed-key union is a pure merge; sort order and
        duplicate-freedom match the one-shard scan exactly.
        """
        return rel.union(shard.scan(path) for shard in self._shards)

    def scan_swapped(self, path: LabelPath) -> Relation:
        """The relation of ``p`` sorted by (tgt, src) — inverse-scan trick.

        Exactly a single index's implementation lifted over the merge:
        scatter-gather the inverse path (itself indexed in every shard)
        and swap the merged columns zero-copy.
        """
        return rel.swap(self.scan(path.inverted()))

    def scan_from(self, path: LabelPath, source: int) -> list[int]:
        """``I(p, a)`` routed to the one shard owning ``a``.

        The leftmost scan of an anchored read, so it is a shard scan
        like :meth:`shard_scan`: retried, ``shard.scan`` fired per attempt.
        """
        shard = self.owner(source)

        def attempt() -> list[int]:
            fire("shard.scan", shard=shard, path=path.encode())
            return self._shards[shard].scan_from(path, source)

        return retry_call(attempt)

    def contains(self, path: LabelPath, source: int, target: int) -> bool:
        """``I(p, a, b)`` routed to the one shard owning ``a``."""
        return self._shards[self.owner(source)].contains(path, source, target)

    def count(self, path: LabelPath) -> int:
        return sum(shard.count(path) for shard in self._shards)

    def _shard_catalog(self, shard: int) -> dict[str, int]:
        """What one shard reports to the statistics layer (cached).

        :func:`~repro.indexes.builder.cataloged_counts` over the
        shard's exact counts, whether the shard was just built or has
        been patched since: a patch gives a path an id on its first
        pair and never retires one, so the shard's own catalog lists
        *empty* paths by history, and histogram bucket averages would
        see that.  Read once per shard until
        :meth:`invalidate_statistics`.
        """
        catalog = self._catalogs[shard]
        if catalog is None:
            catalog = cataloged_counts(
                self._shards[shard].counts_by_path(),
                self.alphabet,
                self.k,
            )
            self._catalogs[shard] = catalog
        return catalog

    def counts_by_path(self) -> dict[str, int]:
        """Merged exact counts (the statistics layer's input).

        Keys are the union of the shards' catalogs: every non-empty
        path, and an empty one exactly when its prefix is non-empty
        somewhere — the same listing at every shard count.

        The merge is cached until :meth:`invalidate_statistics`: planner
        costing probes this per query, and re-summing N shard catalogs
        each time was pure waste.  A defensive copy is returned so
        callers cannot corrupt the cache.
        """
        if self._merged_counts is None:
            self._merged_counts = merge_shard_counts(
                [self._shard_catalog(shard) for shard in range(len(self._shards))]
            )
        return dict(self._merged_counts)

    def paths(self) -> Iterator[LabelPath]:
        """Every cataloged label path, in first-seen (trie) order."""
        for encoded in self.counts_by_path():
            yield LabelPath.decode(encoded)

    @property
    def path_count(self) -> int:
        return len(self.counts_by_path())

    @property
    def entry_count(self) -> int:
        return sum(shard.entry_count for shard in self._shards)

    def shard_entry_counts(self) -> list[int]:
        """Index entries per shard — the rebalancer's skew signal."""
        return [shard.entry_count for shard in self._shards]

    @property
    def backend_name(self) -> str:
        return f"sharded[{len(self._shards)}x{self._backend}]"

    def close(self) -> None:
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "ShardedGraph":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- statistics (global merge + per-shard slices) ---------------------

    def total_paths_k(self) -> int:
        """``|paths_k(G)|`` — the shared selectivity denominator.

        Counted from scratch once per instance, then kept current by
        :meth:`invalidate_statistics` from the endpoints it is given.
        """
        if self._ball_sizes is None:
            sizes = paths_k_sizes(self.graph, self.k)
            self._ball_sizes = [sizes[node] for node in self.graph.node_ids()]
            self._total_paths_k = sum(self._ball_sizes)
            self._recounted_sources += len(sizes)
        return self._total_paths_k

    def take_recounted_sources(self) -> int:
        """Sources sized for :meth:`total_paths_k` since the last call.

        The API layer adds this to ``stats().write.recounted_sources``
        after every refresh; taking (not reading) keeps that sum right
        across the index instances a database goes through.
        """
        taken, self._recounted_sources = self._recounted_sources, 0
        return taken

    def merged_statistics(self) -> ExactStatistics:
        """Exact global statistics from the merged shard catalogs.

        Agrees with ``ExactStatistics.from_index`` over one
        :class:`PathIndex` of the whole graph on every path estimate:
        per-shard slices partition each relation, so their counts sum
        to the global catalog.  Both caches are reused.
        """
        return ExactStatistics(
            counts=self.counts_by_path(),
            k=self.k,
            total_paths_k=self.total_paths_k(),
        )

    def shard_statistics(self, shard: int) -> ExactStatistics:
        """Exact counts of one shard's slice of every path relation.

        Built from the shard's cached catalog (no second read of the
        shard) and cached until :meth:`invalidate_statistics`.  Shard
        pruning reads it per slice: a count of zero proves the slice
        empty.  ``total_paths_k`` is the *global* ``|paths_k(G)|``, so
        a shard's selectivities divide by the same denominator as the
        global provider's.
        """
        if not 0 <= shard < len(self._shards):
            raise ValidationError(f"no such shard {shard}")
        cached = self._shard_statistics[shard]
        if cached is None:
            cached = ExactStatistics(
                counts=self._shard_catalog(shard),
                k=self.k,
                total_paths_k=self.total_paths_k(),
            )
            self._shard_statistics[shard] = cached
        return cached

    # -- per-shard slices (the scatter side of scatter-gather) ------------

    def shard_scan(self, shard: int, path: LabelPath, deadline=None) -> Relation:
        """One shard's slice of ``p(G)``, BY_SRC-sorted.

        Retried at scan granularity: a scan is the finest idempotent
        unit, so a transient fault capped per ``(shard, path)`` always
        recovers on the immediate retry — a whole-slice retry would
        re-roll every *other* path's fault dice and can cascade.
        ``deadline`` clips the retry backoff (and, on the RPC-backed
        subclass, rides in every request header) so a slow shard can
        never outlive the query's budget.
        """

        def attempt() -> Relation:
            fire("shard.scan", shard=shard, path=path.encode())
            return self._shards[shard].scan(path)

        return retry_call(attempt, deadline=deadline)

    def shard_scan_swapped(
        self, shard: int, path: LabelPath, deadline=None
    ) -> Relation:
        """One shard's slice of ``p(G)``, re-sorted BY_TGT.

        The inverse-path trick does not apply shard-locally — the
        shard's ``p⁻`` entries are restricted by the *other* endpoint —
        so the slice is explicitly re-sorted.  The slice is ``1/N`` of
        the relation, so the per-shard sorts sum to one global sort.
        """

        def attempt() -> Relation:
            fire("shard.scan", shard=shard, path=path.encode())
            return rel.dedup_sort(self._shards[shard].scan(path), Order.BY_TGT)

        return retry_call(attempt, deadline=deadline)

    def shard_identity(self, shard: int) -> Relation:
        """The identity relation over the shard's owned vertices."""
        return rel.identity(self.owned_ids(shard))

    def __repr__(self) -> str:
        return (
            f"ShardedGraph(shards={len(self._shards)}, k={self.k}, "
            f"backend={self._backend!r}, entries={self.entry_count})"
        )
