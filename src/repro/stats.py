"""Structured engine statistics: :class:`EngineStats`.

The engine's counters grew one flat dictionary key per PR; consumers
had to know which of nineteen strings belonged to which subsystem.
:class:`EngineStats` groups them — query-result cache, shard
pruning, prepared statements, fault accounting — as typed frozen
dataclasses, with :meth:`EngineStats.as_dict` flattening them to the
one mapping the CLI prints and the serve layer returns verbatim at
``GET /stats``.

>>> from repro.stats import CacheStats, EngineStats
>>> stats = EngineStats(cache=CacheStats(hits=3, misses=1))
>>> stats.cache.hits
3
>>> stats.as_dict()["hits"]
3
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class CacheStats:
    """The whole-answer LRU and the executor scan memo."""

    hits: int = 0
    misses: int = 0
    entries: int = 0
    capacity: int = 0
    pairs: int = 0
    max_pairs: int = 0
    scan_memo_hits: int = 0
    scan_memo_misses: int = 0


@dataclass(frozen=True, slots=True)
class ScatterStats:
    """Shard-pruning decisions of the sharded engine, and the worker
    slices a coordinator kept (served from memory, fetched, held)."""

    shards_scanned: int = 0
    shards_pruned: int = 0
    disjuncts_pruned: int = 0
    scan_cache_hits: int = 0
    scan_cache_misses: int = 0
    scan_cache_pairs: int = 0


@dataclass(frozen=True, slots=True)
class PreparedStats:
    """Plan-cache traffic of every read path."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    plans_computed: int = 0


@dataclass(frozen=True, slots=True)
class FaultStats:
    """Resilience accounting: answers served less than whole."""

    #: Shard slices dropped by ``query(degraded=True)`` — nonzero means
    #: some answers were served partial.
    shards_failed: int = 0


@dataclass(frozen=True, slots=True)
class WriteStats:
    """The write path: group commit, the mutation log, delta patching."""

    #: Commit groups flushed by the group committer.
    groups: int = 0
    #: Batches that rode another batch's flush (group size - 1, summed).
    coalesced: int = 0
    #: Groups absorbed by per-shard delta patching.
    patched: int = 0
    #: Groups that fell back to a ball or full index rebuild.
    rebuilt: int = 0
    #: Durable mutation-log records (0 when logging is disabled).
    log_records: int = 0
    #: Batches replayed from the log when the database opened.
    replayed: int = 0
    #: Sources whose ``paths_k`` ball was re-counted to keep
    #: ``|paths_k(G)|`` current (every node on an index build; only
    #: those near the mutated edges when a sharded index absorbs a
    #: group).  Divided by ``groups`` it says how local the writes are.
    recounted_sources: int = 0


@dataclass(frozen=True, slots=True)
class EngineStats:
    """One consistent snapshot of every engine counter group."""

    cache: CacheStats = CacheStats()
    scatter: ScatterStats = ScatterStats()
    prepared: PreparedStats = PreparedStats()
    faults: FaultStats = FaultStats()
    write: WriteStats = WriteStats()

    def as_dict(self) -> dict[str, int]:
        """Every counter as one flat mapping, key for key.

        The prepared group's ``hits``/``misses``/``invalidations``
        carry their historical ``prepared_`` prefix; everything else
        maps by field name.
        """
        return {
            "hits": self.cache.hits,
            "misses": self.cache.misses,
            "entries": self.cache.entries,
            "capacity": self.cache.capacity,
            "pairs": self.cache.pairs,
            "max_pairs": self.cache.max_pairs,
            "scan_memo_hits": self.cache.scan_memo_hits,
            "scan_memo_misses": self.cache.scan_memo_misses,
            "shards_scanned": self.scatter.shards_scanned,
            "shards_pruned": self.scatter.shards_pruned,
            "disjuncts_pruned": self.scatter.disjuncts_pruned,
            "scan_cache_hits": self.scatter.scan_cache_hits,
            "scan_cache_misses": self.scatter.scan_cache_misses,
            "scan_cache_pairs": self.scatter.scan_cache_pairs,
            "shards_failed": self.faults.shards_failed,
            "prepared_hits": self.prepared.hits,
            "prepared_misses": self.prepared.misses,
            "prepared_invalidations": self.prepared.invalidations,
            "plans_computed": self.prepared.plans_computed,
            "write_groups": self.write.groups,
            "write_coalesced": self.write.coalesced,
            "write_patched": self.write.patched,
            "write_rebuilt": self.write.rebuilt,
            "log_records": self.write.log_records,
            "replayed": self.write.replayed,
            "recounted_sources": self.write.recounted_sources,
        }
