"""The RPC coordinator: the in-process engine over out-of-process shards.

Two classes:

* :class:`WorkerStub` — the client half of one worker's socket.  It
  implements the bulk read interface of a
  :class:`~repro.indexes.pathindex.PathIndex` (``scan`` / ``count`` /
  ``counts_by_path`` / ``entry_count``), so a list of stubs can stand
  wherever a list of in-process shard indexes does.

* :class:`RpcShardedGraph` — a :class:`~repro.sharding.ShardedGraph`
  whose shards *are* stubs.  Everything layered on the sharded engine
  — ``operators.execute_scattered``, :class:`ScatterPolicy` pruning,
  the partitioned-closure gather, prepared plans, per-shard statistics
  — runs unmodified: the facade contract is the whole point of the
  PR-4 design, and this module is where it pays off.

A warm scan makes no RPC: a worker's columns change only when a commit
group patches them, so each fetched slice is kept (:class:`SliceCache`)
until ``apply_commit_group`` empties the cache before its broadcast.  A
relaunched fleet starts empty; a restarted worker replays to the same
columns, so a restart keeps it.  Point lookups (``scan_from``, the
leftmost scan of an anchored read, and ``contains``) cut the owner's
kept slice rather than asking the worker, so they share it.

Failure semantics reuse PR 7 verbatim.  Transport failures raise
:class:`~repro.errors.TransientWireError`, which ``retry_call``
retries with deadline-clipped backoff (reconnecting each time); what
survives the retries surfaces through the unchanged
``operators._guarded_slice`` contract as a typed
:class:`~repro.errors.ShardUnavailableError` in strict mode or a
dropped (counted) slice under ``degraded=True``.  Deadlines propagate
as a ``deadline_ms`` remaining-budget header on every request.

:class:`CoordinatorDatabase` is a drop-in
:class:`~repro.api.GraphDatabase` over an :class:`RpcShardedGraph`: a
committed group reaches the workers as one ``apply`` broadcast, and a
restarted worker forks from the fleet's *base* graph and replays the
coordinator's journal (:attr:`RpcShardedGraph.full_graph_transfers`
stays 0, the chaos tests assert it).
"""

from __future__ import annotations

import copy
import socket
import threading
from dataclasses import replace

from repro.api import GraphDatabase
from repro.errors import (
    ReproError,
    TransientWireError,
    ValidationError,
)
from repro.faults import fire, retry_call
from repro.graph.graph import Graph, LabelPath
from repro.relation import Order, Relation, dedup_sort, locate, restrict_src, union
from repro.serve import protocol
from repro.serve.worker import WorkerHandle, launch_workers
from repro.sharding import ShardedGraph
from repro.stats import EngineStats

#: Socket timeout for a single RPC when no query deadline is in force.
#: Generous — a worker answering slowly is not a worker that is gone —
#: but finite, so a hung worker becomes a retryable failure instead of
#: a hung coordinator.
DEFAULT_RPC_TIMEOUT = 30.0


class WorkerStub:
    """One worker's socket, presented as a PathIndex read facade.

    One persistent connection, guarded by a lock (scatter threads share
    the stub); dropped and lazily re-established on any transport
    failure, so a retry after a worker restart transparently reconnects
    to the replacement process.
    """

    def __init__(
        self, handle: WorkerHandle, rpc_timeout: float = DEFAULT_RPC_TIMEOUT
    ) -> None:
        self.handle = handle
        self._rpc_timeout = rpc_timeout
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()

    # -- transport --------------------------------------------------------

    def _call(self, op: str, deadline=None, **params) -> tuple[dict, bytes]:
        """One request/response exchange with the worker.

        The deadline's *remaining* budget rides in the header (the
        worker refuses spent budgets) and clips the socket timeout (a
        reply that cannot arrive in time is abandoned, not awaited).
        Both fault-injection points fire here: ``rpc.send`` before the
        request hits the wire, ``rpc.recv`` over the reply payload —
        the latter is a ``corrupt`` point, so chaos plans can scramble
        reply bytes and assert the codec catches them.
        """
        header = {"op": op, **params}
        timeout = self._rpc_timeout
        if deadline is not None:
            remaining = deadline.remaining()
            header["deadline_ms"] = remaining * 1000.0
            timeout = min(timeout, max(remaining, 0.001))
        with self._lock:
            try:
                if self._sock is None:
                    self._sock = socket.create_connection(
                        ("127.0.0.1", self.handle.port),
                        timeout=self._rpc_timeout,
                    )
                self._sock.settimeout(timeout)
                fire("rpc.send", shard=self.handle.shard, op=op)
                protocol.send_frame(self._sock, header)
                reply, payload = protocol.recv_frame(self._sock)
            except (OSError, TransientWireError) as error:
                # Connection state is unknown after any transport
                # failure: drop it so the retry reconnects cleanly
                # (possibly to a restarted worker on a new port via a
                # refreshed handle).
                self._drop()
                raise TransientWireError(
                    f"worker {self.handle.shard} rpc {op!r} failed: {error}"
                ) from error
        payload = fire(
            "rpc.recv", payload, shard=self.handle.shard, op=op
        )
        if not reply.get("ok"):
            protocol.raise_remote(reply.get("error", {}))
        return reply, payload

    def _drop(self) -> None:
        """Discard the connection (caller holds the lock)."""
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def rebind(self, handle: WorkerHandle) -> None:
        """Point the stub at a replacement worker process."""
        with self._lock:
            self.handle = handle
            self._drop()

    # -- PathIndex read facade --------------------------------------------

    def scan(self, path: LabelPath, deadline=None) -> Relation:
        _, payload = self._call("scan", deadline=deadline, path=path.encode())
        return protocol.decode_relation(payload)

    def count(self, path: LabelPath) -> int:
        reply, _ = self._call("count", path=path.encode())
        return int(reply["value"])

    def counts_by_path(self) -> dict[str, int]:
        reply, _ = self._call("counts")
        return dict(reply["counts"])

    @property
    def entry_count(self) -> int:
        reply, _ = self._call("entry_count")
        return int(reply["value"])

    #: Workers are memory-backed; their shard indexes take per-path
    #: edits, so the coordinator's delta-patching path stays open over RPC.
    supports_patch = True

    def apply_group(
        self,
        seq: int,
        mutations: list[dict],
        patch: dict | None = None,
        rebuild: bool = False,
    ) -> int:
        """Ship one commit group: mutations + this shard's index move."""
        reply, _ = self._call(
            "apply", seq=seq, mutations=mutations, patch=patch, rebuild=rebuild
        )
        return int(reply["version"])

    def close(self) -> None:
        """Best-effort clean shutdown of the worker, then of the socket."""
        try:
            self._call("shutdown")
        except ReproError:
            # A worker already gone cannot be shut down any harder;
            # _call has already normalized every transport failure into
            # the typed taxonomy, so this swallow is deliberate and
            # narrow — close() must succeed on a dead fleet.
            pass
        with self._lock:
            self._drop()


class SliceCache:
    """Fetched worker slices, frozen, keyed ``(shard, path, order)``;
    thread-safe, at most ``max_pairs`` pairs, oldest slice out first."""

    def __init__(self, max_pairs: int) -> None:
        self.max_pairs = max(0, max_pairs)
        self.hits = self.misses = self.pairs = 0
        self._slices: dict[tuple, Relation] = {}
        self._lock = threading.Lock()

    def fetch(self, key: tuple, load) -> Relation:
        """The slice kept under ``key``; on a miss, ``load()`` and keep it."""
        with self._lock:
            kept = self._slices.get(key)
            if kept is not None:
                self.hits += 1
                return kept
            self.misses += 1
        relation = load().freeze()
        with self._lock:
            if key not in self._slices and len(relation) <= self.max_pairs:
                self._slices[key] = relation
                self.pairs += len(relation)
                while self.pairs > self.max_pairs:
                    self.pairs -= len(self._slices.pop(next(iter(self._slices))))
        return relation

    def clear(self) -> None:
        with self._lock:
            self._slices.clear()
            self.pairs = 0


class RpcShardedGraph(ShardedGraph):
    """A :class:`ShardedGraph` whose shard "indexes" are RPC stubs.

    Constructed over already-launched workers; :meth:`launch` forks
    them.  The base class provides the whole facade (global scans,
    routed lookups, merged statistics, scatter topology) by calling the
    stubs' PathIndex interface; only the per-shard scatter calls are
    overridden, to forward the deadline, to keep the ``shard.scan``
    injection point firing coordinator-side exactly as it does
    in-process, and to answer a warm scan from :attr:`slices`.
    """

    def __init__(
        self,
        graph: Graph,
        k: int,
        handles: list[WorkerHandle],
        prune_empty: bool = True,
        rpc_timeout: float = DEFAULT_RPC_TIMEOUT,
        shard_seed: int = 0,
        max_cached_pairs: int = 0,
    ) -> None:
        stubs = [WorkerStub(handle, rpc_timeout) for handle in handles]
        super().__init__(
            graph,
            k,
            shards=stubs,
            backend="rpc",
            index_path=None,
            prune_empty=prune_empty,
            shard_seed=shard_seed,
        )
        self.handles = list(handles)
        # The restart checkpoint: a frozen snapshot of the graph every
        # worker was forked from.  A replacement worker launches from
        # this plus a journal replay — never from the live (mutated)
        # graph, which would be a full-graph transfer per restart.
        self.base_graph = copy.deepcopy(graph)
        #: In-memory mirror of the mutation stream since launch:
        #: ``(seq, flattened mutation wire list)`` per commit group.
        self.journal: list[tuple[int, list[dict]]] = []
        self.journal_seq = 0
        #: Mutations shipped to restarted workers via journal replay.
        self.replayed_mutations = 0
        #: Restarts that had to re-ship the full current graph (the
        #: pre-journal behavior).  The replay path keeps this at 0.
        self.full_graph_transfers = 0
        #: Every slice fetched since the last commit group.
        self.slices = SliceCache(max_cached_pairs)

    @classmethod
    def launch(
        cls,
        graph: Graph,
        k: int,
        shards: int,
        prune_empty: bool = True,
        rpc_timeout: float = DEFAULT_RPC_TIMEOUT,
        shard_seed: int = 0,
        max_cached_pairs: int = 0,
    ) -> "RpcShardedGraph":
        """Fork ``shards`` workers (one build per process) and wrap them."""
        handles = launch_workers(
            graph, k, shards, prune_empty=prune_empty, shard_seed=shard_seed
        )
        return cls(
            graph,
            k,
            handles,
            prune_empty=prune_empty,
            rpc_timeout=rpc_timeout,
            shard_seed=shard_seed,
            max_cached_pairs=max_cached_pairs,
        )

    def scan(self, path: LabelPath) -> Relation:
        """Facade scan: every worker's slice through :meth:`shard_scan`.

        A one-worker fleet answers through the plain executor, which
        reads the facade; routing it here keeps the slice cache, the
        per-scan retry and the ``shard.scan`` injection point between it
        and the wire.
        """
        return union(
            self.shard_scan(shard, path) for shard in range(len(self._shards))
        )

    def scan_from(self, path: LabelPath, source: int) -> list[int]:
        """``I(p, a)``: the owner's slice of ``p``, kept or fetched, cut at ``a``."""
        owned = self.shard_scan(self.owner(source), path)
        return list(restrict_src(owned, source).tgt)

    def contains(self, path: LabelPath, source: int, target: int) -> bool:
        owned = self.shard_scan(self.owner(source), path)
        return locate(owned.src, owned.tgt, source, target)[1]

    # -- scatter calls (deadline-forwarding overrides) --------------------

    def shard_scan(self, shard: int, path: LabelPath, deadline=None) -> Relation:
        """One worker's slice of ``p(G)``: kept, or fetched over RPC.

        A miss has the in-process contract: retried at scan
        granularity, ``shard.scan`` fired per attempt (chaos plans see
        no difference between engines), deadline clipping the backoff
        *and* riding to the worker in the request header.
        """

        def attempt() -> Relation:
            fire("shard.scan", shard=shard, path=path.encode())
            return self._shards[shard].scan(path, deadline=deadline)

        return self.slices.fetch(
            (shard, path, Order.BY_SRC), lambda: retry_call(attempt, deadline=deadline)
        )

    def shard_scan_swapped(
        self, shard: int, path: LabelPath, deadline=None
    ) -> Relation:
        """One worker's slice re-sorted BY_TGT: the worker ships the
        canonical :meth:`shard_scan` slice either way, the sort is here."""
        return self.slices.fetch(
            (shard, path, Order.BY_TGT),
            lambda: dedup_sort(self.shard_scan(shard, path, deadline), Order.BY_TGT),
        )

    # -- lifecycle --------------------------------------------------------

    def rebuild_shards(self, shard_ids, endpoints=None) -> None:
        """In-process partial rebuild does not apply over RPC."""
        raise ValidationError(
            "RpcShardedGraph shards rebuild in their worker processes; "
            "use apply_commit_group()"
        )

    def patch_shards(self, changes: dict[int, dict], endpoints=None) -> None:
        """In-process patching does not apply over RPC either."""
        raise ValidationError(
            "RpcShardedGraph shards patch in their worker processes; "
            "use apply_commit_group()"
        )

    def apply_commit_group(
        self,
        mutations: list[dict],
        patch: dict[int, dict] | None,
        touched: set[int],
        endpoints: set[int] | None = None,
    ) -> None:
        """Broadcast one commit group to every worker, then journal it.

        Every worker applies every mutation to its graph copy
        (relations compose against the full graph, so all copies must
        move in lockstep); each worker's *index* move is pre-computed
        coordinator-side — ``patch`` maps shard -> that shard's point
        edits (delta path), ``patch=None`` means the workers in
        ``touched`` rebuild their ball instead.  Any worker failing
        mid-broadcast propagates — the caller discards the whole index
        and relaunches, because half-mutated workers are unusable.  The
        journaled group is what restarted workers replay; ``endpoints``
        goes to :meth:`invalidate_statistics`.  The kept slices go first.
        """
        self.slices.clear()
        seq = self.journal_seq + 1
        for shard, stub in enumerate(self._shards):
            if patch is not None:
                stub.apply_group(seq, mutations, patch=patch.get(shard, {}))
            else:
                stub.apply_group(seq, mutations, rebuild=shard in touched)
        self.journal_seq = seq
        self.journal.append((seq, mutations))
        self.invalidate_statistics(endpoints)

    def absorb_group(self, batches, changes, touched, endpoints) -> None:
        """One broadcast: the workers patch or rebuild their own shards."""
        mutations = [mutation.as_wire() for batch in batches for mutation in batch]
        self.apply_commit_group(mutations, changes, touched, endpoints)

    def worker_alive(self, shard: int) -> bool:
        return self.handles[shard].alive()

    def restart_worker(self, shard: int) -> None:
        """Fork a replacement for a dead worker and catch it up by replay.

        The replacement builds from the fleet's *base* graph snapshot,
        then one ``apply`` ships the journal — the mutation stream since
        launch — and rebuilds its shard once at the end.  Its contents
        end up exactly what the dead worker's should have been (the
        journal is the same ordered stream every live worker applied),
        so neither the statistics nor the kept slices need
        invalidating, and the current graph never crosses the process
        boundary.
        """
        (replacement,) = launch_workers(
            self.base_graph,
            self.k,
            len(self._shards),
            self._prune_empty,
            shard_seed=self.shard_seed,
            only=[shard],
        )
        old = self.handles[shard]
        self.handles[shard] = replacement
        self._shards[shard].rebind(replacement)
        old.stop()
        mutations = [wire for _seq, group in self.journal for wire in group]
        if mutations:
            self._shards[shard].apply_group(self.journal_seq, mutations, rebuild=True)
            self.replayed_mutations += len(mutations)

    def close(self) -> None:
        for stub in self._shards:
            stub.close()
        for handle in self.handles:
            handle.stop()


class CoordinatorDatabase(GraphDatabase):
    """A :class:`GraphDatabase` served by shard worker processes.

    Everything — queries, caching, prepared statements, the write path,
    statistics, locking, the all-or-nothing index replacement — is
    inherited; the index it runs over is an :class:`RpcShardedGraph`.
    The class has five members of its own:

    * :meth:`_make_index_locked` forks one worker per shard (parallel
      index build) where the base class builds in process;
    * :meth:`_build_index_locked` refuses every backend but memory
      (workers rebuild from the coordinator's graph, durability lives
      elsewhere) before deferring to the base class;
    * :meth:`ensure_workers` restarts crashed workers;
    * :meth:`cache_clear` and :meth:`stats` cover the index's
      :class:`SliceCache` beside the result cache.
    """

    def _build_index_locked(self):
        """Launch (or relaunch) the worker fleet; caller holds the lock."""
        if self._backend != "memory":
            raise ValidationError(
                f"CoordinatorDatabase workers are memory-backed; "
                f"got backend={self._backend!r}"
            )
        return super()._build_index_locked()

    def _make_index_locked(self) -> RpcShardedGraph:
        """How an index comes to exist: one forked worker per shard."""
        return RpcShardedGraph.launch(
            self.graph,
            self.k,
            shards=self._shards,
            shard_seed=self._shard_seed,
            max_cached_pairs=self.config.query_cache_max_pairs,
        )

    def cache_clear(self) -> None:
        """Drop every cached answer, plan and kept worker slice."""
        super().cache_clear()
        if (index := self._index) is not None:
            index.slices.clear()

    def stats(self) -> EngineStats:
        """The engine's counters, the slice cache's in ``scatter``."""
        stats = super().stats()
        slices = getattr(self._index, "slices", SliceCache(0))
        scatter = replace(
            stats.scatter,
            scan_cache_hits=slices.hits,
            scan_cache_misses=slices.misses,
            scan_cache_pairs=slices.pairs,
        )
        return replace(stats, scatter=scatter)

    # -- supervision ------------------------------------------------------

    def ensure_workers(self) -> list[int]:
        """Restart any dead workers; returns the restarted shard list.

        Runs as a writer so the replacement forks from a quiescent
        graph (no query observes a half-replaced stub).  Called by the
        serve front door's supervision loop and usable directly — after
        a chaos test kills a worker, one call restores exact answers.
        """
        with self._lock.write_locked():
            index = self._index
            if index is None:
                return []
            dead = [
                shard
                for shard in range(index.shard_count)
                if not index.worker_alive(shard)
            ]
            for shard in dead:
                index.restart_worker(shard)
            return dead
