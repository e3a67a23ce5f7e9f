"""The public API: :class:`GraphDatabase`.

A facade tying the substrates together in the life-of-a-query order the
paper demonstrates: load a graph, build the k-path index and its
histogram, then parse / rewrite / plan / execute queries with any of
the four strategies — or with one of the three literature baselines.

Example
-------
>>> from repro.api import GraphDatabase
>>> from repro.graph.examples import FIGURE1_EDGES
>>> db = GraphDatabase.from_edges(FIGURE1_EDGES, k=2)
>>> result = db.query("supervisor/^worksFor")
>>> sorted(result.pairs)
[('kim', 'sue')]
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.baselines import automaton_eval, datalog_eval, reachability_eval
from repro.concurrency import ReadWriteLock
from repro.config import ServiceConfig, default_shard_count  # noqa: F401
from repro.engine.executor import (
    ExecutionReport,
    PreparedQuery,
    execute_prepared,
    planned_operands,
    prepare_ast,
)
from repro.engine.operators import ScanMemo
from repro.engine.plan import render
from repro.engine.planner import Planner, Strategy
from repro.engine.prepared import (
    BoundStatement,
    PlanArtifactStore,
    PlanCache,
    PreparedStatement,
)
from repro.errors import (
    PathIndexError,
    QueryTimeoutError,
    RewriteError,
    TransientError,
    ValidationError,
)
from repro.faults import Deadline, RunContext, retry_call
from repro.graph.graph import Graph, LabelPath, NamedPairs
from repro.graph.io import load_csv, load_edgelist, load_json
from repro.graph.stats import GraphSummary, star_bound, summarize
from repro.indexes.builder import enumerate_label_paths
from repro.indexes.histogram import EquiDepthHistogram
from repro.indexes.statistics import ExactStatistics
from repro.rpq.ast import Node
from repro.rpq.parser import Template, parse, parse_template
from repro.rpq.rewrite import (
    DEFAULT_MAX_DISJUNCTS,
    NormalForm,
    normalize,
    push_inverse,
)
from repro.rpq.semantics import eval_ast
from repro.sharding import ShardedGraph, shard_of
from repro.stats import (
    CacheStats,
    EngineStats,
    FaultStats,
    ScatterStats,
    WriteStats,
)
from repro.write.commit import GroupCommitter
from repro.write.delta import resolve_patch, stage_group
from repro.write.log import MutationLog
from repro.write.mutation import ApplyResult, Mutation, MutationBatch

#: Methods accepted by :meth:`GraphDatabase.query`: the paper's four
#: index strategies plus the literature baselines (NFA and DFA product
#: search, Datalog, reachability) and the reference evaluator.
BASELINE_METHODS = ("automaton", "dfa", "datalog", "reachability", "reference")


@dataclass(frozen=True, slots=True)
class QueryResult:
    """The answer to one query plus how it was obtained.

    ``pairs`` is a :class:`~repro.graph.graph.NamedPairs`: a read-only
    set of ``(source, target)`` name tuples laid over the executor's two
    id columns, which decodes nothing until read.  ``len`` is O(1),
    ``pair in result`` is two dict probes and a bisect, iteration (so
    ``sorted(result.pairs)``) streams name tuples without building a
    set, and ``==``, ``<=``, ``&``, ``|``, ``-``, ``hash`` and ``repr``
    are ``frozenset``'s, against ``set``, ``frozenset`` or another
    result's pairs.  The full ``frozenset`` is built by the first
    ``==`` against a set, ``hash``, ``repr`` or ``pairs.frozen()`` and
    kept on the view, which cache hits share.

    ``version`` is the graph version the answer was computed (or
    cached) against — the consistency token of the concurrent service
    layer: a result tagged ``version=v`` is exactly the single-threaded
    answer over the graph as of version ``v``.  That stays true however
    late ``pairs`` is read: node ids are never reused, the graph's name
    list only appends, and an ``apply()`` installs edited *copies* of
    index columns, so later writes cannot reach the columns held here.
    """

    query: str
    method: str
    pairs: NamedPairs
    seconds: float
    report: ExecutionReport | None = None
    cached: bool = False
    version: int = -1

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: object) -> bool:
        return pair in self.pairs


class GraphDatabase:
    """An RPQ-queryable graph with a k-path index and histogram."""

    def __init__(
        self,
        graph: Graph,
        k: int | None = None,
        build: bool = True,
        config: ServiceConfig | None = None,
    ):
        """Open a graph for querying.

        Deployment knobs live in one :class:`~repro.config.ServiceConfig`
        passed as ``config=`` (the defaults when omitted); ``k`` stays a
        first-class argument (it is the paper's index parameter, not a
        deployment detail) and overrides ``config.k`` when both are
        given.  ``build=False`` defers the index build to first use.
        """
        if config is None:
            config = ServiceConfig()
        if k is not None and k != config.k:
            config = config.with_overrides(k=k)
        #: The resolved deployment configuration (frozen).
        self.config = config
        # shards=None means "deployment default": the
        # REPRO_DEFAULT_SHARDS environment knob, or 1.  Resolved once,
        # here — the environment is read at construction, not per query.
        resolved_shards = config.resolved_shards()
        self.graph = graph
        self.k = config.k
        self._backend = config.backend
        self._index_path = config.index_path
        self._histogram_buckets = config.histogram_buckets
        # Sharding knob (fully transparent): the index is hash-partitioned
        # by path start (repro.sharding) into shards >= 1 parts with
        # identical answers at every count.
        self._shards = resolved_shards
        # Hash seed of the vertex-to-shard map.  Mutable on purpose:
        # rebalance() re-seeds it and triggers one full rebuild.
        self._shard_seed = config.shard_seed
        self._index: ShardedGraph | None = None
        self._histogram: EquiDepthHistogram | None = None
        self._exact_statistics: ExactStatistics | None = None
        # Concurrency model: queries are readers, mutations and index
        # rebuilds are writers.  The RW lock makes (version snapshot,
        # cache probe, execution, cache store) one atomic read section
        # — a writer can never interleave between computing a cache key
        # and reading the index, so a served answer always matches the
        # version it is keyed under.  The cache mutex guards the LRU
        # OrderedDict and every counter (reads reorder the LRU, so even
        # lookups are writes).
        self._lock = ReadWriteLock()
        self._cache_lock = threading.Lock()
        # LRU cache over fully answered queries, keyed on
        # (query, method, statistics flavor, disjunct budget, graph
        # version) so graph mutations can never serve stale answers;
        # build_index() additionally clears it wholesale.  Bounded both
        # by entry count and by total cached answer pairs, so a run of
        # huge answers cannot pin unbounded memory.
        self._query_cache: OrderedDict[tuple, QueryResult] = OrderedDict()
        self._query_cache_size = max(0, config.query_cache_size)
        self._query_cache_max_pairs = max(0, config.query_cache_max_pairs)
        self._cached_pairs = 0
        self._cache_version = graph.version
        self._cache_hits = 0
        self._cache_misses = 0
        # Aggregated executor scan-memo traffic (per-execution memo of
        # index scans / shared subplans), summed over every query that
        # actually executed through the engine.
        self._scan_memo_hits = 0
        self._scan_memo_misses = 0
        # Aggregated scatter decisions (shards > 1): shard slices
        # executed / shard slices and disjunct slices skipped as
        # provably empty, summed over every executed query.
        self._shards_scanned = 0
        self._shards_pruned = 0
        self._disjuncts_pruned = 0
        # Shard slices dropped by degraded-mode queries (see
        # ``query(degraded=True)``): every increment corresponds to one
        # answer that was served partial instead of failing.
        self._shards_failed = 0
        # The statistics epoch counts index builds, the refreshes the
        # graph version does not witness (build_index() on an unchanged
        # graph, rebalance()).  A plan is reused only under the (graph
        # version, epoch) stamp it was made under.
        self._statistics_epoch = 0
        # Prepared plans persist only where the index does: the disk
        # backend's artifact file sits next to the index file, so a
        # restarted service revives both together.  Memory backends get
        # an inert store (every probe misses).
        self._plan_store = PlanArtifactStore(
            str(config.index_path) + ".plans.json"
            if config.backend == "disk" and config.index_path is not None
            else None
        )
        # The one plan cache every read path resolves its plan through;
        # its counters are stats().prepared.
        self._plan_cache = PlanCache(self._plan_store)
        # The write path: every mutation flows through apply() -> the
        # group committer -> (optionally) the durable mutation log ->
        # delta patching or the rebuild fallback.  Opening an existing
        # log replays its durable suffix onto the provided graph first,
        # so a restarted service resumes from its last acknowledged
        # write (replay happens before the build below sees the graph).
        self._write_patched = 0
        self._write_rebuilt = 0
        self._recounted_sources = 0
        self._replayed_batches = 0
        self._mutation_log: MutationLog | None = None
        if config.mutation_log_path is not None:
            self._mutation_log = MutationLog(config.mutation_log_path)
            for _seq, batch in self._mutation_log.replay():
                for mutation in batch:
                    mutation.apply_to(graph)
                self._replayed_batches += 1
        self._committer = GroupCommitter(
            self._commit_group,
            window_s=config.group_commit_ms / 1000.0,
            max_group=config.group_commit_max,
        )
        if build:
            try:
                self.build_index()
            except BaseException:
                # No object reaches the caller, so nobody else can
                # release the log handle opened above.
                self.close()
                raise

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str, str, str]],
        k: int | None = None,
        build: bool = True,
        config: ServiceConfig | None = None,
    ) -> "GraphDatabase":
        """Build from ``(source, label, target)`` triples."""
        return cls(Graph.from_edges(edges), k=k, build=build, config=config)

    @classmethod
    def from_file(
        cls,
        path: str | Path,
        k: int | None = None,
        build: bool = True,
        config: ServiceConfig | None = None,
    ) -> "GraphDatabase":
        """Load a graph file by extension (.tsv/.txt, .json, .csv)."""
        path = Path(path)
        suffix = path.suffix.lower()
        if suffix in (".tsv", ".txt", ".edgelist"):
            graph = load_edgelist(path)
        elif suffix == ".json":
            graph = load_json(path)
        elif suffix == ".csv":
            graph = load_csv(path)
        else:
            raise ValidationError(f"unrecognized graph file extension: {path}")
        return cls(graph, k=k, build=build, config=config)

    # -- index & statistics ----------------------------------------------------------

    def build_index(self) -> ShardedGraph:
        """(Re)build the k-path index and both statistics providers.

        Runs as a writer: in-flight queries finish first, and no query
        observes a half-replaced index/histogram pair.  Invalidates the
        query cache: any cached answer may predate the graph state this
        index now reflects.
        """
        with self._lock.write_locked():
            return self._build_index_locked()

    def _build_index_locked(self) -> ShardedGraph:
        """Replace the index with a fresh one; caller holds the write lock.

        The disk backend forces destruction first: its B+tree only
        bulk-loads into an empty file, so the old backend is released
        before the build (which removes each shard's stale file
        itself).  Every other backend keeps the old index until the new
        one is installed.  The statistics epoch moves, so plans made
        before the build are re-planned even on an unchanged graph.
        """
        self._statistics_epoch += 1

        def rebuild(old_index: ShardedGraph | None) -> ShardedGraph:
            if self._backend == "disk" and old_index is not None:
                # Closing is idempotent, so the close every replaced
                # index gets after the install costs nothing here.
                old_index.close()
            return self._make_index_locked()

        return self._replace_index_locked(rebuild)

    def _make_index_locked(self) -> ShardedGraph:
        """How an index comes to exist: built in this process."""
        return ShardedGraph.build(
            self.graph,
            self.k,
            shards=self._shards,
            backend=self._backend,
            index_path=self._index_path,
            shard_seed=self._shard_seed,
        )

    def _replace_index_locked(self, change) -> ShardedGraph:
        """The one writer of the (index, exact statistics, histogram) triple.

        ``change(old_index)`` brings an index in line with the graph as
        it is now and returns it: the same object after a move in place
        (patch, shard rebuild, broadcast), a new one after a build.
        The triple is replaced all or nothing.  Whatever raises — the
        change, the statistics derived from its result — clears the
        triple and closes every index involved
        (:meth:`_discard_indexes_locked`), so :meth:`_ensure_built`
        rebuilds and a reader already past it fails loudly instead of
        answering from pre-mutation state.  On success the triple is
        installed together, the plan store reopens under the new
        fingerprint, and a replaced index is closed.  The result cache
        is purged either way; cached plans are not, their stamps retire
        them.  Caller holds the write lock.
        """
        with self._cache_lock:
            self._cache_clear_locked()
        old_index = self._index
        index = None
        try:
            index = change(old_index)
            exact_statistics, histogram = self._refresh_sharded_statistics(index)
        except BaseException:
            self._discard_indexes_locked(
                old_index, None if index is old_index else index
            )
            raise
        self._index = index
        self._exact_statistics = exact_statistics
        self._histogram = histogram
        self._plan_store.open(self._plan_fingerprint())
        if old_index is not None and old_index is not index:
            old_index.close()
        return index

    def _discard_indexes_locked(self, *indexes: ShardedGraph | None) -> None:
        """Clear the index/statistics triple and close what it dropped.

        The failure arm of every rebuild and patch path: a dropped
        index holds file handles (disk backend) or a whole worker fleet
        (the coordinator), so it is closed here, without masking the
        failure being handled.  The resilience taxonomy is the one
        exception — a deadline or retryable fault inside ``close()``
        propagates, the original failure riding along as
        ``__context__`` — once every index has had its close.
        """
        self._index = None
        self._exact_statistics = None
        self._histogram = None
        for position, index in enumerate(indexes):
            if index is None:
                continue
            try:
                index.close()
            except (QueryTimeoutError, TransientError):
                self._discard_indexes_locked(*indexes[position + 1 :])
                raise
            except Exception:
                pass

    def _refresh_sharded_statistics(
        self, index: ShardedGraph
    ) -> tuple[ExactStatistics, EquiDepthHistogram]:
        """Derive the statistics pair from a built, rebuilt or patched index.

        Each shard's catalog is read once: the merged view doubles as
        the global exact statistics, and the per-shard exact counts
        shard pruning reads are built from the same reads here, off the
        query path — ``|paths_k(G)|`` and the catalog merge are
        computed once and shared by everything downstream.
        The one recipe serves every shard count and every way the
        index absorbs a change, so none of them can drift.
        """
        counts = index.counts_by_path()
        exact_statistics = ExactStatistics(
            counts=counts, k=self.k, total_paths_k=index.total_paths_k()
        )
        self._note_recounted(index.take_recounted_sources())
        for shard in range(index.shard_count):
            index.shard_statistics(shard)
        histogram = EquiDepthHistogram.from_counts(
            counts,
            k=self.k,
            total_paths_k=exact_statistics.total_paths_k,
            buckets=self._histogram_buckets,
        )
        return exact_statistics, histogram

    def _note_recounted(self, sources: int) -> None:
        """Add to ``stats().write.recounted_sources``."""
        with self._cache_lock:
            self._recounted_sources += sources

    def _ensure_built(self) -> None:
        """Resolve lazy build *before* entering a read section.

        The RW lock is not reentrant, so the lazy build must never
        trigger inside ``read_locked()``; double-checked under the
        write lock.  ``_index`` only returns to ``None`` when a rebuild
        fails — readers then either retry the build here or get
        :meth:`_require_index`'s clean error.
        """
        if self._index is None:
            with self._lock.write_locked():
                if self._index is None:
                    self._build_index_locked()

    @property
    def index(self) -> ShardedGraph:
        """The k-path index (building it on first use if needed).

        A :class:`~repro.sharding.ShardedGraph` at every shard count;
        at ``shards=1`` it holds one shard.
        """
        self._ensure_built()
        assert self._index is not None
        return self._index

    @property
    def histogram(self) -> EquiDepthHistogram:
        """The equi-depth histogram ``sel_{G,k}``."""
        if self._histogram is None:
            self._ensure_built()
        assert self._histogram is not None
        return self._histogram

    @property
    def exact_statistics(self) -> ExactStatistics:
        """Exact per-path statistics (ablation alternative)."""
        if self._exact_statistics is None:
            self._ensure_built()
        assert self._exact_statistics is not None
        return self._exact_statistics

    def selectivity(self, path_text: str) -> float:
        """Histogram estimate of ``sel_{G,k}`` for a label path.

        ``path_text`` uses step syntax: ``knows/knows/worksFor`` or
        ``knows/^worksFor``.
        """
        path = self._parse_label_path(path_text)
        return self.histogram.selectivity(path)

    def summary(self) -> GraphSummary:
        """Graph-level statistics (size, labels, degrees)."""
        return summarize(self.graph)

    # -- queries -----------------------------------------------------------------------

    def query(
        self,
        query: str | Node | Template,
        method: str = "minsupport",
        use_exact_statistics: bool = False,
        max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
        use_cache: bool = True,
        timeout_ms: float | None = None,
        degraded: bool = False,
    ) -> QueryResult:
        """Answer an RPQ.

        ``method`` is one of the paper's strategies (``naive``,
        ``semi-naive``, ``minsupport``, ``minjoin``) or a baseline
        (``automaton``, ``datalog``, ``reachability``, ``reference``).

        Text may open with a source anchor, ``from(kim): knows/worksFor``
        (or come as a placeholder-free :class:`~repro.rpq.parser.Template`
        carrying one): the answer is the pairs starting at that node.
        The plan is the unanchored query's; execution pins its leftmost
        scans to ``I(p, kim)`` on the shard owning ``kim``, the way a
        scatter slice pins them to a shard.

        ``timeout_ms`` puts a deadline on the whole execution: the
        engine checks it cooperatively at operator, scatter, and
        closure-round boundaries and raises
        :class:`~repro.errors.QueryTimeoutError` (carrying the partial
        scatter counters) rather than running arbitrarily long.
        ``degraded=True`` opts into partial answers: if a shard stays
        down after retries, its slice is dropped and the result comes
        back with ``report.partial=True`` and ``report.shards_failed``
        counting the dropped slices — every returned pair is still a
        true answer pair (the operators are monotone), the answer is
        just possibly incomplete.  Partial answers are never stored in
        the query cache.  Both knobs apply to the index strategies
        only; baselines run outside the resilient engine.

        Repeated queries are answered from an LRU cache of *answers*
        keyed on ``(query, method, graph version)`` — heavy-traffic
        workloads skip the rewrite/plan/execute pipeline entirely.  The
        cache is invalidated by :meth:`build_index` and bypassed
        automatically after any graph mutation (the graph's version is
        part of the key), so stale answers are never served.  Cache
        hits carry ``cached=True``, ``seconds=0.0`` and ``report=None``
        (reports are per-execution diagnostics and are not retained).
        ``use_cache=False`` bypasses the answer cache entirely — no
        lookup, no store, no counter updates — which is what the
        benchmark harness wants.

        Plans are reused whatever ``use_cache`` says: a text is parsed
        once, and a plan made once per ``(graph version, statistics
        epoch)`` serves every read of the same AST, anchored or not,
        with ``planning_seconds == 0.0`` (``stats().prepared``).

        Safe to call from any number of threads concurrently with
        :meth:`add_edge` / :meth:`remove_edge` / :meth:`build_index`:
        the whole (version snapshot, cache probe, execution, cache
        store) sequence runs as one reader section, so the answer is
        always exactly the single-threaded answer for the
        :attr:`QueryResult.version` it carries.
        """
        text, node, anchor = self._parse(query)
        # Validate the method before touching any shared state, so a
        # raising method name never skews the cache counters.
        strategy = None if method in BASELINE_METHODS else Strategy.parse(method)
        context = None
        if timeout_ms is not None or degraded:
            if strategy is None:
                raise ValidationError(
                    f"timeout_ms/degraded apply to the index strategies; "
                    f"baseline {method!r} runs outside the resilient engine"
                )
            # The deadline clock starts at submission, before the build
            # check and lock wait — a caller's timeout bounds the whole
            # call, not just the execution core.
            deadline = Deadline(timeout_ms) if timeout_ms is not None else None
            context = RunContext(deadline=deadline, degraded=degraded)
        if strategy is not None:
            self._ensure_built()
        with self._lock.read_locked():
            return self._query_locked(
                text,
                node,
                method,
                strategy,
                use_exact_statistics,
                max_disjuncts,
                use_cache,
                context,
                anchor,
            )

    def _query_locked(
        self,
        text: str,
        node: Node,
        method: str,
        strategy: Strategy | None,
        use_exact_statistics: bool,
        max_disjuncts: int,
        use_cache: bool,
        context: RunContext | None = None,
        anchor: str | None = None,
    ) -> QueryResult:
        """Answer one parsed query; caller holds the read lock."""
        version = self.graph.version
        cache_key = self._cache_key(
            text,
            method,
            strategy,
            use_exact_statistics,
            max_disjuncts,
            version,
        )
        if use_cache:
            cached = self._cache_lookup(cache_key, version)
            if cached is not None:
                return cached
        else:
            cache_key = None  # a bypass neither counts a miss nor stores
        source = self._anchor_id(anchor)
        started = time.perf_counter()
        if strategy is None:
            pairs = self._run_baseline(method, node, source)
            seconds = time.perf_counter() - started
            return self._result_locked(
                text, method, pairs, seconds, version, cache_key=cache_key
            )
        prepared = self._plan_locked(
            node, strategy, use_exact_statistics, max_disjuncts
        )
        report = execute_prepared(
            prepared,
            self._require_index(),
            self.graph,
            self._statistics_locked(use_exact_statistics),
            context=context,
            source=source,
        )
        seconds = time.perf_counter() - started
        return self._result_locked(
            text, strategy.value, report.relation, seconds, version, report, cache_key
        )

    def _result_locked(
        self,
        text: str,
        method: str,
        answer,
        seconds: float,
        version: int,
        report: ExecutionReport | None = None,
        cache_key: tuple | None = None,
    ) -> QueryResult:
        """From an executed answer to an accounted :class:`QueryResult`.

        The one path every read takes once it has id pairs — a report's
        relation (anchored or not) or a baseline's pair set: lay the
        name view over them (nothing is decoded until the caller reads),
        then, under the cache mutex, fold the report's memo,
        scatter and fault counters into :meth:`stats` and, given a
        ``cache_key``, count the miss and offer the result to the LRU
        (which refuses partial answers).  Caller holds the read lock.
        """
        result = QueryResult(
            query=text,
            method=method,
            pairs=self.graph.named_pairs(answer),
            seconds=seconds,
            report=report,
            version=version,
        )
        with self._cache_lock:
            if report is not None:
                self._scan_memo_hits += report.scan_memo_hits
                self._scan_memo_misses += report.scan_memo_misses
                self._shards_scanned += report.shards_scanned
                self._shards_pruned += report.shards_pruned
                self._disjuncts_pruned += report.disjuncts_pruned
                self._shards_failed += report.shards_failed
            if cache_key is not None:
                self._cache_misses += 1
                self._remember_locked(cache_key, result)
        return result

    def _plan_locked(
        self,
        node: Node,
        strategy: Strategy,
        exact: bool,
        max_disjuncts: int,
        artifact_key=None,
    ) -> PreparedQuery:
        """``node``'s plan through the plan cache; caller holds the read lock."""
        return self._plan_cache.plan(
            (node, strategy, exact, max_disjuncts),
            (self.graph.version, self._statistics_epoch),
            lambda: prepare_ast(
                node,
                self._require_index(),
                self.graph,
                self._statistics_locked(exact),
                strategy,
                max_disjuncts,
            ),
            artifact_key,
        )

    def _statistics_locked(self, exact: bool) -> ExactStatistics | EquiDepthHistogram:
        """The planner's statistics provider; caller holds the read lock."""
        return self._exact_statistics if exact else self._histogram

    def _require_index(self) -> ShardedGraph:
        """The index for a read section; fails cleanly if a rebuild died."""
        index = self._index
        if index is None:
            raise PathIndexError(
                "index unavailable: a previous rebuild failed; call build_index()"
            )
        return index

    def _cache_key(
        self,
        text: str,
        method: str,
        strategy: Strategy | None,
        use_exact_statistics: bool,
        max_disjuncts: int,
        version: int,
    ) -> tuple:
        if strategy is None:
            # Baselines ignore statistics flavor and disjunct budget;
            # keep them out of the key so identical answers share one
            # entry (and one slot of the pairs budget).
            return (text, method, version)
        # Key on the canonical strategy value, not the raw method
        # string, so spelling aliases ("minsupport" / "min-support" /
        # "MIN_SUPPORT") share one entry — and match the method the
        # stored result reports.
        return (
            text,
            strategy.value,
            use_exact_statistics,
            max_disjuncts,
            version,
        )

    def _cache_lookup(self, key: tuple, version: int) -> QueryResult | None:
        """Probe the LRU under the cache mutex (a hit reorders it)."""
        with self._cache_lock:
            if self._cache_version != version:
                # The version only grows, so every entry keyed on an
                # older version is dead forever — drop them rather than
                # letting garbage pin the entry/pairs budgets.
                self._cache_clear_locked()
                self._cache_version = version
            cached = self._query_cache.get(key)
            if cached is not None:
                self._query_cache.move_to_end(key)
                self._cache_hits += 1
                return replace(cached, seconds=0.0, cached=True)
        return None

    # -- mutations ---------------------------------------------------------------

    def apply(self, mutations) -> ApplyResult:
        """Apply one batch of edge mutations; the single write entry point.

        ``mutations`` is a :class:`~repro.write.mutation.Mutation`, an
        iterable of them, or a :class:`~repro.write.mutation.MutationBatch`.
        The batch rides a commit *group*: concurrent callers coalesce
        behind one leader into one write-lock acquisition, one mutation
        log append run + ``fsync`` (when ``mutation_log_path`` is set),
        and one index update — per-shard delta patching when the group
        is local (``delta_patching``, memory-backed shards, any shard
        count), a ball or full rebuild otherwise.  By the time this
        returns the batch is durable (if logging) and visible to
        queries; the result says how many mutations changed the graph,
        the version they landed on, and how the index absorbed the
        group.

        ``add_edge`` / ``remove_edge`` are one-element shims over this.
        """
        batch = MutationBatch.coerce(mutations)
        self._ensure_built()
        return self._committer.submit(batch)

    def add_edge(self, source: str, label: str, target: str) -> int | None:
        """Insert an edge; returns the new version, or ``None`` (no-op).

        A shim over :meth:`apply` with a one-mutation batch — same
        durability, group commit, and delta-patching path.  The
        returned version is the group's landing version (under
        concurrent writers it can be later than this edge's own
        insertion, but never earlier).
        """
        result = self.apply(Mutation.add(source, label, target))
        return result.version if result.changed else None

    def remove_edge(self, source: str, label: str, target: str) -> int | None:
        """Delete an edge; returns the new version, or ``None`` (no-op).

        See :meth:`add_edge` — the same one-element :meth:`apply` shim.
        """
        result = self.apply(Mutation.remove(source, label, target))
        return result.version if result.changed else None

    def _commit_group(self, batches) -> list[ApplyResult]:
        """The committer's commit callable: one whole group, durably.

        Write-ahead ordering: every batch is appended to the mutation
        log and fsynced *before* any of them touches the graph.  The
        append+flush unit retries on transients (rolling back the
        half-appended group first, so nothing duplicates); a permanent
        or crash failure rolls the log back (see ``MutationLog.flush``)
        and fails the whole group with nothing applied — re-submitting
        is safe.  Once durable, application cannot fail on input
        (batches validate eagerly at construction), only on index
        trouble, and the index paths below keep their swap-on-success
        contracts.
        """
        batches = list(batches)
        with self._lock.write_locked():
            log = self._mutation_log
            if log is not None:

                def persist() -> None:
                    log.rollback()  # no-op unless a prior try half-appended
                    for batch in batches:
                        log.append(batch)
                    log.flush()

                retry_call(persist)
            return self._apply_group_locked(batches)

    def _apply_group_locked(self, batches) -> list[ApplyResult]:
        """Apply a durable group to graph + index; caller holds the lock.

        The graph moves first (:func:`~repro.write.delta.stage_group`),
        then the index follows under :meth:`_replace_index_locked`: a
        changed label vocabulary invalidates every shard's path
        enumeration, so the index is built again; anything else the
        index absorbs itself (``absorb_group``) — from the resolved
        point edits when the group stayed local and the backend takes
        them, by rebuilding the touched shards otherwise.
        """
        index = self._index
        if index is None:
            # A failed absorb leaves no index behind the graph it
            # mutated; this group lands on one built from that graph.
            index = self._build_index_locked()
        patchable = self.config.delta_patching and index.supports_patch
        # Delta staging needs the full path enumeration over the
        # pre-group alphabet (an alphabet change falls back anyway);
        # the rebuild path skips collecting deltas entirely.
        paths = (
            enumerate_label_paths(self.graph.labels(), self.k) if patchable else []
        )
        staged = stage_group(
            self.graph, index, batches, paths, self.config.delta_max_pairs
        )
        mode, patched = "rebuild", ()
        if not staged.changed:
            mode = "noop"
        elif staged.fallback == "alphabet":
            self._build_index_locked()
        else:
            changes = None
            if patchable and staged.fallback is None:
                changes = resolve_patch(self.graph, index, staged.dirty)
                mode, patched = "patch", tuple(sorted(changes))

            def absorb(live: ShardedGraph) -> ShardedGraph:
                live.absorb_group(batches, changes, staged.touched, staged.endpoints)
                return live

            self._replace_index_locked(absorb)
        with self._cache_lock:
            if mode == "patch":
                self._write_patched += 1
            elif mode == "rebuild":
                self._write_rebuilt += 1
        version = self.graph.version
        return [
            ApplyResult(
                applied=applied,
                noops=noops,
                version=version,
                mode=mode,
                patched_shards=patched,
            )
            for applied, noops in staged.batch_counts
        ]

    def rebalance(self, skew_threshold: float = 2.0, candidates: int = 8) -> bool:
        """Re-seed the vertex-to-shard map if the index has gone skewed.

        A mutation stream concentrated on one neighborhood can leave
        one shard holding far more index entries than its peers,
        serializing every scatter behind it.  When the largest shard
        exceeds ``skew_threshold`` times the mean, this tries
        ``candidates`` alternative hash seeds, scores each by the
        degree-weighted load of its heaviest shard, and — if a strictly
        better seed exists — installs it and rebuilds the index once.
        Returns whether a rebuild happened.  Exposed, never
        auto-triggered: a rebuild is expensive and the operator (or a
        supervision loop) decides when the skew justifies it.
        """
        with self._lock.write_locked():
            index = self._index
            if index is None or index.shard_count < 2:
                return False
            counts = index.shard_entry_counts()
            mean = sum(counts) / len(counts)
            if mean == 0 or max(counts) <= skew_threshold * mean:
                return False
            # Degree weight approximates how many index entries start
            # at a vertex without re-counting the real catalog per
            # candidate seed.
            shard_count = index.shard_count
            weights = [
                1 + self.graph.degree_out(node) + self.graph.degree_in(node)
                for node in range(self.graph.node_count)
            ]

            def heaviest(seed: int) -> int:
                loads = [0] * shard_count
                for node, weight in enumerate(weights):
                    loads[shard_of(node, shard_count, seed)] += weight
                return max(loads)

            best_seed = self._shard_seed
            best_load = heaviest(best_seed)
            for candidate in range(1, candidates + 1):
                seed = self._shard_seed + candidate
                load = heaviest(seed)
                if load < best_load:
                    best_seed, best_load = seed, load
            if best_seed == self._shard_seed:
                return False
            self._shard_seed = best_seed
            self._build_index_locked()
            return True

    # -- batched queries ----------------------------------------------------------

    def query_batch(
        self,
        queries: Sequence[str | Node | Template],
        method: str = "minsupport",
        use_exact_statistics: bool = False,
        max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
        use_cache: bool = True,
    ) -> list[QueryResult]:
        """Answer many RPQs as one batch against one graph snapshot.

        The whole batch runs inside a single reader section, so every
        result carries the same :attr:`QueryResult.version` — mutations
        are either fully before or fully after the batch.  Three
        mechanisms make this faster than a ``query()`` loop:

        * **plan-up-front** — every miss takes its plan from the plan
          cache (planning it there if need be) first, then executes in
          input order on the calling thread;
        * **one scan memo** — a
          :class:`~repro.engine.operators.ScanMemo` spans the batch, so
          a subplan (an index scan, a join subtree) appearing under any
          number of queries is computed exactly once;
        * **key-level dedup** — queries with identical cache keys share
          one execution and one :class:`QueryResult` object.

        Results come back in input order.  To overlap batches, call
        this from several threads: each call has its own memo.
        """
        parsed = [self._parse(query) for query in queries]
        if not parsed:
            return []
        strategy = None if method in BASELINE_METHODS else Strategy.parse(method)
        if strategy is not None:
            self._ensure_built()
        with self._lock.read_locked():
            version = self.graph.version
            results: list[QueryResult | None] = [None] * len(parsed)
            slots: dict[tuple, list[int]] = {}
            for position, (text, _, _) in enumerate(parsed):
                key = self._cache_key(
                    text,
                    method,
                    strategy,
                    use_exact_statistics,
                    max_disjuncts,
                    version,
                )
                slots.setdefault(key, []).append(position)
            pending: list[tuple[tuple, str, Node, str | None]] = []
            for key, positions in slots.items():
                cached = self._cache_lookup(key, version) if use_cache else None
                if cached is not None:
                    for position in positions:
                        results[position] = cached
                else:
                    pending.append((key, *parsed[positions[0]]))
            if pending:
                for key, result in self._run_batch(
                    pending,
                    method,
                    strategy,
                    use_exact_statistics,
                    max_disjuncts,
                    version,
                    use_cache,
                ):
                    for position in slots[key]:
                        results[position] = result
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    def _run_batch(
        self,
        pending: list[tuple[tuple, str, Node, str | None]],
        method: str,
        strategy: Strategy | None,
        use_exact_statistics: bool,
        max_disjuncts: int,
        version: int,
        use_cache: bool,
    ) -> Iterator[tuple[tuple, QueryResult]]:
        """Execute the batch misses in order; caller holds the read lock."""
        if strategy is None:
            for key, text, node, anchor in pending:
                started = time.perf_counter()
                pairs = self._run_baseline(method, node, self._anchor_id(anchor))
                seconds = time.perf_counter() - started
                yield key, self._result_locked(
                    text,
                    method,
                    pairs,
                    seconds,
                    version,
                    cache_key=key if use_cache else None,
                )
            return
        index = self._require_index()
        statistics = self._statistics_locked(use_exact_statistics)
        memo = ScanMemo()
        items = [
            (
                key,
                text,
                self._plan_locked(node, strategy, use_exact_statistics, max_disjuncts),
                self._anchor_id(anchor),
            )
            for key, text, node, anchor in pending
        ]
        for key, text, prepared, source in items:
            # A report's memo counters are its own delta of the shared
            # memo's traffic, so per-result accounting sums to the batch.
            report = execute_prepared(
                prepared, index, self.graph, statistics, memo, source=source
            )
            yield key, self._result_locked(
                text,
                strategy.value,
                report.relation,
                report.total_seconds,
                version,
                report,
                key if use_cache else None,
            )

    # -- prepared statements -------------------------------------------------------

    def prepare(
        self,
        template: str | Template,
        method: str = "minsupport",
        use_exact_statistics: bool = False,
        max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    ) -> PreparedStatement:
        """Plan a parameterized template once; bind and run it many times.

        ``template`` is RPQ text extended with ``$name`` placeholders
        for repetition bounds and an optional ``from(...):`` source
        anchor::

            statement = db.prepare("from($v): knows{1,$n}/worksFor")
            result = statement.bind(v="alice", n=3).run()

        Each distinct binding of the *bound* parameters is planned once
        per ``(graph version, statistics epoch)`` in the plan cache
        :meth:`query` uses too (the statement holds no plan) — later
        ``run()`` calls skip parse/rewrite/plan, and any mutation or
        rebuild soundly re-plans.  The anchor never reaches the planner: it pins
        the execution's leftmost scans to ``I(p, v)``, as an anchored
        :meth:`query` does, so every anchor value shares one plan.  On
        the disk backend, plans also persist to a
        fingerprinted artifact file next to the index, so a restarted
        service answers its first prepared query with zero planning
        calls (see ``artifact_loads`` in :meth:`stats`).

        Only the index strategies can be prepared — baselines have no
        plan to cache.
        """
        if isinstance(template, str):
            template = parse_template(template)
        elif not isinstance(template, Template):
            raise ValidationError(
                f"template must be text or a parsed Template, "
                f"got {type(template)}"
            )
        if method in BASELINE_METHODS:
            raise ValidationError(
                f"prepare() plans through the index strategies; baseline "
                f"{method!r} has no plan to cache — use query() instead"
            )
        return PreparedStatement(
            database=self,
            template=template,
            strategy=Strategy.parse(method),
            use_exact_statistics=use_exact_statistics,
            max_disjuncts=max_disjuncts,
        )

    def _run_prepared(self, bound: BoundStatement) -> QueryResult:
        """Execute one bound statement (the seam behind ``bound.run()``).

        Mirrors :meth:`_query_locked`'s read-section discipline: the
        (plan resolution, execution, answer naming) sequence runs as one
        reader section against one graph snapshot.  Prepared runs
        deliberately bypass the whole-answer LRU — the point of a
        prepared statement is that *execution* is the only repeated
        cost, and benchmarks comparing the two paths must not measure
        the result cache instead.
        """
        statement = bound.statement
        self._ensure_built()
        with self._lock.read_locked():
            version = self.graph.version
            exact = statement.use_exact_statistics
            started = time.perf_counter()
            prepared = self._plan_locked(
                bound.node,
                statement.strategy,
                exact,
                statement.max_disjuncts,
                lambda: statement._artifact_key(bound),
            )
            report = execute_prepared(
                prepared,
                self._require_index(),
                self.graph,
                self._statistics_locked(exact),
                source=self._anchor_id(bound.anchor),
            )
            seconds = time.perf_counter() - started
            return self._result_locked(
                bound.text,
                statement.strategy.value,
                report.relation,
                seconds,
                version,
                report,
            )

    def _plan_fingerprint(self) -> str:
        """Content fingerprint of everything a cached plan depends on.

        Hashes ``k``, the histogram resolution, the alphabet, the node
        count (it bounds star rewrites), ``|paths_k(G)|`` and the exact
        per-path catalog counts — any change to any of them yields a
        different fingerprint, and the artifact store drops entries
        saved under the old one.  Deliberately *excludes* the shard
        count: plans are shard-layout independent (shard pruning
        happens at execution time), so re-sharding keeps the artifacts.
        """
        statistics = self._exact_statistics
        assert statistics is not None  # caller just installed it
        payload = json.dumps(
            [
                self.k,
                self._histogram_buckets,
                sorted(self.graph.labels()),
                self.graph.node_count,
                statistics.total_paths_k,
                sorted(statistics.counts.items()),
            ],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _remember_locked(self, key: tuple, result: QueryResult) -> None:
        if self._query_cache_size == 0:
            return
        if result.report is not None and result.report.partial:
            # A degraded answer is a subset of the true answer, not the
            # answer — caching it would serve incomplete pairs to later
            # strict queries under the same key.
            return
        size = len(result.pairs)
        if size > self._query_cache_max_pairs:
            return  # one answer would blow the whole memory budget
        replaced = self._query_cache.pop(key, None)
        if replaced is not None:
            self._cached_pairs -= len(replaced.pairs)
        if result.report is not None:
            # Drop the execution report before pinning: it can memoize
            # an id-pair frozenset the pairs budget does not count;
            # cache hits return report=None.  An entry pins the view's
            # id columns, 16 B a pair, until a reader asks for the name
            # set — built once, served to every later hit.
            result = replace(result, report=None)
        self._query_cache[key] = result
        self._cached_pairs += size
        while (
            len(self._query_cache) > self._query_cache_size
            or self._cached_pairs > self._query_cache_max_pairs
        ):
            _, evicted = self._query_cache.popitem(last=False)
            self._cached_pairs -= len(evicted.pairs)

    def stats(self) -> EngineStats:
        """One consistent snapshot of every engine counter, grouped.

        ``stats().cache`` is the whole-answer LRU query cache plus the
        executor's per-execution scan memo (index scans and shared
        subplans reused across union disjuncts and batches), aggregated
        over every executed query.  ``stats().scatter`` aggregates the
        engine's shard-pruning decisions — shard executions run, shard
        executions skipped whole, and individual disjunct slices
        skipped as provably empty (all zero at ``shards=1``, which does
        not scatter).  ``stats().faults.shards_failed`` counts
        shard slices dropped by ``query(degraded=True)`` — nonzero
        means some answers were served partial.  ``stats().prepared`` counts
        the plan cache's traffic across every read path (:meth:`query`,
        :meth:`query_batch` and prepared runs), plans revived from the
        persistent artifact store, and actual planner invocations — a
        freshly restarted disk-backed service that answers prepared
        queries purely from artifacts shows ``plans_computed == 0``.

        The serve layer returns this verbatim at ``GET /stats``.
        """
        with self._cache_lock:
            return EngineStats(
                cache=CacheStats(
                    hits=self._cache_hits,
                    misses=self._cache_misses,
                    entries=len(self._query_cache),
                    capacity=self._query_cache_size,
                    pairs=self._cached_pairs,
                    max_pairs=self._query_cache_max_pairs,
                    scan_memo_hits=self._scan_memo_hits,
                    scan_memo_misses=self._scan_memo_misses,
                ),
                scatter=ScatterStats(
                    shards_scanned=self._shards_scanned,
                    shards_pruned=self._shards_pruned,
                    disjuncts_pruned=self._disjuncts_pruned,
                ),
                prepared=self._plan_cache.stats(),
                faults=FaultStats(shards_failed=self._shards_failed),
                write=WriteStats(
                    groups=self._committer.groups,
                    coalesced=self._committer.coalesced,
                    patched=self._write_patched,
                    rebuilt=self._write_rebuilt,
                    log_records=(
                        self._mutation_log.last_seq
                        if self._mutation_log is not None
                        else 0
                    ),
                    replayed=self._replayed_batches,
                    recounted_sources=self._recounted_sources,
                ),
            )

    def cache_clear(self) -> None:
        """Drop every cached answer, plan and parsed text (counters are kept)."""
        self._plan_cache.clear()
        with self._cache_lock:
            self._cache_clear_locked()

    def _cache_clear_locked(self) -> None:
        self._query_cache.clear()
        self._cached_pairs = 0

    def explain(
        self,
        query: str | Node,
        method: str = "minsupport",
        use_exact_statistics: bool = False,
    ) -> str:
        """The physical plan for a query, as text.

        A query the rewriter refuses (unbounded recursion on a graph
        too large to unroll it) has no single plan: the text names the
        hybrid route and the refusal, then shows the plan of each
        bounded operand that route evaluates through the index.  An
        anchored query runs the same plan, pinned: the text names the
        anchor.
        """
        _, node, anchor = self._parse(query)
        strategy = Strategy.parse(method)
        statistics = (
            self.exact_statistics if use_exact_statistics else self.histogram
        )
        planner = Planner(self.k, statistics, self.graph, strategy)

        def planned(normal_form: NormalForm) -> str:
            costed = planner.plan(normal_form)
            summary = (
                f"disjuncts: {normal_form.disjunct_count}   "
                f"est. cost: {costed.cost:.1f}   est. rows: {costed.cardinality:.1f}\n"
            )
            return summary + render(costed.plan)

        header = f"query: {node}\nstrategy: {strategy.value}   k: {self.k}\n"
        if anchor is not None:
            header += f"anchor: {anchor} (leftmost scans read I(p, {anchor}))\n"
        try:
            normal_form = self.normal_form(node)
        except RewriteError as refusal:
            route = f"route: hybrid — {refusal}\n"
        else:
            return header + planned(normal_form)
        operands = dict(planned_operands(push_inverse(node), self.graph))
        plans = [
            f"operand: {operand}\n{planned(normal_form)}"
            for operand, normal_form in operands.items()
        ]
        return header + route + "\n".join(plans)

    def normal_form(self, query: str | Node) -> NormalForm:
        """Rewrite a query to the planner's union-of-paths normal form."""
        _, node, _ = self._parse(query)
        return normalize(node, star_bound(self.graph))

    def query_from(
        self,
        source: str,
        query: str | Node,
        max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    ) -> frozenset[str]:
        """All nodes reachable from ``source`` by the query.

        The targets of the anchored query ``from(source): query`` — its
        leftmost scans are single-source index lookups (``I(p, a)``
        prefix scans, Example 3.1) on the shard owning ``source`` — and
        cached like any query.
        """
        result = self._query_anchored(source, query, max_disjuncts)
        return frozenset(target for _, target in result.pairs)

    def witness(self, source: str, target: str, query: str | Node):
        """A shortest concrete path justifying ``(source, target)``.

        Returns a :class:`repro.rpq.witness.Witness` or ``None`` when
        the pair is not in the answer.
        """
        from repro.rpq.witness import find_witness

        _, node, _ = self._parse(query)
        with self._lock.read_locked():
            self.graph.node_id(source)  # validate names early
            self.graph.node_id(target)
            return find_witness(self.graph, node, source, target)

    def query_pair(
        self,
        source: str,
        target: str,
        query: str | Node,
        max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    ) -> bool:
        """Boolean check: does (source, target) answer the query?

        A probe of the anchored answer ``from(source): query``.
        """
        result = self._query_anchored(source, query, max_disjuncts)
        self.graph.node_id(target)  # an unknown target raises, as a source does
        return (source, target) in result.pairs

    def _query_anchored(
        self, source: str, query: str | Node, max_disjuncts: int
    ) -> QueryResult:
        text, node, anchor = self._parse(query)
        if anchor is not None:
            raise ValidationError(f"{text!r} is already anchored")
        anchored = Template(f"from({source}): {text}", node, anchor_name=source)
        return self.query(anchored, max_disjuncts=max_disjuncts)

    # -- internals ---------------------------------------------------------------------

    def _run_baseline(
        self, method: str, node: Node, source: int | None = None
    ) -> set[tuple[int, int]]:
        if method == "automaton":
            pairs = automaton_eval.evaluate(self.graph, node)
        elif method == "dfa":
            from repro.rpq.dfa import evaluate as dfa_evaluate

            pairs = dfa_evaluate(self.graph, node)
        elif method == "datalog":
            pairs = datalog_eval.evaluate(self.graph, node)
        elif method == "reachability":
            pairs = reachability_eval.evaluate(self.graph, node)
        else:
            pairs = eval_ast(self.graph, node)
        if source is None:
            return pairs
        return {pair for pair in pairs if pair[0] == source}

    def _anchor_id(self, anchor: str | None) -> int | None:
        """The anchor's node id; caller holds the read lock."""
        return None if anchor is None else self.graph.node_id(anchor)

    def _parse(self, query: str | Node | Template) -> tuple[str, Node, str | None]:
        """``(text, AST, anchor name or None)`` of a query."""
        if isinstance(query, str):
            node, anchor = self._plan_cache.parse(query)
            return query, node, anchor
        if isinstance(query, Node):
            return str(query), query, None
        if isinstance(query, Template) and not query.params:
            return query.text, query.node, query.anchor_name
        raise ValidationError(
            f"query must be text, an AST or a template without "
            f"placeholders, got {query!r}"
        )

    def _parse_label_path(self, text: str) -> LabelPath:
        node = parse(text)
        normal = normalize(node, star_bound(self.graph))
        if normal.has_epsilon or len(normal.paths) != 1:
            raise ValidationError(f"{text!r} is not a single label path")
        return normal.paths[0]

    def close(self) -> None:
        """Release the index (file handles, or a worker fleet) and the log."""
        try:
            if self._index is not None:
                self._index.close()
        finally:
            if self._mutation_log is not None:
                self._mutation_log.close()

    def __enter__(self) -> "GraphDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        sharding = f", shards={self._shards}" if self._shards > 1 else ""
        return (
            f"GraphDatabase(nodes={self.graph.node_count}, "
            f"edges={self.graph.edge_count}, k={self.k}, "
            f"backend={self._backend!r}{sharding})"
        )
