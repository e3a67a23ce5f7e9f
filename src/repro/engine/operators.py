"""Physical operators: executing plan trees against the k-path index.

Relations are columnar :class:`repro.relation.Relation` values — twin
int64 arrays plus a tracked sort order.  Index scans come back
duplicate-free and sorted by the index (``BY_SRC`` direct, ``BY_TGT``
via an inverse scan); joins deduplicate their output through packed
integer keys (RPQ answers are sets — a pair may have many witness
paths, e.g. both routes through a diamond).

The merge join is the classic two-pointer group join over the sorted
inputs; the hash join builds on its smaller input.  Both produce the
*composition* ``left ∘ right``, matching ``left.target = right.source``.
Sort orders are validated twice: statically against the plan's declared
:class:`~repro.relation.Order` and dynamically against the order each
child relation actually carries, so a mis-planned merge join fails loud
instead of returning garbage.

:func:`execute` optionally threads a :class:`ScanMemo` — a
per-execution memo table over plan subtrees.  Normalized queries
routinely share work between union disjuncts (``R{1,3}`` plans the
``R`` scan three times; ``(a|b)*``-style expansions repeat whole join
subtrees), and plan nodes are immutable, hashable value objects, so
each distinct subtree is scanned/joined once per execution and every
repeat is a dictionary hit.

The same interpreter runs a plan *pinned to one shard*
(``execute(..., shard=s)``), which is what scatter-gather is made of:
:func:`execute_scattered` runs the plan once per shard under a
:class:`ScatterPolicy` that skips provably empty shard slices, and
merges the slices.  A ``from(v):`` anchor pins the same leftmost scan
to one source (``execute(..., source=v)``): an anchored read is the
owner shard's slice with its leftmost leaf narrowed to ``I(p, v)``.
"""

from __future__ import annotations

from array import array
from concurrent.futures import BrokenExecutor

from repro import relation as rel
from repro.errors import (
    ExecutionError,
    ShardUnavailableError,
    StorageError,
    TransientError,
)
from repro.faults import RunContext, fire, retry_call
from repro.engine.plan import (
    IdentityPlan,
    IndexScanPlan,
    JoinPlan,
    Order,
    PlanNode,
    UnionPlan,
)
from repro.graph.graph import Graph
from repro.indexes.pathindex import PathIndex
from repro.relation import Relation

#: The resilience contract applied when the caller sets nothing up:
#: default retries, no deadline, strict (non-degraded) answers.
_DEFAULT_CONTEXT = RunContext()


def merge_join(left, right) -> Relation:
    """Compose ``left`` (sorted by target) with ``right`` (sorted by source).

    Preconditions are the paper's physical sort orders: the left input
    comes from an inverse-path scan (target-major), the right from a
    direct scan (source-major).  Plain pair sequences are accepted for
    convenience and trusted to satisfy those orders.  Output is
    deduplicated, unordered.
    """
    left = Relation.coerce(left, Order.BY_TGT)
    right = Relation.coerce(right, Order.BY_SRC)
    return rel.merge_join(left, right)


def hash_join(left, right) -> Relation:
    """Compose ``left ∘ right`` with a hash table on the smaller input."""
    return rel.hash_join(Relation.coerce(left), Relation.coerce(right))


class ScanMemo:
    """Per-execution memo over plan subtrees (and hybrid AST subtrees).

    ``table`` maps each executed :class:`PlanNode` — or ``(plan, shard,
    source)`` tuple, for a pinned run (a shard slice, an anchored read)
    — and each AST node the hybrid fallback evaluates structurally to
    its result relation.  Plan nodes, pinned tuples and AST nodes are
    immutable value objects of distinct types, so no two kinds of key
    compare equal and one table holds them all.  ``closures`` maps each
    operand the fallback closes to the :class:`repro.csr.Reach` its
    closures share.  Stored relations are *frozen*
    (:meth:`repro.relation.Relation.freeze`): a memoized result is
    handed to every consumer without copying, and every hit re-asserts
    the frozen invariant so a mutated shared relation fails loudly.

    ``hits`` counts results served from the memo; ``misses`` counts
    distinct subproblems actually computed.  Both are surfaced on
    :class:`repro.engine.executor.ExecutionReport` and aggregated by
    :meth:`repro.api.GraphDatabase.stats`.

    A memo belongs to one execution on one thread: every ``query()`` /
    ``query_batch()`` call builds its own inside its own read section,
    so nothing here is synchronized.
    """

    __slots__ = ("table", "closures", "hits", "misses")

    def __init__(self) -> None:
        self.table: dict = {}
        self.closures: dict = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, key) -> Relation | None:
        """The memoized result under ``key``, counting the hit/miss."""
        cached = self.table.get(key)
        if cached is not None:
            self.hits += 1
            return cached.check_frozen()
        self.misses += 1
        return None

    def store(self, key, result: Relation) -> Relation:
        self.table[key] = result.freeze()
        return result

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}"
            f"(entries={len(self.table)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def execute(
    plan: PlanNode,
    index: PathIndex,
    graph: Graph,
    memo: ScanMemo | None = None,
    deadline=None,
    shard: int | None = None,
    source: int | None = None,
) -> Relation:
    """Run a plan tree, returning the (deduplicated) result relation.

    With a ``memo``, every subtree result — index scans first among
    them — is computed at most once per execution (or per batch, when
    :meth:`repro.api.GraphDatabase.query_batch` spans one with it).

    ``deadline`` (a :class:`repro.faults.Deadline`) is checked once per
    plan node — operator granularity, the cooperative-timeout contract.

    ``shard`` pins the plan to one shard of a
    :class:`repro.sharding.ShardedGraph` ``index``: the result is the
    shard's slice, the pairs whose source the shard owns.  A
    composition's output sources come from its left input, so only the
    leftmost spine reads shard slices; every right input runs globally
    (cross-shard joins must not be dropped), and a union pins every
    part.  Pinned subtrees are memoized under ``(plan, shard)``, global
    ones under the plan itself, so the gather side of an inner scan is
    computed once and reused by every shard, and a left-spine prefix
    shared by several disjuncts runs once per shard.

    ``source`` pins the same left spine to one source node — a
    ``from(v):`` anchor.  The leftmost leaf reads ``I(p, v)``
    (``index.scan_from``, which a sharded index answers on the shard
    owning ``v``) and the epsilon disjunct is ``{(v, v)}``; everything
    else is exactly as above, so the result is the pairs of the whole
    answer whose source is ``v``.  A pinned shard adds nothing to a
    pinned source beyond naming the slice it belongs to.
    """
    if deadline is not None:
        deadline.check()
    key = plan if shard is None and source is None else (plan, shard, source)
    if memo is not None:
        cached = memo.lookup(key)
        if cached is not None:
            return cached
    result = _run(plan, index, graph, memo, deadline, shard, source)
    if memo is not None:
        memo.store(key, result)
    return result


def _run(
    plan: PlanNode,
    index: PathIndex,
    graph: Graph,
    memo: ScanMemo | None,
    deadline,
    shard: int | None,
    source: int | None,
) -> Relation:
    if isinstance(plan, IndexScanPlan):
        if source is not None:
            # One source is sorted by target as well as by source, so
            # the slice satisfies whichever order the plan declared.
            targets = array("q", index.scan_from(plan.path, source))
            sources = array("q", [source]) * len(targets)
            return Relation(sources, targets, plan.order)
        if shard is None:
            scan = index.scan_swapped if plan.via_inverse else index.scan
            return _checked(plan, scan(plan.path))
        # The deadline travels into a shard scan itself: the in-process
        # engine clips its retry backoff with it, and the RPC-backed
        # coordinator forwards it in every request header so a worker
        # stops computing a slice nobody will wait for.
        scan = index.shard_scan_swapped if plan.via_inverse else index.shard_scan
        return _checked(plan, scan(shard, plan.path, deadline=deadline))
    if isinstance(plan, IdentityPlan):
        if source is not None:
            return rel.identity((source,))
        if shard is None:
            return _checked(plan, rel.identity(graph.node_ids()))
        return _checked(plan, index.shard_identity(shard))
    if isinstance(plan, JoinPlan):
        left = execute(plan.left, index, graph, memo, deadline, shard, source)
        right = execute(plan.right, index, graph, memo, deadline)
        if plan.algorithm == "merge":
            _check_merge_inputs(plan)
            return rel.merge_join(left, right)
        return rel.hash_join(left, right)
    if isinstance(plan, UnionPlan):
        return rel.union(
            execute(part, index, graph, memo, deadline, shard, source)
            for part in plan.parts
        )
    raise ExecutionError(f"unknown plan node {type(plan).__name__}")


class ScatterCounters:
    """Mutable tally of scatter decisions for one execution.

    One instance spans a whole query execution (every
    :func:`execute_scattered` call the hybrid fallback makes shares
    it), and its totals land on
    :class:`repro.engine.executor.ExecutionReport` — the observable
    that makes shard pruning auditable instead of silent.
    """

    __slots__ = ("scanned", "pruned", "disjuncts_pruned", "failed")

    def __init__(self) -> None:
        #: Shard executions that actually ran.
        self.scanned = 0
        #: Shard executions skipped outright (whole slice provably empty).
        self.pruned = 0
        #: Individual disjunct slices skipped (a skipped shard counts
        #: all of its disjuncts) — the finer-grained signal: a union
        #: query can prune most of its work in every shard without any
        #: shard being skipped whole.
        self.disjuncts_pruned = 0
        #: Shard slices dropped because the shard stayed down through
        #: retries and the execution ran ``degraded`` — nonzero exactly
        #: when the answer is partial.
        self.failed = 0

    def __repr__(self) -> str:
        return (
            f"ScatterCounters(scanned={self.scanned}, "
            f"pruned={self.pruned}, "
            f"disjuncts_pruned={self.disjuncts_pruned}, "
            f"failed={self.failed})"
        )


class ScatterPolicy:
    """Shard pruning for scatter-gather execution.

    Consulted once per (plan, shard) before the slice runs: a slice
    whose leftmost leaf has per-shard exact count zero
    (:meth:`repro.sharding.ShardedGraph.shard_statistics`) is skipped.
    Sound, not heuristic: the leftmost leaf pinned to the shard is
    exactly the shard's slice of that path, and composition/union with
    an empty leftmost input restricted to the shard produces nothing.
    Union plans prune per disjunct; a shard with no live disjunct is
    skipped entirely.

    A shard's catalog only changes with its contents, so the whole
    (plan, shard) decision — result plan plus counter deltas — is
    cached on the index (:attr:`ShardedGraph.decision_cache`, an LRU
    dropped with the statistics caches): repeated queries pay one dictionary
    hit per shard instead of re-walking every disjunct.  Decisions are
    made serially on the calling thread, so the counters need no lock;
    concurrent readers racing to fill a cache key store equal values.
    """

    __slots__ = ("_sharded", "counters")

    def __init__(self, sharded, counters: ScatterCounters | None = None) -> None:
        self._sharded = sharded
        self.counters = counters if counters is not None else ScatterCounters()

    def shard_plan(self, shard: int, plan: PlanNode) -> PlanNode | None:
        """The plan this shard should execute, or ``None`` to skip it."""
        decided = self._sharded.decision_cache.fetch(
            (shard, plan), lambda: self._decide(shard, plan)
        )
        result, scanned, pruned, disjuncts_pruned = decided
        self.counters.scanned += scanned
        self.counters.pruned += pruned
        self.counters.disjuncts_pruned += disjuncts_pruned
        return result

    def _decide(
        self, shard: int, plan: PlanNode
    ) -> tuple[PlanNode | None, int, int, int]:
        """Uncached decision: (plan or None, counter deltas)."""
        statistics = self._sharded.shard_statistics(shard)
        if not isinstance(plan, UnionPlan):
            if self._slice_empty(plan, shard, statistics):
                return None, 0, 1, 1
            return plan, 1, 0, 0
        kept = tuple(
            part
            for part in plan.parts
            if not self._slice_empty(part, shard, statistics)
        )
        disjuncts_pruned = len(plan.parts) - len(kept)
        if not kept:
            return None, 0, 1, disjuncts_pruned
        if not disjuncts_pruned:
            return plan, 1, 0, 0
        return UnionPlan(kept), 1, 0, disjuncts_pruned

    def _slice_empty(self, plan: PlanNode, shard: int, statistics) -> bool:
        """Is this shard's slice of ``plan`` provably empty?

        Only the leftmost leaf is consulted — it is the one input the
        scatter executor pins to the shard, and its exact per-shard
        count is ground truth, not an estimate.
        """
        if isinstance(plan, JoinPlan):
            return self._slice_empty(plan.left, shard, statistics)
        if isinstance(plan, UnionPlan):
            return all(
                self._slice_empty(part, shard, statistics) for part in plan.parts
            )
        if isinstance(plan, IndexScanPlan):
            # Direct and inverse scans both read the shard's slice of
            # plan.path itself (the inverse trick re-sorts, it does not
            # change which pairs the slice holds).
            return statistics.estimated_count(plan.path) == 0
        if isinstance(plan, IdentityPlan):
            return not self._sharded.owned_ids(shard)
        return False  # unknown node: never prune what we cannot prove


def execute_scattered(
    plan: PlanNode,
    sharded,
    graph: Graph,
    memo: ScanMemo | None = None,
    policy: ScatterPolicy | None = None,
    context=None,
    source: int | None = None,
) -> Relation:
    """Run a plan against every shard and merge the slices.

    ``sharded`` is a :class:`repro.sharding.ShardedGraph`.  The plan is
    executed once per shard, in shard order on the calling thread,
    pinned to the shard (:func:`execute` with ``shard=``): the leftmost
    leaf of every join chain reads the shard-local slice, while every
    other subtree runs globally and lands in the shared ``memo``, so
    the gather side of an inner scan is computed once and reused by
    all N shard executions.  Because the shard slices partition every
    relation by start owner, the final union is exact: it equals the
    unsharded execution of the same plan.

    ``policy`` (a :class:`ScatterPolicy`) skips provably empty shard
    slices; ``None`` runs every shard.  Answers are the same either way.

    The gather is the fused kernel
    :func:`repro.relation.union_into` with ``disjoint=True``: every
    slice's sources are owned by the producing shard (the leftmost
    leaf is pinned to the shard, and a subtree's output sources come
    from its leftmost input), owner sets partition the vertices, and
    each slice is individually duplicate-free — so the merge can skip
    duplicate elimination entirely.

    ``context`` (a :class:`repro.faults.RunContext`) adds the
    resilience semantics: per-slice retry with backoff, degraded
    (partial) answers, and cooperative deadline checks.  The gather
    itself is pure over already-collected slices, so a transient fault
    at its injection point is simply retried.

    ``source`` anchors the run: only the shard owning ``source`` runs,
    pinned to it (see :func:`scattered_parts`).
    """
    parts = scattered_parts(plan, sharded, graph, memo, policy, context, source)
    deadline = context.deadline if context is not None else None
    retry = context.retry if context is not None else None

    def merge() -> Relation:
        fire("gather.merge", shards=len(parts))
        return rel.union_into(parts, disjoint=True)

    return retry_call(merge, policy=retry, deadline=deadline)


def scattered_parts(
    plan: PlanNode,
    sharded,
    graph: Graph,
    memo: ScanMemo | None = None,
    policy: ScatterPolicy | None = None,
    context=None,
    source: int | None = None,
) -> list[Relation]:
    """The per-shard slices of a plan's result, unmerged.

    What the recursive operators want: the slices of a ``Star``
    operand go straight into the *global* closure
    (:func:`repro.csr.partitioned_closure`), whose packed-key merge
    subsumes the union this module would otherwise perform.  Pruned
    shards contribute no slice at all (an empty list is a legal
    closure operand).

    With a ``context``, each slice retries transient failures with
    capped backoff; a slice still failing is a *permanent* shard
    outage — :class:`ShardUnavailableError` in strict mode, a dropped
    slice (counted on ``policy.counters.failed``) in degraded mode.
    Dropping a slice is sound for *subset* semantics because every
    operator downstream (join, union, closure) is monotone: an answer
    computed from fewer slices is always a subset of the full answer,
    never a wrong pair.

    ``source`` narrows the scatter to one slice: the anchored pairs all
    start at ``source``, so only its owner shard can hold any, and that
    shard runs with its leftmost leaf pinned to ``source`` — pruned,
    retried and degraded exactly like any other slice.
    """
    if memo is None:
        memo = ScanMemo()
    deadline = context.deadline if context is not None else None
    if deadline is not None:
        deadline.check()
    if source is None:
        shards = range(sharded.shard_count)
    else:
        shards = (sharded.owner(source),)
    if policy is None:
        live = [(shard, plan) for shard in shards]
    else:
        live = []
        for shard in shards:
            shard_plan = policy.shard_plan(shard, plan)
            if shard_plan is not None:
                live.append((shard, shard_plan))
    parts = [
        _guarded_slice(shard_plan, sharded, shard, graph, memo, context, source)
        for shard, shard_plan in live
    ]
    if context is not None and context.degraded:
        failed = parts.count(None)
        if failed:
            if policy is not None:
                policy.counters.failed += failed
            parts = [part for part in parts if part is not None]
    return parts


def _guarded_slice(
    plan: PlanNode,
    sharded,
    shard: int,
    graph: Graph,
    memo: ScanMemo,
    context,
    source: int | None = None,
) -> Relation | None:
    """One shard slice under the execution's resilience contract.

    Transient faults retry with backoff (deadline-clipped); what
    survives the retries is permanent *for this execution*.  Strict
    mode converts it to a typed :class:`ShardUnavailableError` naming
    the shard; degraded mode returns ``None`` (the caller drops and
    counts the slice).  Timeouts are never degraded away — a deadline
    is a promise to the caller, not a shard failure.

    ``context=None`` (a query with no explicit deadline or degraded
    opt-in) still retries: transient-fault recovery is engine default
    behavior, not something a caller must ask for.
    """
    if context is None:
        context = _DEFAULT_CONTEXT
    try:
        return retry_call(
            lambda: execute(
                plan, sharded, graph, memo, context.deadline, shard, source
            ),
            policy=context.retry,
            deadline=context.deadline,
        )
    except (BrokenExecutor, TransientError) as error:
        if context.degraded:
            return None
        raise ShardUnavailableError(
            f"shard {shard} unavailable after retries: {error}", shard=shard
        ) from error
    except StorageError:
        # Permanent storage failure (corrupt page, bad magic): the
        # shard's backing file is unusable, which degraded mode treats
        # as one more downed shard; strict mode reports the storage
        # fault itself — it names the real problem.
        if context.degraded:
            return None
        raise


def _checked(plan: PlanNode, produced: Relation) -> Relation:
    """Validate that a leaf delivered the sort order its plan declares."""
    declared = plan.order
    if declared is not Order.NONE and produced.order is not declared:
        raise ExecutionError(
            f"{plan} declared {declared.value} but produced a relation "
            f"ordered {produced.order.value}"
        )
    return produced


def _check_merge_inputs(plan: JoinPlan) -> None:
    """Defensive check: a merge join requires compatible sort orders."""
    if plan.left.order is not Order.BY_TGT or plan.right.order is not Order.BY_SRC:
        raise ExecutionError(
            "merge join requires left sorted by target and right by source; "
            f"got {plan.left.order.value} / {plan.right.order.value}"
        )
