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
"""

from __future__ import annotations

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
from repro.sharding import DECISION_CACHE_MAX  # noqa: F401  (re-export)

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

    ``plans`` maps each executed :class:`PlanNode` to its result
    relation; ``asts`` does the same for AST nodes the hybrid fallback
    evaluates structurally.  Stored relations are *frozen*
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

    __slots__ = ("plans", "asts", "hits", "misses")

    def __init__(self) -> None:
        # Keys are PlanNodes for global executions and (PlanNode, shard)
        # tuples for shard-restricted slices (scatter-gather execution);
        # both are immutable hashable value objects.
        self.plans: dict = {}
        self.asts: dict = {}
        self.hits = 0
        self.misses = 0

    # -- plan subtrees ---------------------------------------------------

    def lookup_plan(self, plan: PlanNode) -> Relation | None:
        """The memoized result of ``plan``, counting the hit/miss."""
        cached = self.plans.get(plan)
        if cached is not None:
            self.hits += 1
            return cached.check_frozen()
        self.misses += 1
        return None

    def store_plan(self, plan: PlanNode, result: Relation) -> Relation:
        self.plans[plan] = result.freeze()
        return result

    # -- hybrid AST subtrees ----------------------------------------------

    def lookup_ast(self, node) -> Relation | None:
        cached = self.asts.get(node)
        if cached is not None:
            self.hits += 1
            return cached.check_frozen()
        self.misses += 1
        return None

    def store_ast(self, node, result: Relation) -> Relation:
        self.asts[node] = result.freeze()
        return result

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}"
            f"(entries={len(self.plans) + len(self.asts)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def execute(
    plan: PlanNode,
    index: PathIndex,
    graph: Graph,
    memo: ScanMemo | None = None,
    deadline=None,
) -> Relation:
    """Run a plan tree, returning the (deduplicated) result relation.

    With a ``memo``, every subtree result — index scans first among
    them — is computed at most once per execution (or per batch, when
    :meth:`repro.api.GraphDatabase.query_batch` spans one with it).

    ``deadline`` (a :class:`repro.faults.Deadline`) is checked once per
    plan node — operator granularity, the cooperative-timeout contract.
    """
    if deadline is not None:
        deadline.check()
    if memo is not None:
        cached = memo.lookup_plan(plan)
        if cached is not None:
            return cached
    result = _run(plan, index, graph, memo, deadline)
    if memo is not None:
        memo.store_plan(plan, result)
    return result


def _run(
    plan: PlanNode,
    index: PathIndex,
    graph: Graph,
    memo: ScanMemo | None,
    deadline=None,
) -> Relation:
    if isinstance(plan, IndexScanPlan):
        if plan.via_inverse:
            return _checked(plan, index.scan_swapped(plan.path))
        return _checked(plan, index.scan(plan.path))
    if isinstance(plan, IdentityPlan):
        return _checked(plan, rel.identity(graph.node_ids()))
    if isinstance(plan, JoinPlan):
        left = execute(plan.left, index, graph, memo, deadline)
        right = execute(plan.right, index, graph, memo, deadline)
        if plan.algorithm == "merge":
            _check_merge_inputs(plan)
            return rel.merge_join(left, right)
        return rel.hash_join(left, right)
    if isinstance(plan, UnionPlan):
        return rel.union(
            execute(part, index, graph, memo, deadline) for part in plan.parts
        )
    raise ExecutionError(f"unknown plan node {type(plan).__name__}")


class ScatterCounters:
    """Mutable tally of scatter-planning decisions for one execution.

    One instance spans a whole query execution (every
    :func:`execute_scattered` call the hybrid fallback makes shares
    it), and its totals land on
    :class:`repro.engine.executor.ExecutionReport` — the observable
    that makes shard pruning auditable instead of silent.
    """

    __slots__ = ("scanned", "pruned", "disjuncts_pruned", "replanned", "failed")

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
        #: Disjunct join spines re-planned against a shard's statistics.
        self.replanned = 0
        #: Shard slices dropped because the shard stayed down through
        #: retries and the execution ran ``degraded`` — nonzero exactly
        #: when the answer is partial.
        self.failed = 0

    def __repr__(self) -> str:
        return (
            f"ScatterCounters(scanned={self.scanned}, "
            f"pruned={self.pruned}, "
            f"disjuncts_pruned={self.disjuncts_pruned}, "
            f"replanned={self.replanned}, "
            f"failed={self.failed})"
        )




class ScatterPolicy:
    """Per-shard planning decisions for scatter-gather execution.

    Built by the executor from the sharded engine's per-shard
    statistics (:meth:`repro.sharding.ShardedGraph.shard_statistics`)
    and consulted once per (plan, shard) before the slice runs:

    * **shard pruning** — a slice whose leftmost leaf has per-shard
      *exact* count zero is skipped.  Sound, not heuristic: the
      leftmost leaf pinned to the shard is exactly the shard's slice
      of that path, and composition/union with an empty leftmost
      input restricted to the shard produces nothing.  Union plans
      prune per disjunct; a shard with no live disjunct is skipped
      entirely.
    * **per-shard re-planning** — when a shard's *estimate* for some
      length-k window of a disjunct diverges from its uniform share
      of the global estimate beyond
      :attr:`~repro.sharding.ShardedGraph.replan_divergence`, the
      disjunct's join spine is re-costed against the shard's own
      statistics (``replan`` callback, supplied by the executor so
      this module stays planner-agnostic).  Any plan for the disjunct
      executes to the same shard slice, so re-planning is a pure
      performance decision — the shards=1 oracle pins that.

    Per-shard statistics only change on rebuild, so the whole
    (plan, shard) decision — result plan plus counter deltas — is
    cached on the index (:attr:`ShardedGraph.replan_cache`, dropped by
    ``rebuild_shards``): repeated queries pay one dictionary hit per
    shard instead of re-walking every disjunct.  ``cache_tag`` carries
    everything else the decision depends on (strategy, statistics
    flavor, the pruning/divergence knobs).  Decisions are made
    serially (before any thread fan-out), so the counters need no
    lock; concurrent readers racing to fill a cache key store equal
    values.
    """

    __slots__ = (
        "_sharded",
        "_statistics",
        "_disjunct_paths",
        "_replan",
        "_tag",
        "counters",
    )

    def __init__(
        self,
        sharded,
        statistics,
        disjunct_paths: dict[PlanNode, object] | None = None,
        replan=None,
        counters: ScatterCounters | None = None,
        cache_tag: tuple = (),
    ) -> None:
        self._sharded = sharded
        self._statistics = statistics
        self._disjunct_paths = disjunct_paths or {}
        self._replan = replan
        self._tag = cache_tag + (
            sharded.scatter_pruning,
            sharded.replan_divergence,
        )
        self.counters = counters if counters is not None else ScatterCounters()

    def shard_plan(self, shard: int, plan: PlanNode) -> PlanNode | None:
        """The plan this shard should execute, or ``None`` to skip it."""
        cache = self._sharded.replan_cache
        key = (shard, self._tag, plan)
        decided = cache.get(key)
        if decided is None:
            decided = self._decide(shard, plan)
            # The cache bounds itself (BoundedCache evicts FIFO), so a
            # template-heavy workload cannot grow it without limit.
            cache[key] = decided
        result, scanned, pruned, disjuncts_pruned, replanned = decided
        self.counters.scanned += scanned
        self.counters.pruned += pruned
        self.counters.disjuncts_pruned += disjuncts_pruned
        self.counters.replanned += replanned
        return result

    def _decide(
        self, shard: int, plan: PlanNode
    ) -> tuple[PlanNode | None, int, int, int, int]:
        """Uncached decision: (plan or None, counter deltas)."""
        statistics = self._sharded.shard_statistics(shard)
        pruning = self._sharded.scatter_pruning
        if isinstance(plan, UnionPlan):
            kept: list[PlanNode] = []
            disjuncts_pruned = 0
            replanned = 0
            for part in plan.parts:
                if pruning and self._slice_empty(part, shard, statistics):
                    disjuncts_pruned += 1
                    continue
                replacement, changed = self._maybe_replan(part, shard, statistics)
                replanned += changed
                kept.append(replacement)
            if not kept:
                return None, 0, 1, disjuncts_pruned, replanned
            if tuple(kept) == plan.parts:
                return plan, 1, 0, disjuncts_pruned, replanned
            return UnionPlan(tuple(kept)), 1, 0, disjuncts_pruned, replanned
        if pruning and self._slice_empty(plan, shard, statistics):
            return None, 0, 1, 1, 0
        replacement, changed = self._maybe_replan(plan, shard, statistics)
        return replacement, 1, 0, 0, changed

    # -- pruning ---------------------------------------------------------

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
            return statistics.exact_count(plan.path) == 0
        if isinstance(plan, IdentityPlan):
            return not self._sharded.owned_ids(shard)
        return False  # unknown node: never prune what we cannot prove

    # -- re-planning -----------------------------------------------------

    def _maybe_replan(
        self, plan: PlanNode, shard: int, statistics
    ) -> tuple[PlanNode, int]:
        """``(plan to run, 1 if it was re-planned else 0)``."""
        divergence = self._sharded.replan_divergence
        if divergence is None or self._replan is None:
            return plan, 0
        path = self._disjunct_paths.get(plan)
        if path is None or len(path) <= self._sharded.k:
            # Unknown provenance, or a single-scan disjunct: there is
            # no join spine to reorder.
            return plan, 0
        if not self._diverges(path, statistics, divergence):
            return plan, 0
        replanned = self._replan(shard, path, statistics.provider(self._statistics))
        if replanned == plan:
            return plan, 0
        return replanned, 1

    def _diverges(self, path, statistics, divergence: float) -> bool:
        """Does the shard's distribution of ``path`` defy uniform 1/N?

        Compares, window by length-k window (the units every strategy
        costs with), the shard estimate against the global estimate's
        uniform share.  Additive-one smoothing keeps empty windows from
        dividing by zero and tiny counts from screaming skew.
        """
        k = self._sharded.k
        share = 1.0 / self._sharded.shard_count
        for offset in range(len(path) - k + 1):
            window = path.subpath(offset, offset + k)
            expected = self._statistics.estimated_count(window) * share
            observed = statistics.estimated_count(window)
            ratio = (observed + 1.0) / (expected + 1.0)
            if ratio > divergence or ratio < 1.0 / divergence:
                return True
        return False


def execute_scattered(
    plan: PlanNode,
    sharded,
    graph: Graph,
    memo: ScanMemo | None = None,
    policy: ScatterPolicy | None = None,
    context=None,
) -> Relation:
    """Run a plan against every shard and merge the slices.

    ``sharded`` is a :class:`repro.sharding.ShardedGraph`.  The plan is
    executed once per shard, in shard order on the calling thread, with
    its *output-source position* pinned to the shard: the leftmost leaf
    of every join chain (whose source column becomes the answer's
    source column) reads the shard-local slice, while every other
    subtree is executed globally through
    :func:`execute` — and therefore lands in the shared ``memo``, so
    the gather side of an inner scan is computed once and reused by
    all N shard executions.  Because the shard slices partition every
    relation by start owner, the final union is exact: it equals the
    unsharded execution of the same plan.

    ``policy`` (a :class:`ScatterPolicy`) makes the scatter skew-aware:
    provably-empty shard slices are skipped and skewed disjuncts are
    re-planned per shard — answers are unchanged either way.

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
    """
    parts = scattered_parts(plan, sharded, graph, memo, policy, context)
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
    """
    if memo is None:
        memo = ScanMemo()
    deadline = context.deadline if context is not None else None
    if deadline is not None:
        deadline.check()
    if policy is None:
        live = [(shard, plan) for shard in range(sharded.shard_count)]
    else:
        live = []
        for shard in range(sharded.shard_count):
            shard_plan = policy.shard_plan(shard, plan)
            if shard_plan is not None:
                live.append((shard, shard_plan))
    parts = [
        _guarded_slice(shard_plan, sharded, shard, graph, memo, context)
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
            lambda: _run_on_shard(
                plan, sharded, shard, graph, memo, context.deadline
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


def _run_on_shard(
    plan: PlanNode,
    sharded,
    shard: int,
    graph: Graph,
    memo: ScanMemo,
    deadline=None,
) -> Relation:
    """One shard's slice of a plan: restrict along the leftmost spine.

    A composition's output sources come from its left input, so
    restricting the leftmost leaf to the shard's owned start vertices
    restricts the whole subtree's result to pairs the shard owns —
    every other input must stay global or cross-shard joins would be
    dropped.  Union nodes restrict every disjunct (a union's output
    sources come from all parts).

    Shard-restricted subtrees are memoized under ``(plan, shard)`` keys
    (global subtrees under the plan itself, via :func:`execute`), so a
    left-spine prefix shared by several disjuncts — ``R{1,3}`` repeats
    the ``R`` slice and the ``R·R`` join under every power — runs once
    per shard, exactly as the unsharded path runs it once.
    """
    if deadline is not None:
        deadline.check()
    cached = memo.lookup_plan((plan, shard))
    if cached is not None:
        return cached
    return memo.store_plan(
        (plan, shard),
        _run_on_shard_uncached(plan, sharded, shard, graph, memo, deadline),
    )


def _run_on_shard_uncached(
    plan: PlanNode,
    sharded,
    shard: int,
    graph: Graph,
    memo: ScanMemo,
    deadline=None,
) -> Relation:
    if isinstance(plan, IndexScanPlan):
        # The deadline travels into the scan call itself: the in-process
        # engine clips its retry backoff with it, and the RPC-backed
        # coordinator forwards it in every request header so a worker
        # stops computing a slice nobody will wait for.
        if plan.via_inverse:
            return sharded.shard_scan_swapped(shard, plan.path, deadline=deadline)
        return sharded.shard_scan(shard, plan.path, deadline=deadline)
    if isinstance(plan, IdentityPlan):
        return sharded.shard_identity(shard)
    if isinstance(plan, JoinPlan):
        left = _run_on_shard(plan.left, sharded, shard, graph, memo, deadline)
        right = execute(plan.right, sharded, graph, memo, deadline)
        if plan.algorithm == "merge":
            _check_merge_inputs(plan)
            return rel.merge_join(left.sorted_by(Order.BY_TGT), right)
        return rel.hash_join(left, right)
    if isinstance(plan, UnionPlan):
        return rel.union(
            _run_on_shard(part, sharded, shard, graph, memo, deadline)
            for part in plan.parts
        )
    raise ExecutionError(f"unknown plan node {type(plan).__name__}")


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
