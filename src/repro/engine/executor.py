"""Query execution: rewrite, plan, run — plus the hybrid fallback.

The paper's path is :func:`prepare_ast` (normal form → plan) then
:func:`execute_prepared` (physical operators → answer set);
:func:`evaluate_ast` runs the two.

:func:`execute_prepared` adds a pragmatic layer the demo system needs for
*unbounded* recursion: expanding ``R{0,n(G)}`` into ``n(G)+1`` powers is
correct but explodes for large graphs, so when a (sub)expression's
expansion would exceed the disjunct budget, evaluation falls back to
structural recursion at that node — child results are still computed
through the index/planner where possible, and recursion is closed with
the condensation-based CSR fixpoint (:mod:`repro.csr`).  A concatenation
into a closure the rewriter refuses, ``R / S*`` (or an open ``S{n,}``),
hands the accumulated ``R`` to the closure as its left operand: the CSR
kernel folds ``R`` into the reach bitsets instead of decoding the
closure's pairs and joining them, unless its density rule finds the
join cheaper (the join's output, ``Σ_{(s, t) ∈ R} |reach(t)|``, below
the fold's ``|R| · ⌈n/64⌉`` words: sparse, wide reach sets).  A closure
the rewriter accepts is planned through the index and joined, as
:func:`planned_operands` (``db.explain``) reports.  Each closure
operand's reach bitsets are kept in the scan memo, so ``a/b* | c/b*``
condenses ``b`` once.  ``S*/R`` still composes the closure's pairs.
For the bounded queries of the paper's evaluation, the fallback never
triggers.

A ``from(v):`` anchor (``source=``) is not a second evaluator: the plan
runs with its leftmost scan pinned to ``I(p, v)`` on the shard owning
``v`` (:func:`~repro.engine.operators.execute`), exactly as a shard
slice pins it to the shard.  The hybrid fallback computes the whole
answer and keeps the anchored pairs.

Every execution carries a :class:`~repro.engine.operators.ScanMemo`:
repeated index scans and shared subplans across union disjuncts (and
repeated AST subtrees in the fallback) are evaluated once, with
hit/miss counts reported on :class:`ExecutionReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import csr
from repro import relation as rel
from repro.errors import QueryTimeoutError, RewriteError
from repro.faults import RunContext
from repro.engine.cost import CostedPlan
from repro.engine.operators import (
    ScanMemo,
    ScatterCounters,
    ScatterPolicy,
    execute,
    execute_scattered,
    scattered_parts,
)
from repro.engine.plan import PlanNode
from repro.engine.planner import Planner, Strategy
from repro.graph.graph import Graph, LabelPath
from repro.graph.stats import star_bound
from repro.indexes.pathindex import PathIndex
from repro.relation import Relation
from repro.rpq.ast import Concat, Epsilon, Inverse, Label, Node, Repeat, Star, Union
from repro.rpq.rewrite import DEFAULT_MAX_DISJUNCTS, normalize, push_inverse


@dataclass(frozen=True, slots=True)
class ExecutionReport:
    """What happened while answering one query.

    The answer stays columnar (:attr:`relation`) — the same columns
    ``QueryResult.pairs`` views by name; :attr:`pairs` materializes
    *id* tuples on demand for callers that want a set of them.
    """

    strategy: Strategy
    plan: CostedPlan | None  # None when the hybrid fallback ran top-level
    # hash=False: Relation is unhashable by design; keep reports usable
    # as set members / dict keys (they were in 1.0) by hashing the
    # scalar fields only.
    relation: Relation = field(hash=False)
    planning_seconds: float
    execution_seconds: float
    used_fallback: bool
    #: Scan-memo traffic for this execution: results served from the
    #: per-execution memo vs distinct subproblems computed (plan
    #: subtrees, and AST subtrees in the hybrid fallback).
    scan_memo_hits: int = 0
    scan_memo_misses: int = 0
    #: Scatter decisions (all zero at one shard, which does not
    #: scatter): shard slices executed, shard slices skipped as
    #: provably empty, and disjunct slices skipped.  Aggregated across
    #: every scatter this execution performed (the hybrid fallback can
    #: perform several).
    shards_scanned: int = 0
    shards_pruned: int = 0
    disjuncts_pruned: int = 0
    #: Shard slices dropped after exhausting retries (degraded runs
    #: only — strict runs raise instead of dropping).
    shards_failed: int = 0
    #: ``True`` exactly when slices were dropped: the relation is a
    #: *subset* of the full answer, flagged rather than silent.
    partial: bool = False
    _pairs: frozenset | None = field(default=None, repr=False, compare=False)

    @property
    def pairs(self) -> frozenset:
        """The answer as a frozenset of ``(src, tgt)`` id tuples.

        Materialized from the columnar relation on first access and
        memoized, so repeated reads stay O(1).
        """
        if self._pairs is None:
            object.__setattr__(self, "_pairs", self.relation.to_frozenset())
        return self._pairs  # type: ignore[return-value]

    @property
    def total_seconds(self) -> float:
        return self.planning_seconds + self.execution_seconds


def evaluate_ast(
    node: Node,
    index: PathIndex,
    graph: Graph,
    statistics,
    strategy: Strategy,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    context: RunContext | None = None,
    source: int | None = None,
) -> ExecutionReport:
    """Evaluate an arbitrary RPQ AST through the index where possible.

    A thin wrapper over :func:`prepare_ast` + :func:`execute_prepared`
    — exactly what :meth:`repro.api.GraphDatabase.query_batch` runs per
    query, so single and batched execution can never drift.
    """
    prepared = prepare_ast(node, index, graph, statistics, strategy, max_disjuncts)
    return execute_prepared(
        prepared, index, graph, statistics, context=context, source=source
    )


@dataclass(frozen=True, slots=True)
class PreparedQuery:
    """One query planned up front, awaiting execution.

    :meth:`repro.api.GraphDatabase.query_batch` plans every query in
    the batch first and executes each on the calling thread, all
    sharing one :class:`~repro.engine.operators.ScanMemo`.  ``costed`` is ``None``
    when normalization blew the disjunct budget — execution then takes
    the hybrid fallback.
    """

    node: Node
    strategy: Strategy
    max_disjuncts: int
    costed: CostedPlan | None
    planning_seconds: float


def prepare_ast(
    node: Node,
    index: PathIndex,
    graph: Graph,
    statistics,
    strategy: Strategy,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
) -> PreparedQuery:
    """Rewrite and plan ``node`` without executing it."""
    started = time.perf_counter()
    normal_form = _try_normalize(node, graph, max_disjuncts)
    costed = None
    if normal_form is not None:
        costed = Planner(index.k, statistics, graph, strategy).plan(normal_form)
    return PreparedQuery(
        node=node,
        strategy=strategy,
        max_disjuncts=max_disjuncts,
        costed=costed,
        planning_seconds=time.perf_counter() - started,
    )


def execute_prepared(
    prepared: PreparedQuery,
    index: PathIndex,
    graph: Graph,
    statistics,
    memo: ScanMemo | None = None,
    context: RunContext | None = None,
    source: int | None = None,
) -> ExecutionReport:
    """Execute a :class:`PreparedQuery`, optionally under a shared memo.

    The report's memo counters are the memo's traffic delta while this
    query ran.

    ``context`` carries the execution's resilience settings (deadline,
    degraded mode, retry policy).  A deadline that fires during a
    scattered execution gets its partial :class:`ScatterCounters`
    attached to the :class:`QueryTimeoutError` — the caller sees how far
    the scatter got before time ran out.

    ``source`` anchors the execution: the answer is the pairs starting
    at that node id.  The plan is the unanchored one — an anchor is an
    execution-time pin, so every anchor value shares a plan.
    """
    if memo is None:
        memo = ScanMemo()
    execution = _Execution(prepared, index, graph, statistics, memo, context)
    counters = execution.counters
    hits_before, misses_before = memo.hits, memo.misses
    started = time.perf_counter()
    try:
        if prepared.costed is not None:
            relation = execution.run(prepared.costed.plan, source)
        else:
            relation = execution.hybrid(push_inverse(prepared.node), refused=True)
            if source is not None:
                relation = rel.restrict_src(relation, source)
    except QueryTimeoutError as error:
        if error.counters is None and execution.policy is not None:
            error.counters = counters
        raise
    finished = time.perf_counter()
    return ExecutionReport(
        strategy=prepared.strategy,
        plan=prepared.costed,
        relation=relation,
        planning_seconds=prepared.planning_seconds,
        execution_seconds=finished - started,
        used_fallback=prepared.costed is None,
        scan_memo_hits=memo.hits - hits_before,
        scan_memo_misses=memo.misses - misses_before,
        shards_scanned=counters.scanned,
        shards_pruned=counters.pruned,
        disjuncts_pruned=counters.disjuncts_pruned,
        shards_failed=counters.failed,
        partial=counters.failed > 0,
    )


def _try_normalize(node: Node, graph: Graph, max_disjuncts: int):
    try:
        return normalize(node, star_bound(graph), max_disjuncts)
    except RewriteError:
        return None


def planned_operands(
    node: Node, graph: Graph, max_disjuncts: int = DEFAULT_MAX_DISJUNCTS
):
    """The bounded operands of a refused ``node``, each with its normal form.

    The walk :meth:`_Execution.hybrid` makes: an operand the rewriter
    accepts is planned through the index, one it refuses is descended
    into.
    """
    for operand in node.children():
        normal_form = _try_normalize(operand, graph, max_disjuncts)
        if normal_form is not None:
            yield operand, normal_form
        else:
            yield from planned_operands(operand, graph, max_disjuncts)


class _Execution:
    """One execution of a prepared query: what every step of it shares.

    Built once by :func:`execute_prepared`.  ``policy`` is the engine's
    one selection: more than one shard runs every plan through
    :func:`execute_scattered` (and a closure operand through
    :func:`scattered_parts`) under a :class:`ScatterPolicy`; one shard
    runs :func:`execute` over the index facade, where there is nothing
    to prune or gather and a facade ``scan_swapped`` is the zero-copy
    inverse-path scan a shard slice has to re-sort.  ``counters`` sums
    the scatter decisions of every plan the execution runs (all zero at
    one shard).
    """

    def __init__(
        self,
        prepared: PreparedQuery,
        index: PathIndex,
        graph: Graph,
        statistics,
        memo: ScanMemo,
        context: RunContext | None,
    ) -> None:
        self.index = index
        self.graph = graph
        self.statistics = statistics
        self.strategy = prepared.strategy
        self.max_disjuncts = prepared.max_disjuncts
        self.memo = memo
        self.context = context
        self.deadline = context.deadline if context is not None else None
        self.counters = ScatterCounters()
        self.policy = (
            ScatterPolicy(index, self.counters) if index.shard_count > 1 else None
        )

    def run(self, plan: PlanNode, source: int | None = None) -> Relation:
        """The answer of ``plan``, scattered over the shards or not."""
        if self.policy is None:
            return execute(
                plan, self.index, self.graph, self.memo, self.deadline, source=source
            )
        return execute_scattered(
            plan,
            self.index,
            self.graph,
            self.memo,
            policy=self.policy,
            context=self.context,
            source=source,
        )

    def plan(self, normal_form) -> PlanNode:
        planner = Planner(self.index.k, self.statistics, self.graph, self.strategy)
        return planner.plan(normal_form).plan

    def hybrid(self, node: Node, refused: bool = False) -> Relation:
        """Structural evaluation with planner acceleration on bounded parts.

        ``node`` goes through the planner and the index if the rewriter
        accepts it, else one step of :meth:`structural` recursion whose
        operands come back here.  Every intermediate is an array-backed
        :class:`~repro.relation.Relation`.  The memo spans the whole
        traversal: repeated AST subtrees (the normalized ``(a|b)*`` shape
        repeats its base under every disjunct) and repeated plan
        subtrees inside bounded parts are each evaluated once.
        ``refused`` is set by a caller that has already seen the
        rewriter refuse ``node`` itself, so only its operands are
        offered to the planner.
        """
        if self.deadline is not None:
            self.deadline.check()
        cached = self.memo.lookup(node)
        if cached is not None:
            return cached
        normal_form = (
            None if refused else _try_normalize(node, self.graph, self.max_disjuncts)
        )
        if normal_form is None:
            result = self.structural(node)
        else:
            result = self.run(self.plan(normal_form))
        self.memo.store(node, result)
        return result

    def structural(self, node: Node) -> Relation:
        """One step of structural recursion; operands go back through :meth:`hybrid`."""
        graph = self.graph
        if isinstance(node, Epsilon):
            return rel.identity(graph.node_ids())
        if isinstance(node, Label):
            return self.index.scan(LabelPath((node.step,)))
        if isinstance(node, Inverse):
            return self.hybrid(push_inverse(node))
        if isinstance(node, Concat):
            result = self.hybrid(node.parts[0])
            for part in node.parts[1:]:
                if not result:
                    return Relation.empty()
                if _folds(part, graph, self.max_disjuncts):
                    result = self.closure(part, left=result)
                else:
                    result = rel.compose(result, self.hybrid(part))
            return result
        if isinstance(node, Union):
            return rel.union(self.hybrid(part) for part in node.parts)
        if _closure_low(node) is not None:
            return self.closure(node)
        if isinstance(node, Repeat):
            base = self.hybrid(node.child)
            return rel.bounded_powers(
                graph.node_ids(), base, node.low, node.high, deadline=self.deadline
            )
        raise RewriteError(f"unknown AST node {type(node).__name__}")

    def closure(self, node: Node, left: Relation | None = None) -> Relation:
        """``left / node`` (``node`` alone without ``left``) for an unbounded closure.

        Closed by :func:`repro.csr.partitioned_closure`.  The operand is
        condensed once per execution: its :class:`repro.csr.Reach` stays
        in the memo (``memo.closures``), and a later closure over the
        same operand — ``a/b* | c/b*``, or ``b{2,}`` next to ``b*`` —
        neither evaluates the operand again nor condenses it, but closes
        from the kept reach with its own ``low`` and ``left``.
        """
        reach = self.memo.closures.get(node.child)
        if reach is None:
            reach = self.memo.closures[node.child] = csr.Reach()
        parts = () if reach.filled else self.closure_parts(node.child)
        return csr.partitioned_closure(
            self.graph.node_ids(),
            parts,
            low=_closure_low(node),
            deadline=self.deadline,
            left=left,
            reach=reach,
        )

    def closure_parts(self, operand: Node) -> list[Relation]:
        """The operand of a Kleene closure, as per-shard slices when possible.

        A scattering execution evaluates a bounded closure operand once
        per shard (the gather is subsumed by the closure's own merge);
        the closure itself always runs globally, because recursive paths
        hop shards freely.  Pruned shards simply contribute no slice.
        One shard — and any operand the planner cannot bound — keeps the
        single-relation path, memoized under the operand's AST node.
        """
        if self.policy is not None:
            normal_form = _try_normalize(operand, self.graph, self.max_disjuncts)
            if normal_form is not None:
                return scattered_parts(
                    self.plan(normal_form),
                    self.index,
                    self.graph,
                    self.memo,
                    policy=self.policy,
                    context=self.context,
                )
        return [self.hybrid(operand)]


def _closure_low(node: Node) -> int | None:
    """The ``low`` of an unbounded closure (``Star`` / open ``Repeat``), else None."""
    if isinstance(node, Star):
        return 0
    if isinstance(node, Repeat) and node.high is None:
        return node.low
    return None


def _folds(part: Node, graph: Graph, max_disjuncts: int) -> bool:
    """Whether ``R / part`` folds ``R`` into ``part``'s closure: ``part``
    is an unbounded closure the rewriter refuses (one it accepts is
    planned through the index, as :func:`planned_operands` reports)."""
    return (
        _closure_low(part) is not None
        and _try_normalize(part, graph, max_disjuncts) is None
    )
