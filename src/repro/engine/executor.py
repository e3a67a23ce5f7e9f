"""Query execution: rewrite, plan, run — plus the hybrid fallback.

:func:`evaluate_normal_form` is the paper's path: normal form → plan →
physical operators → answer set.

:func:`evaluate_ast` adds a pragmatic layer the demo system needs for
*unbounded* recursion: expanding ``R{0,n(G)}`` into ``n(G)+1`` powers is
correct but explodes for large graphs, so when a (sub)expression's
expansion would exceed the disjunct budget, evaluation falls back to
structural recursion at that node — child results are still computed
through the index/planner where possible, and recursion is closed with
the condensation-based CSR fixpoint (:mod:`repro.csr`).  For the bounded
queries of the paper's evaluation, the fallback never triggers.

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
from repro.engine.planner import Planner, Strategy
from repro.graph.graph import Graph
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


def evaluate_normal_form(
    normal_form,
    index: PathIndex,
    graph: Graph,
    statistics,
    strategy: Strategy,
    memo: ScanMemo | None = None,
    deadline=None,
) -> ExecutionReport:
    """Plan and execute a query already in normal form.

    ``memo`` shares a scan memo with an enclosing execution (the hybrid
    fallback passes its own so disjuncts of *different* bounded subtrees
    still share scans); by default each call gets a fresh one.
    ``deadline`` bounds the execution phase cooperatively.
    """
    if memo is None:
        memo = ScanMemo()
    planner = Planner(index.k, statistics, graph, strategy)
    started = time.perf_counter()
    costed = planner.plan(normal_form)
    planned = time.perf_counter()
    pairs = execute(costed.plan, index, graph, memo, deadline)
    finished = time.perf_counter()
    return ExecutionReport(
        strategy=strategy,
        plan=costed,
        relation=pairs,
        planning_seconds=planned - started,
        execution_seconds=finished - planned,
        used_fallback=False,
        scan_memo_hits=memo.hits,
        scan_memo_misses=memo.misses,
    )


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
    the batch first (cheap, sequential) and only fans the *execution*
    out over worker threads, all sharing one
    :class:`~repro.engine.operators.ScanMemo`.  ``costed`` is ``None``
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


def _scatters(index) -> bool:
    """The engine's one selection: scatter-gather, or the plain executor.

    More than one shard runs :func:`execute_scattered` /
    :func:`scattered_parts` under a :class:`ScatterPolicy`.  One shard
    runs :func:`execute` over the index facade: there is nothing to
    prune or gather, and a facade ``scan_swapped`` is the zero-copy
    inverse-path scan where a shard slice has to re-sort.
    """
    return index.shard_count > 1


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
    degraded mode, retry policy).  A deadline that fires gets this
    execution's partial :class:`ScatterCounters` attached to the
    :class:`QueryTimeoutError` — the caller sees how far the scatter
    got before time ran out.

    ``source`` anchors the execution: the answer is the pairs starting
    at that node id.  The plan is the unanchored one — an anchor is an
    execution-time pin, so every anchor value shares a plan.
    """
    sharded = _scatters(index)
    if memo is None:
        memo = ScanMemo()
    counters = ScatterCounters() if sharded else None
    deadline = context.deadline if context is not None else None
    hits_before, misses_before = memo.hits, memo.misses
    started = time.perf_counter()
    try:
        if prepared.costed is not None:
            if sharded:
                relation = execute_scattered(
                    prepared.costed.plan,
                    index,
                    graph,
                    memo,
                    policy=ScatterPolicy(index, counters),
                    context=context,
                    source=source,
                )
            else:
                relation = execute(
                    prepared.costed.plan, index, graph, memo, deadline, source=source
                )
            used_fallback = False
        else:
            relation = _hybrid(
                push_inverse(prepared.node),
                index,
                graph,
                statistics,
                prepared.strategy,
                prepared.max_disjuncts,
                memo,
                counters,
                context,
                refused=True,
            )
            if source is not None:
                relation = rel.restrict_src(relation, source)
            used_fallback = True
    except QueryTimeoutError as error:
        if error.counters is None:
            error.counters = counters
        raise
    finished = time.perf_counter()
    failed = counters.failed if counters else 0
    return ExecutionReport(
        strategy=prepared.strategy,
        plan=prepared.costed,
        relation=relation,
        planning_seconds=prepared.planning_seconds,
        execution_seconds=finished - started,
        used_fallback=used_fallback,
        scan_memo_hits=memo.hits - hits_before,
        scan_memo_misses=memo.misses - misses_before,
        shards_scanned=counters.scanned if counters else 0,
        shards_pruned=counters.pruned if counters else 0,
        disjuncts_pruned=counters.disjuncts_pruned if counters else 0,
        shards_failed=failed,
        partial=failed > 0,
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

    The walk :func:`_hybrid` makes: an operand the rewriter accepts is
    planned through the index, one it refuses is descended into.
    """
    for operand in node.children():
        normal_form = _try_normalize(operand, graph, max_disjuncts)
        if normal_form is not None:
            yield operand, normal_form
        else:
            yield from planned_operands(operand, graph, max_disjuncts)


def _hybrid(
    node: Node,
    index: PathIndex,
    graph: Graph,
    statistics,
    strategy: Strategy,
    max_disjuncts: int,
    memo: ScanMemo | None = None,
    counters: ScatterCounters | None = None,
    context: RunContext | None = None,
    refused: bool = False,
) -> Relation:
    """Structural evaluation with planner acceleration on bounded parts.

    Recursion (``Star`` / open ``Repeat``) is closed with the
    condensation-based CSR engine (:mod:`repro.csr`, reached through
    :func:`repro.relation.transitive_fixpoint`); every intermediate is
    an array-backed :class:`~repro.relation.Relation`.  One
    :class:`ScanMemo` spans the whole traversal: repeated AST subtrees
    (the normalized ``(a|b)*`` shape repeats its base under every
    disjunct) and repeated plan subtrees inside bounded parts are each
    evaluated once.  ``counters`` likewise spans the traversal,
    summing the scatter decisions of every bounded subtree; ``context``
    threads the deadline into every structural step and closure loop.
    ``refused`` is set by a caller that has already seen the rewriter
    refuse ``node`` itself, so only its operands are offered to the
    planner.
    """
    if memo is None:
        memo = ScanMemo()
    if context is not None and context.deadline is not None:
        context.deadline.check()
    cached = memo.lookup_ast(node)
    if cached is not None:
        return cached
    rest = (index, graph, statistics, strategy, max_disjuncts, memo, counters, context)
    result = None if refused else _planned(node, *rest)
    if result is None:
        result = _structural(node, *rest)
    memo.store_ast(node, result)
    return result


def _planned(
    node: Node,
    index: PathIndex,
    graph: Graph,
    statistics,
    strategy: Strategy,
    max_disjuncts: int,
    memo: ScanMemo,
    counters: ScatterCounters | None,
    context: RunContext | None,
) -> Relation | None:
    """``node`` through the planner and the index, or ``None`` if it is refused."""
    normal_form = _try_normalize(node, graph, max_disjuncts)
    if normal_form is None:
        return None
    if _scatters(index):
        return execute_scattered(
            Planner(index.k, statistics, graph, strategy).plan(normal_form).plan,
            index,
            graph,
            memo,
            policy=ScatterPolicy(index, counters),
            context=context,
        )
    deadline = context.deadline if context is not None else None
    report = evaluate_normal_form(
        normal_form, index, graph, statistics, strategy, memo, deadline
    )
    return report.relation


def _structural(
    node: Node,
    index: PathIndex,
    graph: Graph,
    statistics,
    strategy: Strategy,
    max_disjuncts: int,
    memo: ScanMemo,
    counters: ScatterCounters | None,
    context: RunContext | None,
) -> Relation:
    """One step of structural recursion; operands go back through :func:`_hybrid`."""
    rest = (index, graph, statistics, strategy, max_disjuncts, memo, counters, context)
    deadline = context.deadline if context is not None else None
    if isinstance(node, Epsilon):
        return rel.identity(graph.node_ids())
    if isinstance(node, Label):
        return index.scan(_single_step_path(node))
    if isinstance(node, Inverse):
        return _hybrid(push_inverse(node), *rest)
    if isinstance(node, Concat):
        result = _hybrid(node.parts[0], *rest)
        for part in node.parts[1:]:
            if not result:
                return Relation.empty()
            result = rel.compose(result, _hybrid(part, *rest))
        return result
    if isinstance(node, Union):
        return rel.union(_hybrid(part, *rest) for part in node.parts)
    if isinstance(node, Star):
        parts = _closure_base_parts(node.child, *rest)
        return csr.partitioned_closure(
            graph.node_ids(), parts, low=0, deadline=deadline
        )
    if isinstance(node, Repeat):
        if node.high is None:
            parts = _closure_base_parts(node.child, *rest)
            return csr.partitioned_closure(
                graph.node_ids(), parts, low=node.low, deadline=deadline
            )
        base = _hybrid(node.child, *rest)
        return rel.bounded_powers(
            graph.node_ids(), base, node.low, node.high, deadline=deadline
        )
    raise RewriteError(f"unknown AST node {type(node).__name__}")


def _closure_base_parts(
    node: Node,
    index: PathIndex,
    graph: Graph,
    statistics,
    strategy: Strategy,
    max_disjuncts: int,
    memo: ScanMemo,
    counters: ScatterCounters | None,
    context: RunContext | None = None,
) -> list[Relation]:
    """The operand of a Kleene closure, as per-shard slices when possible.

    Scattering engines evaluate a bounded closure operand once per shard
    (the gather is subsumed by the closure's own merge —
    :func:`repro.csr.partitioned_closure`); the closure itself always
    runs globally, because recursive paths hop shards freely.  Pruned
    shards simply contribute no slice.  One shard — and any operand the
    planner cannot bound — keeps the single-relation path, memoized
    under the operand's AST node.
    """
    if _scatters(index):
        normal_form = _try_normalize(node, graph, max_disjuncts)
        if normal_form is not None:
            return scattered_parts(
                Planner(index.k, statistics, graph, strategy).plan(normal_form).plan,
                index,
                graph,
                memo,
                policy=ScatterPolicy(index, counters),
                context=context,
            )
    return [
        _hybrid(
            node,
            index,
            graph,
            statistics,
            strategy,
            max_disjuncts,
            memo,
            counters,
            context,
        )
    ]


def _single_step_path(node: Label):
    from repro.graph.graph import LabelPath

    return LabelPath((node.step,))
