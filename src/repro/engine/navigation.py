"""Single-source and boolean query evaluation over the k-path index.

The demo paper's Example 3.1 shows the index answering three lookup
shapes: all pairs ``I(p)``, single source ``I(p, a)``, and membership
``I(p, a, b)``.  The all-pairs engine lives in
:mod:`repro.engine.executor`; this module implements the other two for
full RPQs:

* :func:`evaluate_from` — all targets reachable from one source node,
  by frontier expansion over length-≤k index lookups (each hop is one
  ``I(p, a)`` lookup per frontier node);
* :func:`evaluate_pair` — a boolean check, answered by a single
  ``I(p, a, b)`` membership probe per short disjunct and a frontier
  expansion only when some disjunct is longer than k.

Unbounded recursion falls back to a BFS over the (index-computed) base
relation, mirroring the all-pairs executor's fixpoint fallback.
"""

from __future__ import annotations

from collections import deque

from repro.engine.executor import _hybrid, _try_normalize
from repro.engine.planner import Strategy
from repro.graph.graph import Graph, LabelPath
from repro.indexes.pathindex import PathIndex
from repro.rpq.ast import Node
from repro.rpq.rewrite import DEFAULT_MAX_DISJUNCTS, push_inverse


def _chunks(path: LabelPath, k: int) -> list[LabelPath]:
    return [
        path.subpath(offset, min(offset + k, len(path)))
        for offset in range(0, len(path), k)
    ]


def _expand_frontier(
    index: PathIndex, chunk: LabelPath, frontier: set[int]
) -> set[int]:
    result: set[int] = set()
    for node in frontier:
        result.update(index.scan_from(chunk, node))
    return result


def targets_of_path(
    index: PathIndex, path: LabelPath, source: int
) -> set[int]:
    """All ``t`` with ``(source, t) ∈ path(G)``, via chunked lookups."""
    frontier = {source}
    for chunk in _chunks(path, index.k):
        if not frontier:
            return set()
        frontier = _expand_frontier(index, chunk, frontier)
    return frontier


def evaluate_from(
    node: Node,
    source: int,
    index: PathIndex,
    graph: Graph,
    statistics,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
) -> set[int]:
    """All targets ``t`` such that ``(source, t)`` answers the query."""
    normal_form = _try_normalize(node, graph, max_disjuncts)
    if normal_form is not None:
        targets: set[int] = set()
        if normal_form.has_epsilon:
            targets.add(source)
        for path in normal_form.paths:
            targets |= targets_of_path(index, path, source)
        return targets
    # Fallback for queries whose expansion is too large: compute the
    # base relation(s) through the hybrid evaluator, then restrict.
    relation = _hybrid(
        push_inverse(node), index, graph, statistics,
        Strategy.MIN_SUPPORT, max_disjuncts, refused=True,
    )
    return {target for src, target in relation if src == source}


def evaluate_pair(
    node: Node,
    source: int,
    target: int,
    index: PathIndex,
    graph: Graph,
    statistics,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
) -> bool:
    """Does ``(source, target)`` satisfy the query?

    Disjuncts of length <= k are answered with a single membership
    probe; longer disjuncts use a frontier expansion from the source
    with an early exit as soon as the target is produced.
    """
    normal_form = _try_normalize(node, graph, max_disjuncts)
    if normal_form is None:
        return target in evaluate_from(
            node, source, index, graph, statistics, max_disjuncts
        )
    if normal_form.has_epsilon and source == target:
        return True
    long_paths: list[LabelPath] = []
    for path in normal_form.paths:
        if len(path) <= index.k:
            if index.contains(path, source, target):
                return True
        else:
            long_paths.append(path)
    for path in long_paths:
        if _pair_by_frontier(index, path, source, target):
            return True
    return False


def _pair_by_frontier(
    index: PathIndex, path: LabelPath, source: int, target: int
) -> bool:
    chunks = _chunks(path, index.k)
    frontier = {source}
    for position, chunk in enumerate(chunks):
        last = position == len(chunks) - 1
        if last:
            # Final hop: membership probes beat materializing targets.
            return any(
                index.contains(chunk, node, target) for node in frontier
            )
        frontier = _expand_frontier(index, chunk, frontier)
        if not frontier:
            return False
    return False


def breadth_first_targets(
    graph: Graph, base: set[tuple[int, int]], source: int, reflexive: bool
) -> set[int]:
    """BFS over an arbitrary base relation (fixpoint single-source)."""
    adjacency: dict[int, list[int]] = {}
    for src, tgt in base:
        adjacency.setdefault(src, []).append(tgt)
    seen: set[int] = set()
    queue = deque(adjacency.get(source, ()))
    while queue:
        node = queue.popleft()
        if node not in seen:
            seen.add(node)
            queue.extend(adjacency.get(node, ()))
    if reflexive:
        seen.add(source)
    return seen
