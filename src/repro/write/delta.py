"""Sharded delta patching: turn a commit group into per-shard index edits.

The demo paper builds ``I_{G,k}`` once per graph and leaves maintaining
it under edge insertions and deletions open.  This module maintains it
with a localized delta (:func:`edge_delta` — ``A x B`` pairs per edge
and path position, at a cost proportional to the affected
neighborhoods rather than the graph) over the sharded engine
(:mod:`repro.sharding` — entries partitioned by path start): a whole
commit group becomes one small set of per-path column edits per shard
it reaches.

Two phases:

* :func:`stage_group` applies every mutation of the group to the graph
  (in order), collecting per-path *dirty pairs* — the union of each
  graph-changing mutation's :func:`edge_delta`,
  evaluated post-insert for additions and pre-delete for removals —
  plus the endpoints of those mutations (all the index needs to size
  ``|paths_k(G)|`` locally when it is next read, without recounting
  the graph).  Why the union
  of deltas is a superset of every membership change across the group:
  take any pair whose membership of path ``p`` differs between the
  group's initial and final graph.  If it became *present*, its final witness exists;
  let ``e`` be the witness edge whose last graph-changing touch is
  latest — at that touch (an add) every other witness edge already has
  its final, present state, so the witness is intact and the pair is
  in ``e``'s delta.  If it became *absent*, take any initial witness;
  its first-changed edge is a removal (a change to a present edge is a
  removal), and at that pre-delete moment the witness is still intact.
  No-op mutations change no witnesses and are correctly skipped.

* :func:`resolve_patch` then decides each dirty pair *against the
  final graph* (bounded ``path_targets`` search) and routes it to the
  shard owning its start vertex: present pairs become idempotent
  inserts, absent ones idempotent deletes.  Because every changed pair
  is dirty and every dirty pair is set to its final truth, patching is
  exactly equivalent to a rebuild — the property tests pin this
  against the shards=1 oracle.

A group reaches the index one of two ways: it is patched, or every
shard is rebuilt in place.  Staging falls back to the rebuild (returns
a non-``None`` ``fallback``) when the label alphabet changed (the
per-shard path sets themselves are stale), or when the dirty-pair
count passed :data:`MAX_DIRTY_PAIRS` (pair-at-a-time patching would
cost more than the rebuild).  Every backend takes the patch; there is
no switch that turns it off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.graph import Graph, LabelPath
from repro.write.mutation import MutationBatch

Pair = tuple[int, int]

#: Per-shard patch: encoded path -> (pairs to insert, pairs to delete).
ShardPatch = dict[str, tuple[list[Pair], list[Pair]]]

#: Dirty-pair budget per commit group; past it the delta is deemed
#: non-local and the group falls back to the rebuild of every shard.  Read at
#: every :func:`stage_group` call, so 0 forces the fallback.
MAX_DIRTY_PAIRS = 20_000


def path_targets(graph: Graph, source: int, path: LabelPath) -> set[int]:
    """Frontier expansion: all targets of ``path`` from ``source``."""
    frontier = {source}
    for step in path:
        if not frontier:
            break
        next_frontier: set[int] = set()
        for node in frontier:
            next_frontier.update(graph.step_neighbors(node, step))
        frontier = next_frontier
    return frontier


def edge_delta(
    graph: Graph, path: LabelPath, label: str, source: int, target: int
) -> set[Pair]:
    """Pairs of ``path`` with a witness through the ``(source, target)``
    edge labelled ``label``, evaluated on the graph as given.

    For every position ``i`` of ``path = s_1 ... s_m`` whose step
    matches the edge (forward ``l`` or inverse ``l⁻``), the pairs are
    ``A × B``: ``A`` the nodes reaching the edge's entry point via the
    inverted prefix ``(s_1..s_{i-1})⁻``, ``B`` the nodes reachable from
    its exit point via the suffix ``s_{i+1}..s_m``, both by
    depth-bounded frontier expansion.  For an insertion call it on the
    post-insert graph (the result is exactly the new pairs — every new
    pair has a witness through the new edge at some position); for a
    deletion call it pre-delete (the result is the candidate set to
    re-check once the edge is gone, since a candidate may have
    surviving witnesses elsewhere).
    """
    delta: set[Pair] = set()
    for position, step in enumerate(path.steps):
        if step.label != label:
            continue
        entry, exit_ = (source, target) if not step.inverse else (target, source)
        if position > 0:
            prefix = path.prefix(position).inverted()
            left = path_targets(graph, entry, prefix)
        else:
            left = {entry}
        if not left:
            continue
        if position + 1 < len(path):
            suffix = path.subpath(position + 1, len(path))
            right = path_targets(graph, exit_, suffix)
        else:
            right = {exit_}
        for a in left:
            for b in right:
                delta.add((a, b))
    return delta


@dataclass(slots=True)
class StagedGroup:
    """Outcome of applying one commit group to the graph."""

    #: Per-batch ``(applied, noops)`` counts, in group order.
    batch_counts: list[tuple[int, int]] = field(default_factory=list)
    #: Encoded path -> dirty pairs (meaningful only when ``fallback``
    #: is ``None``).
    dirty: dict[str, set[Pair]] = field(default_factory=dict)
    #: ``None`` (patchable), ``"alphabet"`` or ``"overflow"``.
    fallback: str | None = None
    #: Node ids at either end of every graph-changing mutation: what
    #: the index records to size ``|paths_k(G)|`` locally on its next
    #: read (:meth:`repro.sharding.ShardedGraph.invalidate_statistics`).
    endpoints: set[int] = field(default_factory=set)

    @property
    def changed(self) -> bool:
        return any(applied for applied, _ in self.batch_counts)


def stage_group(
    graph: Graph,
    batches: list[MutationBatch],
    paths: list[LabelPath],
) -> StagedGroup:
    """Apply ``batches`` to ``graph`` in order; collect the group delta.

    ``paths`` is the indexed path enumeration over the *pre-group*
    alphabet.  The graph is mutated unconditionally — on fallback the
    caller rebuilds from it; there is no path that leaves the group
    half-applied.
    """
    staged = StagedGroup()
    budget = MAX_DIRTY_PAIRS
    for batch in batches:
        applied = 0
        noops = 0
        for mutation in batch:
            adding = mutation.kind == "add"
            new_label = adding and mutation.label not in graph.labels()
            if adding:
                changed = mutation.apply_to(graph)
            else:
                changed = graph.has_edge(
                    mutation.source, mutation.label, mutation.target
                )
            if not changed:
                noops += 1
                continue
            applied += 1
            source = graph.node_id(mutation.source)
            target = graph.node_id(mutation.target)
            staged.endpoints.update((source, target))
            if new_label:
                staged.fallback = "alphabet"
            if staged.fallback is None:
                # An addition's delta on the post-insert graph; a
                # removal's candidates on the pre-delete graph, where the
                # witnesses being retracted still run through the edge.
                budget = _collect(
                    graph, paths, mutation, source, target, staged, budget
                )
            if not adding:
                mutation.apply_to(graph)
                if mutation.label not in graph.labels():
                    staged.fallback = "alphabet"
        staged.batch_counts.append((applied, noops))
    return staged


def _collect(
    graph: Graph,
    paths: list[LabelPath],
    mutation,
    source: int,
    target: int,
    staged: StagedGroup,
    budget: int,
) -> int:
    """Fold one edge's per-path deltas into the staged dirty set."""
    for path in paths:
        delta = edge_delta(graph, path, mutation.label, source, target)
        if not delta:
            continue
        bucket = staged.dirty.setdefault(path.encode(), set())
        before = len(bucket)
        bucket.update(delta)
        budget -= len(bucket) - before
        if budget < 0:
            staged.fallback = "overflow"
            return budget
    return budget


def resolve_patch(
    graph: Graph, index, dirty: dict[str, set[Pair]]
) -> dict[int, ShardPatch]:
    """Decide every dirty pair against the final graph; route per shard.

    A pair present in the final graph becomes an (idempotent) insert
    into the shard owning its start vertex; an absent one an
    (idempotent) delete.  Shards with no decided pairs are absent from
    the result.
    """
    per_shard: dict[int, ShardPatch] = {}
    for encoded, pairs in dirty.items():
        path = LabelPath.decode(encoded)
        for pair in sorted(pairs):
            present = pair[1] in path_targets(graph, pair[0], path)
            shard = index.owner(pair[0])
            adds, removes = per_shard.setdefault(shard, {}).setdefault(
                encoded, ([], [])
            )
            (adds if present else removes).append(pair)
    return per_shard
