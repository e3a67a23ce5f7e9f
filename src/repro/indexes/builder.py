"""Enumerating label paths and materializing their relations.

The k-path index ``I_{G,k}`` (Section 3.1) contains one entry
``(p, a, b)`` for every label path ``p`` of length 1..k over the step
alphabet ``{l, l⁻}`` and every pair ``(a, b) ∈ p(G)``.

The builder walks the prefix trie of label paths depth-first, computing
each path's relation from its parent's by one relational composition
(``p·s (G) = p(G) ∘ s(G)``), so only ``k`` relations are alive at any
moment.  Subtrees rooted at an empty relation are pruned — every
extension of an empty path is empty — but the empty path itself is
still *reported* with count 0 so the statistics layer knows it exists.
"""

from __future__ import annotations

from array import array
from typing import Container, Iterator, Mapping

from repro import relation as rel
from repro.errors import ValidationError
from repro.graph.graph import Graph, LabelPath, Step
from repro.relation import Order, Relation

Pair = tuple[int, int]


def enumerate_label_paths(labels: tuple[str, ...], k: int) -> list[LabelPath]:
    """All step sequences of length 1..k, in trie (DFS) order.

    There are ``(2|L|)^1 + ... + (2|L|)^k`` of them; this enumerates
    syntax only and touches no graph data.
    """
    _check_k(k)
    steps = _sorted_steps(labels)
    result: list[LabelPath] = []

    def extend(prefix: tuple[Step, ...]) -> None:
        for step in steps:
            path = prefix + (step,)
            result.append(LabelPath(path))
            if len(path) < k:
                extend(path)

    extend(())
    return result


def count_label_paths(label_count: int, k: int) -> int:
    """Closed form for ``len(enumerate_label_paths(...))``."""
    _check_k(k)
    alphabet = 2 * label_count
    return sum(alphabet**length for length in range(1, k + 1))


def path_relations(
    graph: Graph,
    k: int,
    prune_empty: bool = True,
    sources: Container[int] | None = None,
) -> Iterator[tuple[LabelPath, list[Pair]]]:
    """Yield ``(path, sorted relation)`` for every label path up to k.

    Paths appear in DFS (trie) order, so a path's prefix always appears
    before it.  With ``prune_empty`` (the default), a path with an empty
    relation is yielded once (empty list) and its extensions skipped.

    ``sources`` restricts every relation to pairs whose *first*
    component (the path's start vertex) is in the container — the
    partition a shard of :class:`repro.sharding.ShardedGraph` owns.
    Only the first step needs filtering: composition extends paths on
    the right, so the start vertex of every pair is inherited from the
    first step's pairs.
    """
    _check_k(k)
    steps = _sorted_steps(graph.labels())
    step_adjacency = {step: _adjacency(graph, step) for step in steps}

    def expand(
        prefix: tuple[Step, ...], relation: set[Pair]
    ) -> Iterator[tuple[LabelPath, list[Pair]]]:
        for step in steps:
            path_steps = prefix + (step,)
            if prefix:
                extended = _compose_with_step(relation, step_adjacency[step])
            else:
                extended = set(graph.step_pairs(step))
                if sources is not None:
                    extended = {pair for pair in extended if pair[0] in sources}
            yield LabelPath(path_steps), sorted(extended)
            if len(path_steps) < k:
                if extended or not prune_empty:
                    yield from expand(path_steps, extended)

    yield from expand((), set())


def path_relations_columnar(
    graph: Graph,
    k: int,
    prune_empty: bool = True,
    sources: Container[int] | None = None,
) -> Iterator[tuple[LabelPath, Relation]]:
    """Columnar twin of :func:`path_relations`: yields ``Relation`` values.

    Same trie order, same pruning, same optional ``sources`` restriction
    — but every relation is a ``BY_SRC``-sorted columnar
    :class:`~repro.relation.Relation` and each extension is one
    :func:`repro.relation.compose` call (packed-key / numpy kernels)
    instead of a tuple-set loop.  This is the one index builder: every
    shard of :meth:`repro.sharding.ShardedGraph.build` and
    :meth:`repro.indexes.pathindex.PathIndex.build` load from it, and
    :func:`path_relations` stays only as the tuple-set oracle the tests
    hold it against.
    """
    _check_k(k)
    steps = _sorted_steps(graph.labels())
    step_relations = {
        step: rel.dedup_sort(Relation.from_pairs(graph.step_pairs(step)), Order.BY_SRC)
        for step in steps
    }
    if sources is None:
        first_relations = step_relations
    else:
        first_relations = {
            step: _restrict_sources(relation, sources)
            for step, relation in step_relations.items()
        }

    def expand(
        prefix: tuple[Step, ...], relation: Relation | None
    ) -> Iterator[tuple[LabelPath, Relation]]:
        for step in steps:
            path_steps = prefix + (step,)
            if relation is None:
                extended = first_relations[step]
            else:
                extended = rel.compose(relation, step_relations[step])
                if extended.order is not Order.BY_SRC:
                    extended = rel.dedup_sort(extended, Order.BY_SRC)
            yield LabelPath(path_steps), extended
            if len(path_steps) < k:
                if len(extended) or not prune_empty:
                    yield from expand(path_steps, extended)

    yield from expand((), None)


def cataloged_counts(
    counts: Mapping[str, int],
    labels: tuple[str, ...],
    k: int,
    prune_empty: bool = True,
) -> dict[str, int]:
    """The catalog a fresh build reports for relations of these sizes.

    ``counts`` maps encoded path -> ``|p(G)|`` and may leave empty
    paths out or carry them with count 0.  The result lists, in trie
    order, exactly the paths :func:`path_relations_columnar` yields
    over ``labels``: with ``prune_empty`` an empty path is listed once
    (count 0) and its extensions are not.  A patched index reports its
    catalog through this function too, so which *empty* paths the
    statistics layer sees never depends on the history that led to the
    counts.
    """
    _check_k(k)
    steps = [step.encode() for step in _sorted_steps(labels)]
    listed: dict[str, int] = {}

    def extend(prefix: str, length: int) -> None:
        for step in steps:
            encoded = prefix + step
            count = counts.get(encoded, 0)
            listed[encoded] = count
            if length < k and (count or not prune_empty):
                extend(encoded + ".", length + 1)

    extend("", 1)
    return listed


def _restrict_sources(relation: Relation, sources: Container[int]) -> Relation:
    """Rows of a ``BY_SRC`` relation whose source is in ``sources``.

    Order is preserved (filtering a sorted column keeps it sorted).
    When ``sources`` exposes a vectorized membership test
    (:meth:`repro.sharding.ShardMembership.mask`), the filter is one
    numpy boolean gather instead of a per-row loop.
    """
    if not len(relation):
        return Relation.empty(Order.BY_SRC)
    mask_of = getattr(sources, "mask", None)
    numpy = rel._np if not rel._FORCE_PURE_PYTHON else None
    if mask_of is not None and numpy is not None and len(relation) >= rel._VECTOR_MIN:
        mask = mask_of(rel._view(relation.src))
        return Relation(
            rel._column(rel._view(relation.src)[mask]),
            rel._column(rel._view(relation.tgt)[mask]),
            Order.BY_SRC,
        )
    src = array("q")
    tgt = array("q")
    relation_src, relation_tgt = relation.src, relation.tgt
    for i, source in enumerate(relation_src):
        if source in sources:
            src.append(source)
            tgt.append(relation_tgt[i])
    return Relation(src, tgt, Order.BY_SRC)


def _adjacency(graph: Graph, step: Step) -> dict[int, list[int]]:
    """source -> targets adjacency of one step relation."""
    adjacency: dict[int, list[int]] = {}
    for source, target in graph.step_pairs(step):
        adjacency.setdefault(source, []).append(target)
    return adjacency


def _compose_with_step(
    relation: set[Pair], adjacency: dict[int, list[int]]
) -> set[Pair]:
    result: set[Pair] = set()
    for source, mid in relation:
        targets = adjacency.get(mid)
        if targets:
            for target in targets:
                result.add((source, target))
    return result


def estimate_index_entries(graph: Graph, k: int) -> int:
    """Total number of index entries ``|I_{G,k}|`` (builds nothing kept)."""
    return sum(len(pairs) for _, pairs in path_relations(graph, k))


def path_counts(graph: Graph, k: int) -> dict[str, int]:
    """Map encoded path -> ``|p(G)|`` for every enumerated path."""
    return {path.encode(): len(pairs) for path, pairs in path_relations(graph, k)}


def _sorted_steps(labels: tuple[str, ...]) -> tuple[Step, ...]:
    steps = [Step(label) for label in labels]
    steps += [Step(label, inverse=True) for label in labels]
    return tuple(sorted(steps, key=lambda step: step.encode()))


def _check_k(k: int) -> None:
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
