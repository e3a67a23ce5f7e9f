"""Graph statistics, including the paper's ``paths_k`` machinery.

Section 2.1 defines an *i-path* as a sequence of edges traversed in
either direction, and ``paths_k(G)`` as all node pairs ``(s, t)``
connected by an i-path for some ``i <= k`` — including every ``(s, s)``
via the 0-path.  ``|paths_k(G)|`` is the denominator of the paper's
selectivity function ``sel_{G,k}``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Iterator

from repro.errors import ValidationError
from repro.graph.graph import Graph


def label_frequencies(graph: Graph) -> dict[str, int]:
    """Number of edges per label."""
    return {label: graph.label_edge_count(label) for label in graph.labels()}


@dataclass(frozen=True, slots=True)
class DegreeSummary:
    """Min / max / mean of a degree distribution."""

    minimum: int
    maximum: int
    mean: float


def out_degree_summary(graph: Graph) -> DegreeSummary:
    """Summary of total out-degrees over all nodes."""
    return _summarize(graph.degree_out(node) for node in graph.node_ids())


def in_degree_summary(graph: Graph) -> DegreeSummary:
    """Summary of total in-degrees over all nodes."""
    return _summarize(graph.degree_in(node) for node in graph.node_ids())


def _summarize(values: Iterator[int]) -> DegreeSummary:
    values = list(values)
    if not values:
        return DegreeSummary(0, 0, 0.0)
    return DegreeSummary(min(values), max(values), sum(values) / len(values))


def degree_histogram(graph: Graph, direction: str = "out") -> dict[int, int]:
    """Map degree -> number of nodes with that degree."""
    if direction == "out":
        degrees = (graph.degree_out(node) for node in graph.node_ids())
    elif direction == "in":
        degrees = (graph.degree_in(node) for node in graph.node_ids())
    else:
        raise ValidationError(f"direction must be 'out' or 'in', got {direction!r}")
    return dict(Counter(degrees))


def _ball(
    neighbors: Callable[[int], set[int]], centers: Iterable[int], radius: int
) -> set[int]:
    """Nodes within ``radius`` undirected hops of any of ``centers``.

    Level-by-level BFS; each level is one C-level union of the
    frontier's neighbor sets.  ``neighbors`` is
    :meth:`Graph.undirected_neighbors`; a caller growing many balls
    passes it memoized, so that a node's set is built once however
    many balls reach it.
    """
    seen = set(centers)
    frontier = seen
    for _ in range(radius):
        frontier = set().union(*map(neighbors, frontier)) - seen
        if not frontier:
            break
        seen |= frontier
    return seen


def paths_k_from(graph: Graph, source: int, k: int) -> set[int]:
    """All targets ``t`` with an i-path from ``source`` for some i <= k.

    Implemented as a depth-bounded BFS over the *undirected* step graph
    (any label, either direction), per the paper's i-path definition.
    The source itself is always included (the 0-path).
    """
    if k < 0:
        raise ValidationError(f"k must be non-negative, got {k}")
    return _ball(graph.undirected_neighbors, (source,), k)


def paths_k_sizes(
    graph: Graph, k: int, around: Iterable[int] | None = None
) -> dict[int, int]:
    """``|paths_k_from(graph, s, k)|`` per source ``s``.

    ``around=None`` sizes every node; their sum is ``|paths_k(G)|``.
    Otherwise ``around`` holds the endpoints of every edge the graph
    gained or lost since the sizes were last taken, and only the
    sources whose size can have moved are sized: those within ``k - 1``
    undirected hops of ``around`` in the graph as it is *now*.  That is
    enough because a path of at most ``k`` hops that crosses a changed
    edge reaches it over a changed-edge-free prefix of at most
    ``k - 1`` hops, and such a prefix exists before and after the
    change alike.
    """
    if k < 0:
        raise ValidationError(f"k must be non-negative, got {k}")
    neighbors = cache(graph.undirected_neighbors)
    sources = graph.node_ids() if around is None else _ball(neighbors, around, k - 1)
    return {source: len(_ball(neighbors, (source,), k)) for source in sources}


def count_paths_k(graph: Graph, k: int) -> int:
    """``|paths_k(G)|``: the number of pairs within i-path distance <= k.

    This is the selectivity denominator of Section 3.2.  Every ``(s, s)``
    pair counts (0-paths), so the result is at least ``node_count``.
    """
    return sum(paths_k_sizes(graph, k).values())


def paths_k_pairs(graph: Graph, k: int) -> Iterator[tuple[int, int]]:
    """Iterate the pairs counted by :func:`count_paths_k` (small graphs)."""
    for node in graph.node_ids():
        for target in sorted(paths_k_from(graph, node, k)):
            yield node, target


def star_bound(graph: Graph) -> int:
    """The ``n(G)`` of Section 2.2: a bound such that R* = R^{0,n(G)}.

    If ``(a, b)`` is in ``R^m`` for some ``m >= 1`` then ``a`` reaches
    ``b`` in the digraph whose edges are the pairs of ``R(G)``; the
    shortest such walk visits no node twice, so length ``<= |V| - 1``
    always suffices.
    """
    return max(graph.node_count - 1, 0)


@dataclass(frozen=True, slots=True)
class GraphSummary:
    """A one-look description of a graph, used by the CLI and reports."""

    nodes: int
    edges: int
    labels: tuple[str, ...]
    label_counts: dict[str, int]
    out_degrees: DegreeSummary
    in_degrees: DegreeSummary

    def format(self) -> str:
        lines = [
            f"nodes:  {self.nodes}",
            f"edges:  {self.edges}",
            f"labels: {', '.join(self.labels) or '(none)'}",
        ]
        for label in self.labels:
            lines.append(f"  {label}: {self.label_counts[label]}")
        lines.append(
            "out-degree: min=%d max=%d mean=%.2f"
            % (self.out_degrees.minimum, self.out_degrees.maximum, self.out_degrees.mean)
        )
        lines.append(
            "in-degree:  min=%d max=%d mean=%.2f"
            % (self.in_degrees.minimum, self.in_degrees.maximum, self.in_degrees.mean)
        )
        return "\n".join(lines)


def summarize(graph: Graph) -> GraphSummary:
    """Compute a :class:`GraphSummary` for ``graph``."""
    return GraphSummary(
        nodes=graph.node_count,
        edges=graph.edge_count,
        labels=graph.labels(),
        label_counts=label_frequencies(graph),
        out_degrees=out_degree_summary(graph),
        in_degrees=in_degree_summary(graph),
    )
