"""Synthetic graph generators.

The paper evaluates on the Advogato trust network (6,541 nodes, 51,127
edges, three trust labels).  That dataset is not redistributable here,
so :func:`advogato_like` generates a *seeded synthetic stand-in* with
the two structural properties the evaluation depends on:

* a heavy-tailed (preferential-attachment) degree distribution, and
* a small label alphabet with skewed label frequencies
  (Advogato's ``master`` / ``journeyer`` / ``apprentice`` certifications).

All generators are deterministic given ``seed``.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.errors import ValidationError
from repro.graph.graph import Graph

#: Advogato's three certification levels and their approximate share of
#: edges in the real dataset (apprentice is rarest, journeyer most common).
ADVOGATO_LABELS: tuple[str, ...] = ("master", "journeyer", "apprentice")
ADVOGATO_LABEL_WEIGHTS: tuple[float, ...] = (0.30, 0.47, 0.23)

#: Real Advogato dimensions, for callers who want the full-size graph.
ADVOGATO_NODES = 6541
ADVOGATO_EDGES = 51127


def _node_name(index: int) -> str:
    return f"n{index}"


def _check_sizes(nodes: int, edges: int) -> None:
    if nodes <= 0:
        raise ValidationError(f"nodes must be positive, got {nodes}")
    if edges < 0:
        raise ValidationError(f"edges must be non-negative, got {edges}")


def _pick_labels(
    rng: random.Random,
    labels: Sequence[str],
    weights: Sequence[float] | None,
    count: int,
) -> list[str]:
    if not labels:
        raise ValidationError("at least one label is required")
    if weights is not None and len(weights) != len(labels):
        raise ValidationError("weights must parallel labels")
    return rng.choices(list(labels), weights=weights, k=count)


def advogato_like(
    nodes: int = 1000,
    edges: int = 8000,
    labels: Sequence[str] = ADVOGATO_LABELS,
    label_weights: Sequence[float] | None = ADVOGATO_LABEL_WEIGHTS,
    seed: int = 7,
) -> Graph:
    """A directed preferential-attachment graph with skewed labels.

    The default size (1,000 nodes / 8,000 edges) is a scaled-down
    Advogato so that a pure-Python k=3 index build finishes in seconds;
    pass ``nodes=ADVOGATO_NODES, edges=ADVOGATO_EDGES`` for full size.

    Construction: nodes arrive one at a time; each new node emits edges
    whose targets are drawn from a repeated-endpoints urn (classic
    Barabási–Albert preferential attachment), giving a heavy-tailed
    in-degree distribution like a real trust network.  A fraction of
    edges is rewired uniformly at random to keep the graph from being
    a pure DAG of arrival order.
    """
    _check_sizes(nodes, edges)
    rng = random.Random(seed)
    graph = Graph()
    for index in range(nodes):
        graph.add_node(_node_name(index))

    urn: list[int] = [0]
    edge_labels = _pick_labels(rng, labels, label_weights, edges)
    per_node = max(1, edges // max(nodes - 1, 1))
    made = 0
    attempts = 0
    max_attempts = edges * 20
    source_order: list[int] = list(range(1, nodes))
    while made < edges and attempts < max_attempts:
        attempts += 1
        if made // per_node < len(source_order):
            src = source_order[made // per_node]
        else:
            src = rng.randrange(nodes)
        if rng.random() < 0.15:
            tgt = rng.randrange(nodes)
        else:
            tgt = urn[rng.randrange(len(urn))]
        if tgt == src:
            continue
        label = edge_labels[made]
        if graph.add_edge(_node_name(src), label, _node_name(tgt)):
            urn.append(tgt)
            urn.append(src)
            made += 1
    return graph


#: Named :func:`advogato_like` sizes: name -> (nodes, edges).  "bench"
#: keeps a full Figure-2 sweep (8 queries x 4 methods x k=1..3) within
#: minutes of pure-Python time; "small" is for CI smoke runs.
SCALES: dict[str, tuple[int, int]] = {
    "small": (120, 600),
    "bench": (300, 1800),
    "medium": (1000, 8000),
    "full": (ADVOGATO_NODES, ADVOGATO_EDGES),
}


def erdos_renyi(
    nodes: int,
    edges: int,
    labels: Sequence[str] = ("a", "b"),
    label_weights: Sequence[float] | None = None,
    seed: int = 7,
    allow_self_loops: bool = False,
) -> Graph:
    """A uniform random directed multigraph G(n, m) with labeled edges."""
    _check_sizes(nodes, edges)
    rng = random.Random(seed)
    graph = Graph()
    for index in range(nodes):
        graph.add_node(_node_name(index))
    edge_labels = _pick_labels(rng, labels, label_weights, edges)
    made = 0
    attempts = 0
    max_attempts = edges * 50 + 100
    while made < edges and attempts < max_attempts:
        attempts += 1
        src = rng.randrange(nodes)
        tgt = rng.randrange(nodes)
        if src == tgt and not allow_self_loops:
            continue
        if graph.add_edge(_node_name(src), edge_labels[made], _node_name(tgt)):
            made += 1
    return graph


def chain(length: int, label: str = "next") -> Graph:
    """A directed path ``n0 -> n1 -> ... -> n(length)`` (length edges)."""
    if length < 1:
        raise ValidationError("chain length must be >= 1")
    graph = Graph()
    for index in range(length):
        graph.add_edge(_node_name(index), label, _node_name(index + 1))
    return graph


def cycle(length: int, label: str = "next") -> Graph:
    """A directed cycle of ``length`` nodes."""
    if length < 2:
        raise ValidationError("cycle length must be >= 2")
    graph = Graph()
    for index in range(length):
        graph.add_edge(_node_name(index), label, _node_name((index + 1) % length))
    return graph


def star(leaves: int, label: str = "to", outward: bool = True) -> Graph:
    """A star: hub connected to ``leaves`` leaf nodes."""
    if leaves < 1:
        raise ValidationError("a star needs at least one leaf")
    graph = Graph()
    for index in range(1, leaves + 1):
        if outward:
            graph.add_edge("hub", label, _node_name(index))
        else:
            graph.add_edge(_node_name(index), label, "hub")
    return graph


def grid(width: int, height: int, right: str = "right", down: str = "down") -> Graph:
    """A width×height grid with ``right`` and ``down`` labeled edges.

    Useful for queries whose answers are exactly the monotone lattice
    paths; the count of ``right{i}/down{j}`` answers is predictable.
    """
    if width < 1 or height < 1:
        raise ValidationError("grid dimensions must be >= 1")
    graph = Graph()

    def name(x: int, y: int) -> str:
        return f"c{x}_{y}"

    for y in range(height):
        for x in range(width):
            graph.add_node(name(x, y))
            if x + 1 < width:
                graph.add_edge(name(x, y), right, name(x + 1, y))
            if y + 1 < height:
                graph.add_edge(name(x, y), down, name(x, y + 1))
    return graph


def complete_bipartite(
    left: int, right: int, label: str = "to"
) -> Graph:
    """All edges from ``left`` source nodes to ``right`` target nodes."""
    if left < 1 or right < 1:
        raise ValidationError("both sides of a bipartite graph must be >= 1")
    graph = Graph()
    for i in range(left):
        for j in range(right):
            graph.add_edge(f"l{i}", label, f"r{j}")
    return graph


def balanced_tree(branching: int, depth: int, label: str = "child") -> Graph:
    """A rooted tree where every internal node has ``branching`` children."""
    if branching < 1 or depth < 0:
        raise ValidationError("branching must be >= 1 and depth >= 0")
    graph = Graph()
    graph.add_node("t0")
    frontier = ["t0"]
    counter = 1
    for _ in range(depth):
        next_frontier: list[str] = []
        for parent in frontier:
            for _ in range(branching):
                child = f"t{counter}"
                counter += 1
                graph.add_edge(parent, label, child)
                next_frontier.append(child)
        frontier = next_frontier
    return graph


def layered_random(
    layers: int,
    width: int,
    labels: Sequence[str],
    density: float = 0.3,
    seed: int = 7,
) -> Graph:
    """A layered DAG: each consecutive layer pair gets random edges.

    Handy for benchmarks where concatenation length correlates with the
    number of layers a query must cross.
    """
    if layers < 2 or width < 1:
        raise ValidationError("need at least 2 layers of width >= 1")
    if not 0.0 <= density <= 1.0:
        raise ValidationError("density must be within [0, 1]")
    rng = random.Random(seed)
    graph = Graph()
    for layer in range(layers):
        for slot in range(width):
            graph.add_node(f"v{layer}_{slot}")
    label_list = list(labels)
    for layer in range(layers - 1):
        for src_slot in range(width):
            for tgt_slot in range(width):
                if rng.random() < density:
                    graph.add_edge(
                        f"v{layer}_{src_slot}",
                        rng.choice(label_list),
                        f"v{layer + 1}_{tgt_slot}",
                    )
    return graph
