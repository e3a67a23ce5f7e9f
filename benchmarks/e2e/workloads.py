"""Seeded inputs for the end-to-end benchmark.

Everything the program under test receives comes from here as plain
data — ``(source, label, target)`` triples, query strings and
``(kind, source, label, target)`` mutation tuples — and nothing here
imports :mod:`repro`, so moving or rewriting the package's own
generators cannot change what is measured.

What is fixed and what the seed decides matters for repeatability: the
driver compares runs made with different seeds, so the *cost shape*
(degree sequence, label counts, query pool, its skew and its order) is
fixed and the seed decides the wiring and the mutation stream.
"""

from __future__ import annotations

import random

Edge = tuple[str, str, str]

#: Three trust labels with Advogato's skew (journeyer-like most common).
LABELS = ("a", "b", "c")
LABEL_WEIGHTS = (0.47, 0.30, 0.23)


def _apportion(weights: list[float], total: int) -> list[int]:
    """Whole numbers proportional to ``weights`` summing to ``total``."""
    scale = total / sum(weights)
    exact = [weight * scale for weight in weights]
    counts = [int(value) for value in exact]
    by_remainder = sorted(
        range(len(exact)), key=lambda i: exact[i] - counts[i], reverse=True
    )
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def trust_graph(nodes: int, out_degree: int, seed: int) -> list[Edge]:
    """An Advogato-like edge list: heavy-tailed in-degrees, skewed labels.

    Each label is wired on its own.  Its edges are shared out evenly
    over the sources and over the targets in proportion to
    ``(rank + 1) ** -0.5`` — the rank/degree law preferential
    attachment converges to — so every node's in- and out-degree *per
    label* is the same for every seed, and with them the number of
    witnesses of every label path.  The seed decides who is wired to
    whom.  A graph grown edge by edge would move the join sizes, and so
    every latency, by several percent from seed to seed; runs with
    different seeds are compared, so that would read as noise.
    """
    rng = random.Random(seed)
    edge_count = nodes * out_degree
    edges: list[Edge] = []
    per_label = _apportion(list(LABEL_WEIGHTS), edge_count)
    for label, label_edges in zip(LABELS, per_label):
        out_degrees = _apportion([1.0] * nodes, label_edges)
        in_degrees = _apportion(
            [(rank + 1) ** -0.5 for rank in range(nodes)], label_edges
        )
        sources = [n for n, degree in enumerate(out_degrees) for _ in range(degree)]
        targets = [n for n, degree in enumerate(in_degrees) for _ in range(degree)]
        rng.shuffle(targets)
        seen: set[tuple[int, int]] = set()
        for position, source in enumerate(sources):
            # A self-loop or repeated pair trades its target with a later
            # position, which keeps every degree exactly as apportioned.
            for _ in range(64):
                pair = (source, targets[position])
                if pair[0] != pair[1] and pair not in seen:
                    seen.add(pair)
                    edges.append((f"n{pair[0]}", label, f"n{pair[1]}"))
                    break
                if position + 1 == label_edges:
                    break
                other = rng.randrange(position + 1, label_edges)
                targets[position], targets[other] = targets[other], targets[position]
    return edges


def write_edge_list(edges: list[Edge], path) -> None:
    """The tab-separated file ``repro serve --graph`` and ``from_file`` read."""
    with open(path, "w", encoding="utf-8") as handle:
        for source, label, target in edges:
            handle.write(f"{source}\t{label}\t{target}\n")


#: Two- and three-step label paths, inverse steps and bounded repeats,
#: most-requested first.  Parse/plan, B+tree scans and the join/union
#: kernels do the work; nothing here recurses without bound.
JOIN_POOL = (
    "a/b",
    "b/a",
    "a/a",
    "a/c",
    "b/^a",
    "^a/b",
    "c/a",
    "a/b/c",
    "b/b",
    "a/^b",
    "c/b",
    "b/^a/c",
    "^b/a",
    "a{1,2}",
    "b/c",
    "a/a/b",
    "^a/c",
    "c/^a",
    "b/a/a",
    "c/c",
    "a/^c",
    "(a|b)/c",
    "^c/a",
    "c/a/b",
    "b{1,2}",
    "a/b/^a",
    "^b/c",
    "b/c/a",
    "a/(b|c)",
    "c/^b",
    "^a/b/c",
    "a{1,3}",
    "b/^c",
    "c/b/a",
    "^c/b",
    "a/c/^b",
    "c{1,3}",
    "^b/^a",
    "b/a/^c",
    "(a|c)/b",
)

#: Recursive shapes whose answers are 10^4-10^5 pairs: the CSR closure,
#: union/dedup and id->name decode of a large answer dominate.
CLOSURE_POOL = (
    "(a|b)*",
    "a*",
    "a/b*",
    "(a/b)+",
    "(a|c)*",
    "b*",
    "c/a*",
    "(b|c)+",
    "b/(a|c)*",
    "(a|b|c)*",
    "a+",
    "(b/a)+",
)


def query_cycle(pool: tuple[str, ...], length: int) -> list[str]:
    """A fixed cycle in which ``pool[r]`` appears ``~ 1/(r+1)`` of the time.

    Every pool query appears at least once.  Counts and order are the
    same for every seed, so the mix does not move with the seed or with
    how fast the program is.  The order matters because what a query
    costs depends on what ran before it (where the garbage collector's
    full passes fall, what the allocator has free): reshuffled per seed,
    the same query on same-sized answers took 3.3 ms on one seed and
    5.8 ms on another, and the median of the mix moved by a tenth.
    """
    spare = length - len(pool)
    extra = _apportion([1.0 / (rank + 1) for rank in range(len(pool))], spare)
    cycle = [query for query, count in zip(pool, extra) for _ in range(1 + count)]
    random.Random(0).shuffle(cycle)
    return cycle


def mutation_batches(
    edges: list[Edge], count: int, seed: int
) -> list[list[tuple[str, str, str, str]]]:
    """``count`` batches, each one edge added and one original edge removed.

    Additions join two existing nodes with an existing label (no
    vocabulary change, which would force a full rebuild).  Every triple
    in the stream is distinct and additions avoid the original edges,
    so no mutation is a no-op and the final graph is the same whatever
    order concurrent clients apply their share of the batches in.
    """
    rng = random.Random(seed)
    names = sorted({edge[0] for edge in edges} | {edge[2] for edge in edges})
    taken = set(edges)
    removable = rng.sample(edges, count)
    batches = []
    for removed in removable:
        while True:
            added = (rng.choice(names), rng.choice(LABELS), rng.choice(names))
            if added[0] != added[2] and added not in taken:
                break
        taken.add(added)
        batches.append([("add", *added), ("remove", *removed)])
    return batches
