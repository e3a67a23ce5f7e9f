"""Prepared benchmark fixtures: graphs with indexes at several k.

The paper's evaluation graph is Advogato (6,541 nodes / 51,127 edges).
A pure-Python k=3 index over the full graph is feasible but slow to
build, so the benchmarks default to a scaled-down Advogato-like graph;
``scale="full"`` selects the paper's dimensions for users with patience.
The *trends* (Figure 2's shape) are scale-invariant: they come from the
degree skew and the label skew, both preserved by the generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.api import GraphDatabase
from repro.errors import ValidationError
from repro.graph.generators import ADVOGATO_LABELS, SCALES, advogato_like
from repro.graph.graph import Graph


@dataclass
class PreparedWorkload:
    """A graph plus one :class:`GraphDatabase` per index locality k."""

    graph: Graph
    labels: tuple[str, str, str]
    databases: dict[int, GraphDatabase] = field(default_factory=dict)

    def database(self, k: int) -> GraphDatabase:
        """The database indexed at locality ``k`` (built lazily)."""
        if k not in self.databases:
            self.databases[k] = GraphDatabase(self.graph, k=k)
        return self.databases[k]


def advogato_workload(
    scale: str = "bench",
    ks: tuple[int, ...] = (1, 2, 3),
    seed: int = 7,
) -> PreparedWorkload:
    """Advogato-like graph with indexes prebuilt for each k in ``ks``."""
    if scale not in SCALES:
        raise ValidationError(
            f"unknown scale {scale!r}; expected one of {sorted(SCALES)}"
        )
    nodes, edges = SCALES[scale]
    graph = advogato_like(nodes=nodes, edges=edges, seed=seed)
    prepared = PreparedWorkload(graph=graph, labels=ADVOGATO_LABELS)
    for k in ks:
        prepared.database(k)
    return prepared


#: Cycle length of the "cyclic" closure workload: every node sits on a
#: cycle (the delta-iteration worst case — nothing ever saturates
#: early), but the closure stays linear in the edge count.
CLOSURE_CYCLE_LENGTH = 32


def closure_base_pairs(
    kind: str, edges: int, seed: int = 7
) -> tuple[int, list[tuple[int, int]]]:
    """``(node_count, pairs)`` for the Kleene-closure ablation.

    Three graph shapes stress different closure behaviors:

    * ``cyclic`` — disjoint directed cycles of
      :data:`CLOSURE_CYCLE_LENGTH`: every pair stays live until the
      cycle wraps, the regime the paper's recursive queries hit.
    * ``chain`` — one directed path: maximal diameter, no recurrence
      (bounded-power territory; the full closure would be quadratic).
    * ``scale_free`` — preferential attachment with out-degree 2 (edges
      point from later to earlier nodes): heavy-tailed in-degrees and
      deep, overlapping ancestor sets, the shape of citation / social
      graphs.

    Pairs come back duplicate-free and sorted.
    """
    if kind == "cyclic":
        length = CLOSURE_CYCLE_LENGTH
        count = max(1, edges // length)
        pairs = []
        for cycle in range(count):
            base = cycle * length
            pairs.extend((base + i, base + (i + 1) % length) for i in range(length))
        return count * length, pairs
    if kind == "chain":
        return edges + 1, [(i, i + 1) for i in range(edges)]
    if kind == "scale_free":
        rng = random.Random(seed)
        out_degree = 2
        nodes = max(2, edges // out_degree)
        pool = [0]
        pairs: set[tuple[int, int]] = set()
        for node in range(1, nodes):
            for _ in range(out_degree):
                pairs.add((node, pool[rng.randrange(len(pool))]))
            pool.extend([node] * out_degree)
            pool.append(node)
        return nodes, sorted(pairs)
    raise ValidationError(
        f"unknown closure workload {kind!r}; expected cyclic, chain or scale_free"
    )


def composed_closure_pairs(
    kind: str, nodes: int, seed: int = 7
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """``(left, base)`` pairs over ``range(nodes)`` for ``left / base*``.

    Three shapes put the reach-bitset fold on either side of its density
    rule (:func:`repro.csr._compose_left`):

    * ``dense`` — the recursive end-to-end workload's ``a / b*``: its
      graph (``benchmarks/e2e/workloads.py: trust_graph`` at out-degree
      6), ``a`` edges on the left and ``b`` edges as the base, which
      closes into one giant component the left operand reaches.
    * ``chain`` — one directed path: reach sets of every size, each
      its own component; one random left pair per node.
    * ``half_shift`` — ``u -> u + nodes/2``: every reach set holds one
      node far out in the id space (wide, sparse bitsets); one random
      left pair per node.

    Pairs come back duplicate-free and sorted.
    """
    rng = random.Random(seed)

    def random_pairs(count: int) -> list[tuple[int, int]]:
        return sorted(
            {(rng.randrange(nodes), rng.randrange(nodes)) for _ in range(count)}
        )

    if kind == "dense":
        from e2e.workloads import trust_graph

        by_label: dict[str, set[tuple[int, int]]] = {"a": set(), "b": set()}
        for source, label, target in trust_graph(nodes, 6, seed):
            if label in by_label:
                by_label[label].add((int(source[1:]), int(target[1:])))
        return sorted(by_label["a"]), sorted(by_label["b"])
    if kind == "chain":
        return random_pairs(nodes), [(i, i + 1) for i in range(nodes - 1)]
    if kind == "half_shift":
        half = nodes // 2
        return random_pairs(nodes), [(u, u + half) for u in range(half)]
    raise ValidationError(
        f"unknown composed-closure workload {kind!r}; expected dense, chain "
        "or half_shift"
    )


def service_batch_queries(
    count: int = 120,
    seed: int = 7,
    labels: tuple[str, str, str] = ADVOGATO_LABELS,
) -> list[str]:
    """A shared-subplan query batch for the service-layer benchmark.

    ``count`` draws, with repetition and a popularity skew, from a
    small pool of 2- and 3-step label paths — the shape of heavy
    traffic, where many concurrent queries repeat popular queries
    verbatim and distinct queries overlap on popular subpaths.  This is
    exactly the workload :meth:`repro.api.GraphDatabase.query_batch`
    exists for: identical queries dedup to one execution, and shared
    plan subtrees hit the batch-wide scan memo.
    """
    rng = random.Random(seed)
    pool = [f"{a}/{b}" for a in labels for b in labels]
    pool += ["/".join(rng.choice(labels) for _ in range(3)) for _ in range(12)]
    # Zipf-ish skew: squaring the uniform draw concentrates mass on the
    # head of the pool, as production query logs do.
    return [pool[int(len(pool) * rng.random() ** 2)] for _ in range(count)]


def sharding_graph(scale: str = "bench", seed: int = 7) -> Graph:
    """The graph the sharding ablation builds indexes over.

    The same Advogato-like generator as :func:`advogato_workload`, but
    returned bare: ``benchmarks/bench_sharding.py`` times raw index
    builds at several shard counts, so the databases (and their
    statistics layers) must not be prebuilt here.
    """
    if scale not in SCALES:
        raise ValidationError(
            f"unknown scale {scale!r}; expected one of {sorted(SCALES)}"
        )
    nodes, edges = SCALES[scale]
    return advogato_like(nodes=nodes, edges=edges, seed=seed)


def sharding_queries(
    labels: tuple[str, str, str] = ADVOGATO_LABELS,
) -> list[str]:
    """The scatter-gather query ablation set, one query per regime.

    Two-step paths (one merge join over shard slices), three-step paths
    with an inverse step (hash-join chains, the swapped-scan slice
    sort), a high-fan-in union via a bounded repeat, and a Kleene star
    (per-shard base evaluation + the mandatory global closure).
    """
    a, b, c = labels
    return [
        f"{a}/{b}",
        f"{b}/^{a}/{c}",
        f"{a}{{1,3}}",
        f"({a}|{b})*",
    ]


#: Labels of the skewed sharding workload: two heavy labels carrying
#: most of the edge mass, plus rare labels whose edges *start only at
#: vertices owned by one shard* — the regime where per-shard statistics
#: beat global ones.
SKEW_HEAVY_LABELS = ("h0", "h1")
SKEW_RARE_LABELS = ("r0", "r1", "r2", "r3", "r4", "r5")


def skewed_shard_graph(
    scale: str = "bench", shards: int = 4, seed: int = 7
) -> Graph:
    """A graph with Zipfian label skew aligned with shard ownership.

    Two axes of skew, both common in production graphs and both
    invisible to *global* statistics:

    * **label skew** — edge counts per label follow a Zipf-ish decay:
      the heavy labels take most of the mass, each rare label a sliver.
    * **start-vertex skew** — heavy-label edges start at hot vertices
      (a cubed-uniform draw concentrates sources on a head set), and
      each rare label's edges start *only* at vertices owned by one
      shard of a ``shards``-way partition (``r0`` in shard 0, ``r1`` in
      shard 1, ...).  Global counts see a nonzero path count; per-shard
      counts prove the path empty in all but one shard.

    The second property is constructed with :func:`repro.sharding.shard_of`
    itself so it holds by definition, not by luck, at the given shard
    count.  Used by ``benchmarks/bench_shard_stats.py`` to measure
    shard pruning; answers are still pinned to the unsharded oracle
    there, so the alignment is a performance property only.
    """
    from repro.sharding import shard_of

    if scale not in SCALES:
        raise ValidationError(
            f"unknown scale {scale!r}; expected one of {sorted(SCALES)}"
        )
    nodes, edges = SCALES[scale]
    rng = random.Random(seed)
    graph = Graph()
    for index in range(nodes):
        graph.add_node(f"n{index}")
    owned: list[list[int]] = [[] for _ in range(shards)]
    for node in range(nodes):
        owned[shard_of(node, shards)].append(node)
    labels = SKEW_HEAVY_LABELS + SKEW_RARE_LABELS
    # Zipf-ish decay with a long tail: h0 ~ 1, h1 ~ 1/2, and every
    # rare label a sliver (~1-2% of the mass) — rare enough that most
    # rare-rare compositions are empty, the regime where per-shard
    # exact zeros carry real information.
    weights = [1.0, 0.5] + [0.06 / (i + 1) for i in range(len(SKEW_RARE_LABELS))]
    total = sum(weights)
    for label, weight in zip(labels, weights):
        budget = max(8, int(edges * weight / total))
        made = 0
        attempts = 0
        while made < budget and attempts < budget * 20:
            attempts += 1
            if label in SKEW_HEAVY_LABELS:
                # Hot heads: cubing the uniform draw piles sources
                # onto low-numbered vertices.
                source = int(nodes * rng.random() ** 3)
            else:
                pool = owned[int(label[1:]) % shards]
                source = pool[int(len(pool) * rng.random() ** 2)]
            target = rng.randrange(nodes)
            if target == source:
                continue
            if graph.add_edge(f"n{source}", label, f"n{target}"):
                made += 1
    return graph


def skewed_shard_queries() -> list[str]:
    """The pruning-ablation query set over the skewed graph.

    Rare-led shapes a production log would call "selective queries":
    high-fan-in unions and bounded repeats over the rare alphabet
    (normalization explodes them into dozens of disjuncts, nearly all
    provably empty per shard — the shape pruning wins hardest on),
    plus single-disjunct rare-led join spines (whole-shard pruning).
    """
    r0, r1, r2, r3, r4, r5 = SKEW_RARE_LABELS
    h0, h1 = SKEW_HEAVY_LABELS
    return [
        f"({r0}|{r1}|{r2}|{r3}){{1,3}}",
        f"({r0}|{r2}|{r4}){{1,2}}/{h1}",
        f"({r0}|{r1}|{r2}|{r3}|{r4}|{r5}){{2,3}}",
        f"({r0}|{r1}|{r2}|{r3}|{r4}|{r5})/{h0}",
        f"{r1}/{h0}/{h1}",
    ]


def prepared_template_workload() -> list[tuple[str, list[dict[str, int]]]]:
    """``(template, bindings)`` pairs for the prepared-statement bench.

    Selective recursion-heavy shapes over the skewed graph's rare
    alphabet (:func:`skewed_shard_graph`): normalization explodes each
    into dozens-to-hundreds of disjuncts, nearly all empty, so the
    parse/rewrite/plan toll dominates execution — the regime prepared
    statements exist for, and the shape of production prepared traffic
    (planned once, swept over bound parameters).  Bindings per template
    vary only the repetition bounds, exactly what ``$name`` templates
    parameterize.
    """
    r0, r1, r2, r3, r4, r5 = SKEW_RARE_LABELS
    h1 = SKEW_HEAVY_LABELS[1]
    return [
        (
            f"({r0}|{r1}|{r2}|{r3}){{$lo,$hi}}",
            [{"lo": 1, "hi": 3}, {"lo": 2, "hi": 4}],
        ),
        (
            f"({r0}|{r2}|{r4}){{1,$n}}/{h1}",
            [{"n": 3}, {"n": 4}],
        ),
        (
            f"({r0}|{r1}|{r2}|{r3}|{r4}|{r5}){{$lo,$hi}}",
            [{"lo": 2, "hi": 3}, {"lo": 2, "hi": 4}],
        ),
    ]


def fused_gather_queries(
    labels: tuple[str, str, str] = ADVOGATO_LABELS,
) -> list[str]:
    """The fused-gather ablation set: gather-bound scatter shapes.

    Mid-size answers (tens of thousands of pairs per shard sweep) where
    the N-way merge of shard slices is a visible fraction of execution
    — large enough to vectorize, small enough that the final sort does
    not drown the dedup pass being skipped.
    """
    a, b, c = labels
    return [
        f"{b}{{1,3}}",
        f"{a}{{1,3}}",
        f"{b}/^{a}/{c}",
    ]


def synthetic_join_inputs(
    size: int, seed: int = 7
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The join-ablation workload: two random duplicate-free relations.

    ``left`` comes back target-major sorted (the shape an inverse-path
    scan delivers), ``right`` (src, tgt)-sorted.  Shared by
    ``benchmarks/bench_join_strategies.py`` and
    ``benchmarks/bench_relation_ops.py`` so the two reports stay
    directly comparable.
    """
    rng = random.Random(seed)
    domain = size // 2 + 1
    left = sorted(
        {(rng.randrange(domain), rng.randrange(domain)) for _ in range(size)},
        key=lambda pair: (pair[1], pair[0]),
    )
    right = sorted(
        {(rng.randrange(domain), rng.randrange(domain)) for _ in range(size)}
    )
    return left, right
