"""Reference set semantics for RPQs (Section 2.2).

This module is the *correctness oracle* of the whole library: a direct
structural-recursion evaluator with no indexes, no planner, and no
cleverness.  Every other evaluation path (the four index strategies, the
automaton baseline, the Datalog baseline) is tested for equality
against :func:`eval_ast` on randomized inputs.

It deliberately stays tuple-set based: the engine's hot paths use the
columnar array-backed twins in :mod:`repro.relation` (packed-int64
joins) and, for ``Star``/``Repeat``, the condensation-based CSR closure in
:mod:`repro.csr` — and those kernels are property-tested against the
set implementations here.  That independence is the point: routing this
module through the engine's kernels would make the oracle circular, so
keep the two in sync semantically and never share code between them.
"""

from __future__ import annotations

from repro.errors import RewriteError
from repro.graph.graph import Graph, LabelPath
from repro.rpq.ast import (
    Concat,
    Epsilon,
    Inverse,
    Label,
    Node,
    Repeat,
    Star,
    Union,
)
from repro.rpq.parser import parse
from repro.rpq.rewrite import push_inverse

Relation = set[tuple[int, int]]


def identity_relation(graph: Graph) -> Relation:
    """``{(n, n) | n ∈ nodes(G)}`` — the meaning of epsilon."""
    return {(node, node) for node in graph.node_ids()}


def compose(left: Relation, right: Relation) -> Relation:
    """Relational composition ``left ∘ right``."""
    if not left or not right:
        return set()
    by_source: dict[int, list[int]] = {}
    for mid, target in right:
        by_source.setdefault(mid, []).append(target)
    result: Relation = set()
    for source, mid in left:
        targets = by_source.get(mid)
        if targets:
            for target in targets:
                result.add((source, target))
    return result


def transitive_fixpoint(graph: Graph, base: Relation, low: int) -> Relation:
    """``base^low ∪ base^{low+1} ∪ ...`` evaluated to fixpoint.

    Uses delta iteration (only newly discovered pairs are re-expanded),
    so cyclic graphs terminate.
    """
    if low == 0:
        accumulated = identity_relation(graph) | base
        start_power = base
    elif low == 1:
        accumulated = set(base)
        start_power = base
    else:
        start_power = relation_power(graph, base, low)
        accumulated = set(start_power)
    delta = set(start_power)
    while delta:
        delta = compose(delta, base) - accumulated
        accumulated |= delta
    return accumulated


def relation_power(graph: Graph, base: Relation, exponent: int) -> Relation:
    """``base^exponent`` under composition (power 0 is the identity)."""
    if exponent == 0:
        return identity_relation(graph)
    result = set(base)
    for _ in range(exponent - 1):
        result = compose(result, base)
        if not result:
            break
    return result


def eval_ast(graph: Graph, node: Node) -> Relation:
    """Evaluate an RPQ AST on a graph, returning id pairs."""
    if isinstance(node, Epsilon):
        return identity_relation(graph)
    if isinstance(node, Label):
        return graph.step_relation(node.step)
    if isinstance(node, Inverse):
        return eval_ast(graph, push_inverse(node))
    if isinstance(node, Concat):
        result = eval_ast(graph, node.parts[0])
        for part in node.parts[1:]:
            if not result:
                return set()
            result = compose(result, eval_ast(graph, part))
        return result
    if isinstance(node, Union):
        result: Relation = set()
        for part in node.parts:
            result |= eval_ast(graph, part)
        return result
    if isinstance(node, Star):
        return transitive_fixpoint(graph, eval_ast(graph, node.child), low=0)
    if isinstance(node, Repeat):
        base = eval_ast(graph, node.child)
        if node.high is None:
            return transitive_fixpoint(graph, base, low=node.low)
        return bounded_powers(graph, base, node.low, node.high)
    raise RewriteError(f"unknown AST node {type(node).__name__}")


def bounded_powers(
    graph: Graph, base: Relation, low: int, high: int
) -> Relation:
    """``base^low ∪ ... ∪ base^high`` with early saturation.

    The sequence of powers of a relation over a finite node set is
    eventually periodic; once a power repeats, every later power (and
    hence the remaining union) has already been accumulated, so large
    bounds like the paper's ``R{0,n(G)}`` terminate after the period.
    """
    accumulated: Relation = set()
    power = relation_power(graph, base, low)
    accumulated |= power
    seen: set[frozenset] = {frozenset(power)}
    for _ in range(low, high):
        if not power:
            break
        power = compose(power, base)
        accumulated |= power
        fingerprint = frozenset(power)
        if fingerprint in seen:
            break
        seen.add(fingerprint)
    return accumulated


def eval_label_path(graph: Graph, path: LabelPath) -> Relation:
    """Evaluate one label path directly (used by the index builder tests)."""
    result = graph.step_relation(path[0])
    for step in path.steps[1:]:
        if not result:
            return set()
        result = compose(result, graph.step_relation(step))
    return result


def eval_query(graph: Graph, text: str) -> set[tuple[str, str]]:
    """Parse and evaluate query text, returning node-name pairs.

    This is the convenience entry point used in documentation examples:

    >>> from repro.graph.examples import figure1_graph
    >>> eval_query(figure1_graph(), "supervisor/^worksFor")
    {('kim', 'sue')}
    """
    pairs = eval_ast(graph, parse(text))
    return graph.pairs_to_names(pairs)
