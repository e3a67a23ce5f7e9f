"""Automaton/search-based RPQ evaluation (approach 1 in the paper).

The query is compiled to an NFA over navigation steps; evaluation is a
breadth-first search over the *product* of the graph and the automaton.
For the all-pairs semantics the paper uses, a product BFS is launched
from every graph node — which is exactly why this approach loses to the
path index on multi-join queries: it re-walks neighborhoods once per
source node and cannot exploit selective interior path segments.
"""

from __future__ import annotations

from collections import deque

from repro.graph.graph import Graph, Step
from repro.rpq.ast import Node
from repro.rpq.automaton import NFA, compile_ast

Pair = tuple[int, int]
#: A product state: ``(graph node, NFA state)``.
State = tuple[int, int]
#: How the walk first reached a state: ``(node, NFA state, step)`` one
#: edge earlier, or ``None`` for a start state.
Parent = tuple[int, int, Step] | None


def walk(
    graph: Graph, nfa: NFA, source: int, goal: State | None = None
) -> dict[State, Parent]:
    """Breadth-first search of the graph × NFA product from ``source``.

    Maps every product state reached to the state and step that first
    reached it, so the parents read back from a state spell a shortest
    path to it (fewest edge traversals).  Given a ``goal`` state, the
    search stops as soon as it reaches the goal.
    """
    parents: dict[State, Parent] = {}
    queue: deque[State] = deque()
    for state in nfa.eps_closure(nfa.start):
        parents[(source, state)] = None
        queue.append((source, state))
    if goal in parents:
        return parents
    while queue:
        node, state = queue.popleft()
        for step in nfa.out_steps(state):
            successors = nfa.step_targets(state, step)
            if not successors:
                continue
            for neighbor in graph.step_neighbors(node, step):
                for raw_state in successors:
                    for next_state in nfa.eps_closure(raw_state):
                        pair = (neighbor, next_state)
                        if pair not in parents:
                            parents[pair] = (node, state, step)
                            if pair == goal:
                                return parents
                            queue.append(pair)
    return parents


def evaluate_from(graph: Graph, nfa: NFA, source: int) -> set[int]:
    """All targets ``t`` such that ``(source, t)`` satisfies the NFA."""
    accept = nfa.accept
    return {node for node, state in walk(graph, nfa, source) if state == accept}


def evaluate(graph: Graph, query: Node) -> set[Pair]:
    """All-pairs evaluation: a product BFS from every node."""
    nfa = compile_ast(query)
    result: set[Pair] = set()
    for source in graph.node_ids():
        for target in evaluate_from(graph, nfa, source):
            result.add((source, target))
    return result
