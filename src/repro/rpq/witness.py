"""Witness extraction: *why* is a pair in the answer?

RPQ semantics returns node pairs, but users (and the paper's demo
audience) routinely ask for an actual path — the sequence of nodes and
steps whose label word is in the query's language.  This module
extracts a shortest such witness from the automaton baseline's
graph × NFA product walk (:func:`repro.baselines.automaton_eval.walk`):
the walk records how it first reached each product state, so the
witness is those parents read back from the goal.

A witness is a list of ``(node, step, node)`` hops (empty for pairs
justified by the empty word, e.g. epsilon or ``R*`` identity pairs).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.automaton_eval import walk
from repro.graph.graph import Graph, Step
from repro.rpq.ast import Node
from repro.rpq.automaton import compile_ast


@dataclass(frozen=True, slots=True)
class Witness:
    """A concrete path justifying one answer pair."""

    source: str
    target: str
    hops: tuple[tuple[str, Step, str], ...]

    @property
    def length(self) -> int:
        return len(self.hops)

    def word(self) -> tuple[Step, ...]:
        """The label word spelled by the witness."""
        return tuple(step for _, step, _ in self.hops)

    def __str__(self) -> str:
        if not self.hops:
            return f"{self.source} (empty word)"
        parts = [self.hops[0][0]]
        for _, step, target in self.hops:
            parts.append(f"-{step}->")
            parts.append(target)
        return " ".join(parts)


def find_witness(
    graph: Graph, query: Node, source: str, target: str
) -> Witness | None:
    """A shortest witness path for ``(source, target)``, or ``None``.

    The automaton baseline's product walk
    (:func:`repro.baselines.automaton_eval.walk`) run to the goal
    ``(target, accept)``: breadth-first order makes the parents read
    back from the goal a witness with the minimum number of edge
    traversals.
    """
    nfa = compile_ast(query)
    goal = (graph.node_id(target), nfa.accept)
    parents = walk(graph, nfa, graph.node_id(source), goal)
    if goal not in parents:
        return None
    hops: list[tuple[str, Step, str]] = []
    cursor, entry = goal, parents[goal]
    while entry is not None:
        node, state, step = entry
        hops.append((graph.node_name(node), step, graph.node_name(cursor[0])))
        cursor = (node, state)
        entry = parents[cursor]
    hops.reverse()
    return Witness(source=source, target=target, hops=tuple(hops))


def all_witness_words(
    graph: Graph, query: Node, source: str, target: str, max_length: int
) -> set[tuple[Step, ...]]:
    """Every witness *word* up to ``max_length`` hops (small graphs).

    Exhaustive product-BFS by level; useful in tests to check that
    :func:`find_witness` returns a shortest word.
    """
    nfa = compile_ast(query)
    source_id = graph.node_id(source)
    target_id = graph.node_id(target)
    words: set[tuple[Step, ...]] = set()
    frontier: set[tuple[int, int, tuple[Step, ...]]] = {
        (source_id, state, ()) for state in nfa.eps_closure(nfa.start)
    }
    for _ in range(max_length + 1):
        next_frontier: set[tuple[int, int, tuple[Step, ...]]] = set()
        for node, state, word in frontier:
            if node == target_id and state == nfa.accept:
                words.add(word)
            if len(word) == max_length:
                continue
            for step in nfa.out_steps(state):
                for raw_state in nfa.step_targets(state, step):
                    for next_state in nfa.eps_closure(raw_state):
                        for neighbor in graph.step_neighbors(node, step):
                            next_frontier.add(
                                (neighbor, next_state, word + (step,))
                            )
        frontier = next_frontier
        if not frontier:
            break
    return words
