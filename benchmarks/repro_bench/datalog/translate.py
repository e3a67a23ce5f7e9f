"""Translating RPQs to Datalog programs (the approach-2 baseline).

Every AST node becomes a fresh IDB predicate over node-id pairs; the
EDB holds one binary ``edge_<label>`` relation per label plus a unary
``node`` relation.  Recursion maps to genuine Datalog recursion:

* ``R*``   — ``p(X,X) :- node(X).  p(X,Y) :- p(X,Z), base(Z,Y).``
* ``R{i,j}`` — power predicates ``pow_m`` chained by composition with
  the answer a union over ``pow_i .. pow_j`` (and identity when i=0);
* ``R{i,}`` — the closure composed after ``pow_i``.

This mirrors how the literature (e.g. the paper's reference [3]) maps
property paths onto recursive views, and it is what makes the baseline
slow: the fixpoint materializes full intermediate relations with no
selectivity-based ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.graph import Graph, Step
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
from repro.rpq.rewrite import push_inverse
from repro_bench.datalog.ast import (
    Atom, DatalogError, Program, Rule, Var, atom, rule, var,
)
from repro_bench.datalog.engine import Database

NODE_PRED = "node"


def edge_predicate(label: str) -> str:
    """The EDB predicate name for one edge label."""
    return f"edge_{label}"


def graph_to_edb(graph: Graph) -> Database:
    """Export a graph as the extensional database of the translation."""
    facts: dict[str, set[tuple]] = {NODE_PRED: set()}
    for node_id in graph.node_ids():
        facts[NODE_PRED].add((node_id,))
    for label in graph.labels():
        predicate = edge_predicate(label)
        facts[predicate] = set(graph.step_pairs(Step(label)))
    return Database(facts)


@dataclass(frozen=True, slots=True)
class Translation:
    """A Datalog program plus the predicate holding the query answer."""

    program: Program
    answer_predicate: str


class _Translator:
    def __init__(self) -> None:
        self._rules: list[Rule] = []
        self._counter = 0
        self._x = var("X")
        self._y = var("Y")

    def fresh(self, hint: str) -> str:
        name = f"q{self._counter}_{hint}"
        self._counter += 1
        return name

    def add(self, head: Atom, *body: Atom) -> None:
        self._rules.append(rule(head, *body))

    def translate(self, node: Node) -> str:
        """Emit rules for ``node``; return its predicate name."""
        x, y = self._x, self._y
        if isinstance(node, Epsilon):
            predicate = self.fresh("eps")
            self.add(atom(predicate, x, x), atom(NODE_PRED, x))
            return predicate
        if isinstance(node, Label):
            predicate = self.fresh("step")
            edge = edge_predicate(node.step.label)
            if node.step.inverse:
                self.add(atom(predicate, x, y), atom(edge, y, x))
            else:
                self.add(atom(predicate, x, y), atom(edge, x, y))
            return predicate
        if isinstance(node, Concat):
            predicate = self.fresh("cat")
            part_predicates = [self.translate(part) for part in node.parts]
            self._compose_rule(predicate, part_predicates)
            return predicate
        if isinstance(node, Union):
            predicate = self.fresh("alt")
            for part in node.parts:
                part_predicate = self.translate(part)
                self.add(atom(predicate, x, y), atom(part_predicate, x, y))
            return predicate
        if isinstance(node, Star):
            base = self.translate(node.child)
            return self._closure(base)
        if isinstance(node, Repeat):
            return self._repeat(node)
        if isinstance(node, Inverse):
            raise DatalogError("inverse must be pushed to labels before translation")
        raise DatalogError(f"unknown AST node {type(node).__name__}")

    def _compose_rule(self, predicate: str, parts: list[str]) -> None:
        """``predicate(X, Y) :- parts0(X, Z1), parts1(Z1, Z2), ...``."""
        x, y = self._x, self._y
        body: list[Atom] = []
        current: Var = x
        for position, part in enumerate(parts):
            last = position == len(parts) - 1
            nxt = y if last else var(f"Z{self._counter}_{position}")
            body.append(atom(part, current, nxt))
            current = nxt
        self.add(atom(predicate, x, y), *body)

    def _closure(self, base: str) -> str:
        """Reflexive-transitive closure of ``base``."""
        x, y = self._x, self._y
        predicate = self.fresh("star")
        z = var(f"Z{self._counter}_s")
        self.add(atom(predicate, x, x), atom(NODE_PRED, x))
        self.add(atom(predicate, x, y), atom(predicate, x, z), atom(base, z, y))
        return predicate

    def _power(self, base: str, exponent: int) -> str:
        """``base`` composed with itself ``exponent`` times (>= 1)."""
        current = base
        for _ in range(exponent - 1):
            predicate = self.fresh("pow")
            self._compose_rule(predicate, [current, base])
            current = predicate
        return current

    def _repeat(self, node: Repeat) -> str:
        x, y = self._x, self._y
        base = self.translate(node.child)
        predicate = self.fresh("rep")
        if node.high is None:
            closure = self._closure(base)
            if node.low == 0:
                self.add(atom(predicate, x, y), atom(closure, x, y))
            else:
                low_pred = self._power(base, node.low)
                self._compose_rule(predicate, [low_pred, closure])
            return predicate
        if node.low == 0:
            self.add(atom(predicate, x, x), atom(NODE_PRED, x))
        powers: dict[int, str] = {}
        current = base
        powers[1] = current
        for exponent in range(2, node.high + 1):
            next_pred = self.fresh("pow")
            self._compose_rule(next_pred, [current, base])
            powers[exponent] = next_pred
            current = next_pred
        for exponent in range(max(node.low, 1), node.high + 1):
            self.add(atom(predicate, x, y), atom(powers[exponent], x, y))
        return predicate


def translate(node: Node) -> Translation:
    """Translate an RPQ AST (inverse allowed) to a Datalog program."""
    translator = _Translator()
    answer = translator.translate(push_inverse(node))
    return Translation(
        program=Program(tuple(translator._rules)),
        answer_predicate=answer,
    )
