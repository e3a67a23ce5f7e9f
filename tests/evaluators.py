"""The reference oracle and the literature baselines, by name.

``GraphDatabase.query`` runs the paper's four strategies only.  Tests
that hold the engine to the oracle or to a baseline call it here, on
the database's graph, and compare name-pair views like the ones
``query()`` returns.
"""

from __future__ import annotations

from repro.baselines import automaton_eval
from repro.graph.graph import Graph, NamedPairs
from repro.rpq.parser import parse
from repro.rpq.semantics import eval_ast
from repro_bench import datalog_eval, reachability_eval

#: Evaluator name -> ``(graph, AST) -> set of id pairs``.
EVALUATORS = {
    "automaton": automaton_eval.evaluate,
    "datalog": datalog_eval.evaluate,
    "reachability": reachability_eval.evaluate,
    "reference": eval_ast,
}


def evaluate(graph: Graph, query: str, method: str = "reference") -> NamedPairs:
    """``query``'s all-pairs answer from one evaluator, as names."""
    return graph.named_pairs(EVALUATORS[method](graph, parse(query)))


def answer(database, query: str, method: str) -> NamedPairs:
    """``query()``'s pairs for a strategy, the evaluator's for a baseline name."""
    if method in EVALUATORS:
        return evaluate(database.graph, query, method)
    return database.query(query, method=method).pairs
