"""Datalog-based RPQ evaluation (approach 2 in the paper).

Translate the query to a recursive Datalog program, export the graph as
the extensional database, run the bottom-up engine, and read the answer
predicate.  Used by the Section-6 comparison benchmark (the paper
reports the path-index approach ~1200x faster on the Advogato queries).
"""

from __future__ import annotations

from repro_bench.datalog.engine import (
    EvaluationStats, naive_evaluate, seminaive_evaluate,
)
from repro_bench.datalog.translate import graph_to_edb, translate
from repro.errors import ValidationError
from repro.graph.graph import Graph
from repro.rpq.ast import Node

Pair = tuple[int, int]


def evaluate(
    graph: Graph, query: Node, mode: str = "seminaive"
) -> set[Pair]:
    """All-pairs answer of ``query`` via Datalog evaluation."""
    pairs, _ = evaluate_with_stats(graph, query, mode=mode)
    return pairs


def evaluate_with_stats(
    graph: Graph, query: Node, mode: str = "seminaive"
) -> tuple[set[Pair], EvaluationStats]:
    """Like :func:`evaluate` but also returns engine counters."""
    translation = translate(query)
    edb = graph_to_edb(graph)
    if mode == "seminaive":
        database, stats = seminaive_evaluate(translation.program, edb)
    elif mode == "naive":
        database, stats = naive_evaluate(translation.program, edb)
    else:
        raise ValidationError(f"unknown Datalog mode {mode!r}")
    answer = database.relation(translation.answer_predicate)
    return {(source, target) for source, target in answer}, stats
