"""A from-scratch Datalog engine and the RPQ translation (approach 2)."""

from repro_bench.datalog.ast import (
    Atom,
    Const,
    DatalogError,
    Program,
    Rule,
    Var,
    atom,
    rule,
    var,
)
from repro_bench.datalog.engine import (
    Database,
    EvaluationStats,
    naive_evaluate,
    seminaive_evaluate,
)
from repro_bench.datalog.translate import Translation, graph_to_edb, translate

__all__ = [
    "Atom",
    "Const",
    "Database",
    "DatalogError",
    "EvaluationStats",
    "Program",
    "Rule",
    "Translation",
    "Var",
    "atom",
    "graph_to_edb",
    "naive_evaluate",
    "rule",
    "seminaive_evaluate",
    "translate",
    "var",
]
