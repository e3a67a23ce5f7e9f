"""Query planning and execution over the k-path index."""

from repro.engine.executor import ExecutionReport, evaluate_ast
from repro.engine.plan import (
    IdentityPlan,
    IndexScanPlan,
    JoinPlan,
    Order,
    PlanNode,
    UnionPlan,
    render,
)
from repro.engine.planner import Planner, Strategy

__all__ = [
    "ExecutionReport",
    "IdentityPlan",
    "IndexScanPlan",
    "JoinPlan",
    "Order",
    "PlanNode",
    "Planner",
    "Strategy",
    "UnionPlan",
    "evaluate_ast",
    "render",
]
