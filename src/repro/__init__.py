"""repro — regular path query evaluation using k-path indexes.

A from-scratch reproduction of Fletcher, Peters, Poulovassilis,
*Efficient regular path query evaluation using path indexes*
(EDBT 2016): an edge-labeled graph store, a k-path index (an ordered
dictionary: sorted columns in memory, a B+tree on disk) with an
equi-depth selectivity histogram, four plan-generation strategies
(naive, semi-naive, minSupport, minJoin), and the three literature
baselines (automaton search, Datalog, reachability index).

Quickstart::

    from repro import GraphDatabase, ServiceConfig

    db = GraphDatabase.from_edges(
        [("ada", "knows", "zoe"), ("zoe", "worksFor", "ada")],
        config=ServiceConfig(k=2),
    )
    print(db.query("knows/worksFor").pairs)

The namespace is deliberately curated: the embedded engine
(:class:`GraphDatabase` and its value types), its deployment config
(:class:`ServiceConfig`), the grouped counters (:class:`EngineStats`),
the service clients (:class:`Client` / :class:`AsyncClient` /
:class:`RemoteResult`), the unified write-path value types
(:class:`Mutation` / :class:`MutationBatch` / :class:`ApplyResult`),
and the one exception base callers should catch at boundaries
(:class:`ReproError`).  Serving-side machinery
lives in :mod:`repro.serve`; the full error taxonomy in
:mod:`repro.errors`.
"""

from repro.api import GraphDatabase, QueryResult
from repro.client import AsyncClient, Client, RemoteResult
from repro.config import ServiceConfig
from repro.engine.planner import Strategy
from repro.engine.prepared import BoundStatement, PreparedStatement
from repro.errors import ReproError
from repro.graph.graph import Graph, LabelPath, Step
from repro.relation import Order, Relation
from repro.rpq.parser import Template
from repro.stats import EngineStats
from repro.write import ApplyResult, Mutation, MutationBatch

__version__ = "1.3.0"

__all__ = [
    "ApplyResult",
    "AsyncClient",
    "BoundStatement",
    "Client",
    "EngineStats",
    "Graph",
    "GraphDatabase",
    "LabelPath",
    "Mutation",
    "MutationBatch",
    "Order",
    "PreparedStatement",
    "QueryResult",
    "Relation",
    "RemoteResult",
    "ReproError",
    "ServiceConfig",
    "Step",
    "Strategy",
    "Template",
    "__version__",
]
