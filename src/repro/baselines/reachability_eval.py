"""Reachability-index RPQ evaluation (approach 3 in the paper).

The paper contrasts its approach with reachability-index systems, which
handle only *restricted* uses of Kleene star.  This front-end makes the
restriction concrete: it recognizes the supported shapes —

* ``l*`` / ``l{0,}``          (reflexive closure of one step)
* ``l+`` / ``l{1,}``          (irreflexive closure of one step)
* ``^l*``, ``^l+``            (closures of an inverse step)

— answers them by closing the one step relation
(:func:`repro.relation.transitive_fixpoint`: the Tarjan condensation
with per-component reach bitsets a reachability index is built from,
the same pass every Kleene closure runs), and raises
:class:`~repro.errors.UnsupportedQueryError` for every other query.
The path-index engine, by contrast, evaluates arbitrary RPQs; the
contrast is asserted by tests and showcased in an example.
"""

from __future__ import annotations

from repro import relation as rel
from repro.errors import UnsupportedQueryError
from repro.graph.graph import Graph, Step
from repro.rpq.ast import Label, Node, Repeat, Star
from repro.rpq.rewrite import push_inverse

Pair = tuple[int, int]


def supported_shape(query: Node) -> tuple[Step, bool] | None:
    """``(step, reflexive)`` when the query is a supported closure."""
    query = push_inverse(query)
    if isinstance(query, Star) and isinstance(query.child, Label):
        return query.child.step, True
    if (
        isinstance(query, Repeat)
        and isinstance(query.child, Label)
        and query.high is None
        and query.low in (0, 1)
    ):
        return query.child.step, query.low == 0
    return None


def evaluate(graph: Graph, query: Node) -> set[Pair]:
    """Answer a restricted-star query by closing its one step relation."""
    shape = supported_shape(query)
    if shape is None:
        raise UnsupportedQueryError(
            f"reachability-index evaluation supports only single-step "
            f"closures (l* / l+ / ^l* / ^l+); got: {query}"
        )
    step, reflexive = shape
    base = rel.Relation.from_pairs(graph.step_pairs(step))
    low = 0 if reflexive else 1
    return rel.transitive_fixpoint(graph.node_ids(), base, low).to_set()
