"""Cost model for physical plans.

The paper's minSupport/minJoin strategies "determine the cost of each
alternative query plan and return the cheapest"; the demo text does not
spell the formulas out, so this module uses the textbook model:

* an index scan costs its output cardinality (reading an ordered
  dictionary's run is linear in matching entries; finding its start is
  negligible);
* output cardinality of a join is estimated under the uniform-value
  independence assumption: ``|L ∘ R| ≈ |L| * |R| / |V|``;
* a merge join reads both sorted inputs once:
  ``cost = |L| + |R| + |out|``;
* a hash join additionally pays a build factor on its smaller input:
  ``cost = |L| + |R| + |out| + HASH_BUILD_FACTOR * min(|L|, |R|)``.

All estimates flow from a :class:`~repro.indexes.statistics.Statistics`
provider, so swapping the equi-depth histogram for exact statistics (or
the information-free baseline) is a one-argument ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.graph import Graph, LabelPath
from repro.engine.plan import (
    IdentityPlan,
    IndexScanPlan,
    JoinPlan,
    Order,
    PlanNode,
)

#: Extra per-row cost of building a hash table, relative to streaming a
#: row through a merge join.  Calibrated loosely to CPython dict-insert
#: vs list-append; the planner only needs the *relative* penalty.
HASH_BUILD_FACTOR = 1.5

#: Extra per-row cost of an inverse-path scan: the executor materializes
#: it as a scan of the inverted path plus a column swap.  The swap is
#: cheap (zero-copy in the columnar representation) but not free, and
#: without this term a direct and an inverse scan cost exactly the same
#: — the planner would pick inverse scans on ties even when the swapped
#: order buys nothing (no merge join consumes it).  Kept far below
#: :data:`HASH_BUILD_FACTOR` so an inverse scan that *enables* a merge
#: join still wins.
INVERSE_SWAP_FACTOR = 0.1


@dataclass(frozen=True, slots=True)
class CostedPlan:
    """A physical plan with its estimated cardinality and cost."""

    plan: PlanNode
    cardinality: float
    cost: float

    @property
    def order(self) -> Order:
        return self.plan.order


class CostModel:
    """Produces :class:`CostedPlan` nodes from statistics."""

    def __init__(self, statistics, graph: Graph):
        self._statistics = statistics
        self._node_count = max(graph.node_count, 1)

    # -- estimates ------------------------------------------------------------

    def path_cardinality(self, path: LabelPath) -> float:
        """Estimated ``|p(G)|``; long paths decompose by independence."""
        if len(path) <= self._statistics.k:
            return self._statistics.estimated_count(path)
        estimate = self._statistics.estimated_count(path.prefix(self._statistics.k))
        remainder = path.subpath(self._statistics.k, len(path))
        return self.join_cardinality(estimate, self.path_cardinality(remainder))

    def join_cardinality(self, left_card: float, right_card: float) -> float:
        """Independence estimate for ``|L ∘ R|``."""
        return left_card * right_card / self._node_count

    # -- costed constructors --------------------------------------------------------

    def scan(self, path: LabelPath, via_inverse: bool = False) -> CostedPlan:
        """Cost an index scan of ``path`` (optionally via its inverse).

        An inverse scan pays the extra swap term, so on plans where the
        target-major order buys nothing the direct scan wins the tie.
        """
        cardinality = self._statistics.estimated_count(path)
        cost = cardinality + 1.0
        if via_inverse:
            cost += INVERSE_SWAP_FACTOR * cardinality
        return CostedPlan(
            plan=IndexScanPlan(path, via_inverse=via_inverse),
            cardinality=cardinality,
            cost=cost,
        )

    def identity(self) -> CostedPlan:
        """Cost the identity (epsilon) relation."""
        return CostedPlan(
            plan=IdentityPlan(),
            cardinality=float(self._node_count),
            cost=float(self._node_count),
        )

    def join(self, left: CostedPlan, right: CostedPlan) -> CostedPlan:
        """Cost ``left ∘ right``, picking the algorithm from sort orders.

        A merge join is chosen exactly when the index sort orders line
        up (left by target, right by source) — the paper's rule.
        """
        mergeable = left.order is Order.BY_TGT and right.order is Order.BY_SRC
        algorithm = "merge" if mergeable else "hash"
        out_card = self.join_cardinality(left.cardinality, right.cardinality)
        cost = left.cost + right.cost + left.cardinality + right.cardinality + out_card
        if algorithm == "hash":
            cost += HASH_BUILD_FACTOR * min(left.cardinality, right.cardinality)
        return CostedPlan(
            plan=JoinPlan(left.plan, right.plan, algorithm),
            cardinality=out_card,
            cost=cost,
        )

    @staticmethod
    def cheapest(candidates: list[CostedPlan]) -> CostedPlan:
        """The minimum-cost candidate (ties broken deterministically)."""
        if not candidates:
            raise ValueError("no candidate plans")
        return min(candidates, key=lambda costed: (costed.cost, str(costed.plan)))
