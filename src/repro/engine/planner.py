"""The four plan-generation strategies of the paper (Sections 4-5).

Every strategy receives a query in normal form (a union of label
paths, produced by :mod:`repro.rpq.rewrite`) and plans each disjunct:

* **naive** — k is treated as 1: the disjunct is split into single
  steps, planned left to right.  The first join can still be a merge
  join (scan the first step via its inverse); the rest are hash joins.
  This corresponds to automaton-style stepping (approach 1).
* **semi-naive** — the disjunct is split greedily left-to-right into
  chunks of length k; the leading chunk is scanned via its inverse so
  the first join is a merge join, later joins are hash joins.  This is
  exactly the worked example of Section 4.
* **minSupport** — recursive: find the most selective length-k subpath
  ``D'`` (smallest histogram estimate), split ``D = Dleft ∘ D' ∘ Dright``,
  recur on the sides, and cost the paper's four alternatives
  (two associativities × scanning ``D'`` directly or via its inverse),
  keeping the cheapest.
* **minJoin** — like minSupport but constrained to the *minimum number
  of joins*: the disjunct is split into ``ceil(n/k)`` chunks (the
  cheapest such chunking by estimated scan volume), then the best join
  tree over those chunks is found by interval dynamic programming with
  sort orders as interesting properties.

All strategies share the convention that a subpath of length <= k has
two scan candidates: the direct scan (sorted by source) and the
inverse-path scan (sorted by target), which is what makes merge joins
available at all (System-R-style interesting orders).
"""

from __future__ import annotations

import enum
import math

from repro.errors import PlanningError
from repro.graph.graph import Graph, LabelPath
from repro.engine.cost import CostModel, CostedPlan
from repro.engine.plan import PlanNode, UnionPlan
from repro.rpq.rewrite import NormalForm


class Strategy(enum.Enum):
    """Evaluation strategies compared in the paper's Figure 2."""

    NAIVE = "naive"
    SEMI_NAIVE = "semi-naive"
    MIN_SUPPORT = "minsupport"
    MIN_JOIN = "minjoin"

    @classmethod
    def parse(cls, name: str) -> "Strategy":
        normalized = name.strip().lower().replace("_", "-")
        for strategy in cls:
            aliases = (strategy.value, strategy.name.lower().replace("_", "-"))
            if normalized in aliases:
                return strategy
        raise PlanningError(
            f"unknown strategy {name!r}; expected one of "
            f"{[strategy.value for strategy in cls]}"
        )


class Planner:
    """Plans normal-form queries against a k-path index."""

    def __init__(
        self,
        k: int,
        statistics,
        graph: Graph,
        strategy: Strategy = Strategy.MIN_SUPPORT,
    ):
        if k < 1:
            raise PlanningError(f"k must be >= 1, got {k}")
        self.k = k
        self.strategy = strategy
        self._cost_model = CostModel(statistics, graph)
        self._statistics = statistics

    # -- entry points ----------------------------------------------------------

    def plan(self, normal_form: NormalForm) -> CostedPlan:
        """Plan a whole query: a union over per-disjunct plans."""
        parts: list[CostedPlan] = []
        if normal_form.has_epsilon:
            parts.append(self._cost_model.identity())
        parts.extend(self.plan_path(path) for path in normal_form.paths)
        if not parts:
            raise PlanningError("cannot plan an empty query")
        if len(parts) == 1:
            return parts[0]
        return CostedPlan(
            plan=UnionPlan(tuple(part.plan for part in parts)),
            cardinality=sum(part.cardinality for part in parts),
            cost=sum(part.cost for part in parts),
        )

    def plan_path(self, path: LabelPath) -> CostedPlan:
        """Plan one label-path disjunct with the configured strategy."""
        if self.strategy is Strategy.NAIVE:
            return self._left_to_right(path, chunk_size=1)
        if self.strategy is Strategy.SEMI_NAIVE:
            return self._left_to_right(path, chunk_size=self.k)
        if self.strategy is Strategy.MIN_SUPPORT:
            return self._cheapest(self._min_support(path))
        if self.strategy is Strategy.MIN_JOIN:
            return self._min_join(path)
        raise PlanningError(f"unhandled strategy {self.strategy}")

    # -- naive / semi-naive ---------------------------------------------------------

    def _left_to_right(self, path: LabelPath, chunk_size: int) -> CostedPlan:
        """Greedy left-to-right chunking (paper's semi-naive; naive at 1).

        The leading chunk is scanned via its inverse so the first join
        is a merge join; every later join input is an unordered join
        result, hence hash joins — exactly the Section 4 example.
        """
        chunks = _chunk(path, chunk_size)
        if len(chunks) == 1:
            return self._cost_model.scan(chunks[0])
        current = self._cost_model.scan(chunks[0], via_inverse=True)
        for chunk in chunks[1:]:
            current = self._cost_model.join(current, self._cost_model.scan(chunk))
        return current

    # -- minSupport --------------------------------------------------------------------

    def _min_support(self, path: LabelPath) -> dict[object, CostedPlan]:
        """Best candidate plans per sort order for ``path``."""
        if len(path) <= self.k:
            direct = self._cost_model.scan(path)
            swapped = self._cost_model.scan(path, via_inverse=True)
            return {direct.order: direct, swapped.order: swapped}

        window = self._most_selective_window(path)
        left_part = path.subpath(0, window) if window > 0 else None
        right_start = window + self.k
        right_part = (
            path.subpath(right_start, len(path)) if right_start < len(path) else None
        )
        pivot = path.subpath(window, window + self.k)
        pivot_candidates = [
            self._cost_model.scan(pivot),
            self._cost_model.scan(pivot, via_inverse=True),
        ]

        alternatives: list[CostedPlan] = []
        left_candidates = (
            list(self._min_support(left_part).values()) if left_part else []
        )
        right_candidates = (
            list(self._min_support(right_part).values()) if right_part else []
        )

        if left_part and right_part:
            for left in left_candidates:
                for pivot_plan in pivot_candidates:
                    for right in right_candidates:
                        # [LEFT ⋈ D'] ⋈ RIGHT
                        alternatives.append(
                            self._cost_model.join(
                                self._cost_model.join(left, pivot_plan), right
                            )
                        )
                        # LEFT ⋈ [D' ⋈ RIGHT]
                        alternatives.append(
                            self._cost_model.join(
                                left, self._cost_model.join(pivot_plan, right)
                            )
                        )
        elif left_part:
            for left in left_candidates:
                for pivot_plan in pivot_candidates:
                    alternatives.append(self._cost_model.join(left, pivot_plan))
        else:
            for pivot_plan in pivot_candidates:
                for right in right_candidates:
                    alternatives.append(self._cost_model.join(pivot_plan, right))

        best = self._cost_model.cheapest(alternatives)
        return {best.order: best}

    def _most_selective_window(self, path: LabelPath) -> int:
        """Start offset of the length-k subpath with the smallest estimate."""
        best_offset = 0
        best_estimate = math.inf
        for offset in range(len(path) - self.k + 1):
            window = path.subpath(offset, offset + self.k)
            estimate = self._statistics.estimated_count(window)
            if estimate < best_estimate:
                best_estimate = estimate
                best_offset = offset
        return best_offset

    # -- minJoin -----------------------------------------------------------------------

    def _min_join(self, path: LabelPath) -> CostedPlan:
        """Minimal-join planning: cheapest ⌈n/k⌉-chunking + join-order DP."""
        if len(path) <= self.k:
            return self._cost_model.scan(path)
        chunks = self._cheapest_minimal_chunking(path)
        return self._join_order_dp(chunks)

    def _cheapest_minimal_chunking(self, path: LabelPath) -> list[LabelPath]:
        """Split into ``ceil(n/k)`` chunks minimizing estimated scan volume."""
        length = len(path)
        chunk_count = math.ceil(length / self.k)
        best: tuple[float, list[LabelPath]] | None = None
        for split in _compositions(length, chunk_count, self.k):
            chunks: list[LabelPath] = []
            offset = 0
            for size in split:
                chunks.append(path.subpath(offset, offset + size))
                offset += size
            volume = sum(self._statistics.estimated_count(chunk) for chunk in chunks)
            if best is None or volume < best[0]:
                best = (volume, chunks)
        assert best is not None
        return best[1]

    def _join_order_dp(self, chunks: list[LabelPath]) -> CostedPlan:
        """Interval DP over the chunk chain, tracking interesting orders."""
        count = len(chunks)
        table: dict[tuple[int, int], dict[object, CostedPlan]] = {}
        for index, chunk in enumerate(chunks):
            direct = self._cost_model.scan(chunk)
            swapped = self._cost_model.scan(chunk, via_inverse=True)
            table[(index, index)] = {direct.order: direct, swapped.order: swapped}
        for span in range(2, count + 1):
            for start in range(0, count - span + 1):
                end = start + span - 1
                candidates: list[CostedPlan] = []
                for split in range(start, end):
                    for left in table[(start, split)].values():
                        for right in table[(split + 1, end)].values():
                            candidates.append(self._cost_model.join(left, right))
                best = self._cost_model.cheapest(candidates)
                table[(start, end)] = {best.order: best}
        return self._cheapest(table[(0, count - 1)])

    # -- shared helpers ----------------------------------------------------------------

    def _cheapest(self, candidates: dict[object, CostedPlan]) -> CostedPlan:
        return self._cost_model.cheapest(list(candidates.values()))


def _chunk(path: LabelPath, size: int) -> list[LabelPath]:
    return [
        path.subpath(offset, min(offset + size, len(path)))
        for offset in range(0, len(path), size)
    ]


def _compositions(total: int, parts: int, max_part: int):
    """All ways to write ``total`` as ``parts`` ordered pieces of 1..max_part."""
    if parts == 1:
        if 1 <= total <= max_part:
            yield [total]
        return
    lower = max(1, total - (parts - 1) * max_part)
    upper = min(max_part, total - (parts - 1))
    for first in range(lower, upper + 1):
        for rest in _compositions(total - first, parts - 1, max_part):
            yield [first] + rest


def plan_to_string(plan: PlanNode) -> str:
    """Convenience re-export of :func:`repro.engine.plan.render`."""
    from repro.engine.plan import render

    return render(plan)
