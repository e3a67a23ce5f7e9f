"""Physical query plans (Section 4, step 3).

A plan is a tree of immutable nodes:

* :class:`IndexScanPlan` — one ``I_{G,k}`` lookup.  ``via_inverse=True``
  means: scan the *inverse* path (also indexed) and swap each pair,
  which yields the same relation sorted by target — the paper's trick
  for feeding merge joins;
* :class:`JoinPlan` — relational composition ``left ∘ right`` with a
  fixed physical algorithm (``merge`` or ``hash``);
* :class:`IdentityPlan` — the epsilon disjunct;
* :class:`UnionPlan` — the top-level union over disjunct plans with
  duplicate elimination.

Sort orders are first-class (:class:`Order`): a merge join is legal iff
the left input is sorted by target and the right by source, mirroring
the physical sort order of the index.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.graph import LabelPath
from repro.relation import Order

__all__ = [
    "IdentityPlan",
    "IndexScanPlan",
    "JoinPlan",
    "Order",
    "PlanNode",
    "UnionPlan",
    "render",
]


class PlanNode:
    """Base class of physical plan nodes."""

    __slots__ = ()

    @property
    def order(self) -> Order:
        raise NotImplementedError

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def scan_count(self) -> int:
        """Number of index scans in the subtree."""
        own = 1 if isinstance(self, IndexScanPlan) else 0
        return own + sum(child.scan_count() for child in self.children())

    def join_count(self) -> int:
        """Number of joins in the subtree."""
        own = 1 if isinstance(self, JoinPlan) else 0
        return own + sum(child.join_count() for child in self.children())

    def merge_join_count(self) -> int:
        """Number of merge joins in the subtree."""
        own = 1 if isinstance(self, JoinPlan) and self.algorithm == "merge" else 0
        return own + sum(child.merge_join_count() for child in self.children())


@dataclass(frozen=True, slots=True)
class IndexScanPlan(PlanNode):
    """Scan ``I_{G,k}`` for one label path.

    The produced relation is always that of ``path`` itself;
    ``via_inverse`` only changes the physical access (scan
    ``path.inverted()`` and swap), and therefore the sort order.
    """

    path: LabelPath
    via_inverse: bool = False

    @property
    def order(self) -> Order:
        return Order.BY_TGT if self.via_inverse else Order.BY_SRC

    def __str__(self) -> str:
        if self.via_inverse:
            return f"IndexScan[{self.path.inverted()}] (swapped; {self.path})"
        return f"IndexScan[{self.path}]"


@dataclass(frozen=True, slots=True)
class JoinPlan(PlanNode):
    """Composition ``left ∘ right`` joining ``left.tgt = right.src``."""

    left: PlanNode
    right: PlanNode
    algorithm: str  # 'merge' | 'hash'

    def __post_init__(self) -> None:
        if self.algorithm not in ("merge", "hash"):
            raise ValueError(f"unknown join algorithm {self.algorithm!r}")

    @property
    def order(self) -> Order:
        # A merge join emits in join-key order, which is neither output
        # column; be conservative.
        return Order.NONE

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.algorithm}-join"


@dataclass(frozen=True, slots=True)
class IdentityPlan(PlanNode):
    """The identity relation over all nodes (epsilon disjunct)."""

    @property
    def order(self) -> Order:
        return Order.BY_SRC

    def __str__(self) -> str:
        return "Identity"


@dataclass(frozen=True, slots=True)
class UnionPlan(PlanNode):
    """Duplicate-eliminating union of disjunct plans."""

    parts: tuple[PlanNode, ...]

    @property
    def order(self) -> Order:
        return Order.NONE

    def children(self) -> tuple[PlanNode, ...]:
        return self.parts

    def __str__(self) -> str:
        return f"Union[{len(self.parts)}]"


def render(plan: PlanNode, indent: str = "") -> str:
    """Pretty-print a plan tree, one operator per line.

    >>> from repro.graph.graph import LabelPath
    >>> print(render(IndexScanPlan(LabelPath.of("knows"))))
    IndexScan[knows]
    """
    lines = [indent + str(plan)]
    children = plan.children()
    for position, child in enumerate(children):
        last = position == len(children) - 1
        branch = "└─ " if last else "├─ "
        continuation = "   " if last else "│  "
        child_text = render(child)
        child_lines = child_text.split("\n")
        lines.append(indent + branch + child_lines[0])
        lines.extend(indent + continuation + line for line in child_lines[1:])
    return "\n".join(lines)
