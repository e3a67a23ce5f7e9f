"""Selectivity statistics interfaces (Section 3.2).

The planner asks one question: *how many pairs does label path ``p``
have?*  Two implementations answer it:

* :class:`ExactStatistics` — the true catalog counts (an ablation
  upper bound on what any synopsis can achieve);
* :class:`~repro.indexes.histogram.EquiDepthHistogram` — the paper's
  lightweight equi-depth histogram.

Both expose ``estimated_count`` (absolute cardinality estimate) and
``selectivity`` (the paper's ``sel_{G,k}``: the fraction of
``paths_k(G)`` satisfying ``p``).

One shard of a :class:`~repro.sharding.ShardedGraph` is described by
an :class:`ExactStatistics` over *that shard's* catalog
(:meth:`~repro.sharding.ShardedGraph.shard_statistics`): a count of
zero proves the shard's slice of a path empty, which is all shard
pruning asks.  Summing the per-shard counts over all shards reproduces
the global catalog exactly (the partition rule makes slices disjoint),
so the merged view agrees with :meth:`ExactStatistics.from_index` —
the property the hypothesis suite pins.
"""

from __future__ import annotations

from typing import Protocol

from repro.errors import ValidationError
from repro.graph.graph import Graph, LabelPath
from repro.graph.stats import count_paths_k
from repro.indexes.pathindex import PathIndex


class Statistics(Protocol):
    """What the cost model needs from a statistics provider."""

    k: int
    total_paths_k: int

    def estimated_count(self, path: LabelPath) -> float:
        """Estimated ``|p(G)|`` for a path of length <= k."""
        ...

    def selectivity(self, path: LabelPath) -> float:
        """Estimated ``sel_{G,k}(p) = |p(G)| / |paths_k(G)|``."""
        ...


class ExactStatistics:
    """Exact per-path counts taken from the index catalog."""

    def __init__(self, counts: dict[str, int], k: int, total_paths_k: int):
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        if total_paths_k < 1:
            raise ValidationError("total_paths_k must be positive")
        self._counts = dict(counts)
        self.k = k
        self.total_paths_k = total_paths_k

    @classmethod
    def from_index(
        cls, index: PathIndex, graph: Graph | None = None
    ) -> "ExactStatistics":
        """Build from a :class:`PathIndex` (computes ``|paths_k(G)|``)."""
        graph = graph if graph is not None else index.graph
        return cls(
            counts=index.counts_by_path(),
            k=index.k,
            total_paths_k=count_paths_k(graph, index.k),
        )

    @property
    def counts(self) -> dict[str, int]:
        """Per-path counts keyed by encoded label path (defensive copy).

        The full catalog view backs content fingerprints (the persisted
        plan-artifact cache keys its validity on exactly these counts).
        """
        return dict(self._counts)

    def estimated_count(self, path: LabelPath) -> float:
        self._check(path)
        return float(self._counts.get(path.encode(), 0))

    def selectivity(self, path: LabelPath) -> float:
        return self.estimated_count(path) / self.total_paths_k

    def _check(self, path: LabelPath) -> None:
        if len(path) > self.k:
            raise ValidationError(
                f"path {path} longer than statistics horizon k={self.k}"
            )

    def __repr__(self) -> str:
        return (
            f"ExactStatistics(k={self.k}, paths={len(self._counts)}, "
            f"total_paths_k={self.total_paths_k})"
        )


def merge_shard_counts(per_shard: list[dict[str, int]]) -> dict[str, int]:
    """Sum per-shard catalogs into the global catalog.

    This is the statistics *merge* a distributed deployment would run
    over the wire: per-shard ``{encoded path: count}`` dictionaries are
    the complete wire format, and addition is the whole merge (slices
    are disjoint by the partition rule).  Used by
    :meth:`repro.sharding.ShardedGraph.counts_by_path` and pinned
    against the unsharded catalog by the statistics test suite.
    """
    merged: dict[str, int] = {}
    for counts in per_shard:
        for encoded, count in counts.items():
            merged[encoded] = merged.get(encoded, 0) + count
    return merged


class UniformStatistics:
    """A deliberately information-free estimator (ablation baseline).

    Every path of the same length gets the same estimate, derived only
    from the average edge count — roughly what a planner knows with no
    statistics at all.
    """

    def __init__(self, graph: Graph, k: int):
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        self.k = k
        self.total_paths_k = max(count_paths_k(graph, k), 1)
        labels = graph.labels()
        edges = sum(graph.label_edge_count(label) for label in labels)
        self._avg_step_count = edges / max(len(labels), 1)
        self._nodes = max(graph.node_count, 1)

    def estimated_count(self, path: LabelPath) -> float:
        if len(path) > self.k:
            raise ValidationError(
                f"path {path} longer than statistics horizon k={self.k}"
            )
        estimate = self._avg_step_count
        for _ in range(len(path) - 1):
            estimate = estimate * self._avg_step_count / self._nodes
        return estimate

    def selectivity(self, path: LabelPath) -> float:
        return self.estimated_count(path) / self.total_paths_k
