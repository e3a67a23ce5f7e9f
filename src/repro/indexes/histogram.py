"""The k-path equi-depth histogram ``sel_{G,k}`` (Section 3.2).

The paper compresses per-path counts into an equi-depth histogram:
label paths are ordered (lexicographically by their encoding, matching
the index sort order), and bucket boundaries are chosen so each bucket
holds approximately the same *total* count ("depth").  A path's
estimate is its bucket's average count; paths outside every bucket
(pruned empty paths) estimate to zero.
"""

from __future__ import annotations

import bisect

from repro.errors import ValidationError
from repro.graph.graph import LabelPath
from repro.indexes.pathindex import PathIndex


class EquiDepthHistogram:
    """Equi-depth histogram over per-path counts."""

    def __init__(
        self,
        boundaries: list[str],
        bucket_paths: list[int],
        bucket_totals: list[int],
        k: int,
    ):
        if not (len(boundaries) == len(bucket_paths) == len(bucket_totals)):
            raise ValidationError("histogram arrays must be parallel")
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        self._boundaries = boundaries  # first encoded path of each bucket
        self._bucket_paths = bucket_paths  # number of paths per bucket
        self._bucket_totals = bucket_totals  # total count per bucket
        self.k = k

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_counts(
        cls,
        counts: dict[str, int],
        k: int,
        buckets: int = 64,
    ) -> "EquiDepthHistogram":
        """Build from encoded-path -> count with ~equal depth per bucket."""
        if buckets < 1:
            raise ValidationError(f"buckets must be >= 1, got {buckets}")
        ordered = sorted(counts.items())
        if not ordered:
            return cls([], [], [], k)
        grand_total = sum(count for _, count in ordered)
        target_depth = max(grand_total / buckets, 1.0)

        boundaries: list[str] = []
        bucket_paths: list[int] = []
        bucket_totals: list[int] = []
        current_paths = 0
        current_total = 0
        current_first: str | None = None
        for encoded, count in ordered:
            if current_first is None:
                current_first = encoded
            current_paths += 1
            current_total += count
            if current_total >= target_depth and len(boundaries) < buckets - 1:
                boundaries.append(current_first)
                bucket_paths.append(current_paths)
                bucket_totals.append(current_total)
                current_first = None
                current_paths = 0
                current_total = 0
        if current_first is not None:
            boundaries.append(current_first)
            bucket_paths.append(current_paths)
            bucket_totals.append(current_total)
        return cls(boundaries, bucket_paths, bucket_totals, k)

    @classmethod
    def from_index(cls, index: PathIndex, buckets: int = 64) -> "EquiDepthHistogram":
        """Build from a :class:`PathIndex` catalog."""
        return cls.from_counts(index.counts_by_path(), k=index.k, buckets=buckets)

    # -- estimation ----------------------------------------------------------------

    @property
    def bucket_count(self) -> int:
        return len(self._boundaries)

    def estimated_count(self, path: LabelPath) -> float:
        """Bucket-average estimate of ``|p(G)|``."""
        if len(path) > self.k:
            raise ValidationError(
                f"path {path} longer than histogram horizon k={self.k}"
            )
        if not self._boundaries:
            return 0.0
        encoded = path.encode()
        bucket = bisect.bisect_right(self._boundaries, encoded) - 1
        if bucket < 0:
            return 0.0
        paths_in_bucket = self._bucket_paths[bucket]
        if paths_in_bucket == 0:
            return 0.0
        return self._bucket_totals[bucket] / paths_in_bucket

    # -- diagnostics -------------------------------------------------------------------

    def mean_absolute_error(self, counts: dict[str, int]) -> float:
        """Average |estimate - truth| over the given exact counts."""
        if not counts:
            return 0.0
        error = 0.0
        for encoded, truth in counts.items():
            estimate = self.estimated_count(LabelPath.decode(encoded))
            error += abs(estimate - truth)
        return error / len(counts)

    def __repr__(self) -> str:
        return f"EquiDepthHistogram(k={self.k}, buckets={self.bucket_count})"
