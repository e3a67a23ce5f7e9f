"""The write path: mutation values, the log, group commit, deltas.

Layering (bottom up):

* :mod:`repro.write.mutation` — :class:`Mutation`/:class:`MutationBatch`
  value types and :class:`ApplyResult`, the unified write API surface.
* :mod:`repro.write.log` — the crash-safe append-only
  :class:`MutationLog` (WAL records in the serve frame format).
* :mod:`repro.write.commit` — :class:`GroupCommitter`, coalescing many
  writers into one flush + one patch per shard.
* :mod:`repro.write.delta` — staging a commit group into per-shard
  column edits via the localized ``edge_delta`` algorithm.

``GraphDatabase.apply`` (and its coordinator/client/CLI mirrors) is the
single entry point that threads these together.
"""

from repro.write.commit import GroupCommitter
from repro.write.log import MutationLog
from repro.write.mutation import ApplyResult, Mutation, MutationBatch

__all__ = [
    "ApplyResult",
    "GroupCommitter",
    "Mutation",
    "MutationBatch",
    "MutationLog",
]
