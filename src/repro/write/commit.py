"""Group commit: many writers, one flush, one patch per shard.

Writers from many client threads call
:meth:`GroupCommitter.submit` concurrently.  The first arrival becomes
the *leader*: it drains the queue (up to :data:`MAX_GROUP` batches) and
runs the commit callable once for the whole group — one write-lock
acquisition, one log append run + one ``fsync``, one index delta per
touched shard — then hands each follower its own
:class:`~repro.write.mutation.ApplyResult`.  Followers just park on the
condition variable; a follower whose batch was not drained becomes the
next leader when the current one finishes.  There is no coalescing
window: a leader never waits for company.  Batches that queue while a
leader commits go out together as the next group.

The payoff is the classic WAL group commit: under a write storm of N
concurrent clients the per-batch cost collapses from "one fsync + one
shard patch each" to "1/N of one fsync + 1/N of a merged patch", while
a lone writer pays no added latency at all.

Failure is all-or-nothing per group: if the commit callable raises
(a failed flush, a poisoned rebuild), every batch in the group gets
the same error and the leader re-raises it; nothing was acknowledged,
so re-submitting is safe.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

from repro.errors import ReproError
from repro.write.mutation import ApplyResult, MutationBatch

#: Commit callable: all batches of one group, in arrival order, to
#: their per-batch results (same length, same order).
CommitFn = Callable[[Sequence[MutationBatch]], Sequence[ApplyResult]]

#: Batches one leader drains: arrivals beyond it form the next group,
#: so one flush never grows unboundedly large.
MAX_GROUP = 64


class _Ticket:
    __slots__ = ("batch", "result", "error", "done")

    def __init__(self, batch: MutationBatch) -> None:
        self.batch = batch
        self.result: ApplyResult | None = None
        self.error: BaseException | None = None
        self.done = False


class GroupCommitter:
    """Serialize batches into leader-flushed commit groups."""

    def __init__(self, commit: CommitFn) -> None:
        self._commit = commit
        self._cond = threading.Condition()
        self._queue: list[_Ticket] = []
        self._leader_active = False
        #: Commit groups flushed (telemetry, read by ``stats()``).
        self.groups = 0
        #: Batches that rode another batch's flush (group size - 1, summed).
        self.coalesced = 0

    def submit(self, batch: MutationBatch) -> ApplyResult:
        """Commit ``batch`` (possibly coalesced); block until durable."""
        ticket = _Ticket(batch)
        group: list[_Ticket] | None = None
        with self._cond:
            self._queue.append(ticket)
            self._cond.notify_all()
            while not ticket.done:
                if not self._leader_active and self._queue[0] is ticket:
                    self._leader_active = True
                    group = self._queue[:MAX_GROUP]
                    del self._queue[:MAX_GROUP]
                    break
                self._cond.wait()
        if group is not None:
            try:
                self._run_group(group)
            finally:
                with self._cond:
                    self._leader_active = False
                    self._cond.notify_all()
        if ticket.error is not None:
            raise ticket.error
        assert ticket.result is not None
        return ticket.result

    def _run_group(self, group: list[_Ticket]) -> None:
        """Run the commit callable; never raises (errors go to tickets)."""
        try:
            results = self._commit([ticket.batch for ticket in group])
            if len(results) != len(group):
                raise ReproError(
                    f"commit returned {len(results)} results for a group "
                    f"of {len(group)}"
                )
        except BaseException as error:
            with self._cond:
                for ticket in group:
                    ticket.error = error
                    ticket.done = True
                self._cond.notify_all()
            return
        with self._cond:
            self.groups += 1
            self.coalesced += len(group) - 1
            for ticket, result in zip(group, results):
                ticket.result = result
                ticket.done = True
            self._cond.notify_all()
