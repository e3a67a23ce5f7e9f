"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one base class at an API
boundary.  Subsystems raise the most specific subclass that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Invalid graph construction or access (bad label, unknown node, ...)."""


class UnknownNodeError(GraphError):
    """A node name or identifier is not present in the graph."""


class ParseError(ReproError):
    """The RPQ text could not be parsed.

    Attributes
    ----------
    position:
        Zero-based character offset of the offending token, or ``None``
        when the error is not tied to a single position.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class RewriteError(ReproError):
    """An RPQ could not be rewritten into the planner's normal form."""


class PlanningError(ReproError):
    """No physical plan could be produced for a query."""


class ExecutionError(ReproError):
    """A physical plan failed during execution."""


class PathIndexError(ReproError):
    """The k-path index was used incorrectly (e.g. path longer than k)."""


class StorageError(ReproError):
    """Low-level storage failure (corrupt index image, codec error, ...)."""


class TransientError(Exception):
    """Mixin marking a failure as safe to retry.

    Not raised directly: concrete errors multiply-inherit it next to
    their domain base (e.g. :class:`TransientStorageError`), so retry
    loops can classify by ``isinstance(error, TransientError)`` while
    API boundaries keep catching the domain hierarchy.  Anything *not*
    carrying this mixin is permanent by definition — retrying it would
    only repeat the failure.
    """


class TransientStorageError(TransientError, StorageError):
    """A storage failure expected to succeed on retry (I/O hiccup,
    injected fault, contended handle) — as opposed to a permanent
    :class:`StorageError` like a corrupt image or a bad magic number."""


class WireError(StorageError):
    """A malformed or corrupt RPC frame (bad magic, truncated body,
    impossible length) — permanent for the payload in question, so it
    participates in storage-error handling: strict executions surface
    it, ``degraded=True`` drops the affected shard slice."""


class TransientWireError(TransientError, WireError):
    """An RPC transport hiccup expected to succeed on retry
    (connection reset, EOF mid-frame, socket timeout, backpressure
    rejection) — as opposed to a permanent :class:`WireError` like a
    frame that decoded to garbage."""


class QueryTimeoutError(ReproError):
    """A query exceeded its cooperative deadline (``timeout_ms``).

    Attributes
    ----------
    counters:
        The partial :class:`repro.engine.operators.ScatterCounters` at
        the moment the deadline fired, or ``None`` when the timeout hit
        outside a counted execution (e.g. on the unsharded path).
    """

    def __init__(self, message: str, counters=None):
        super().__init__(message)
        self.counters = counters


class ShardUnavailableError(ReproError):
    """A shard stayed down after retries (crash or exhausted transients).

    Permanent for the current execution: ``query(degraded=True)`` turns
    it into a partial answer; the default strict mode propagates it.

    Attributes
    ----------
    shard:
        The shard that failed, or ``None`` when unknown.
    """

    def __init__(self, message: str, shard: int | None = None):
        super().__init__(message)
        self.shard = shard


class ValidationError(ReproError):
    """An argument failed validation at an API boundary."""
