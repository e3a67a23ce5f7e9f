"""Service configuration: every deployment knob in one frozen object.

Everything a :class:`~repro.api.GraphDatabase` deployment can tune —
backend selection, cache budgets, shard counts, the write path, the
serve front door — is a field of
:class:`ServiceConfig`, passed to the database as ``config=``:

>>> from repro.config import ServiceConfig
>>> config = ServiceConfig(k=3, shards=4)
>>> config.resolved_shards()
4

Environment resolution is centralized here too: ``shards=None`` defers
to ``REPRO_DEFAULT_SHARDS`` (:func:`default_shard_count`), evaluated at
*use* (:meth:`ServiceConfig.resolved_shards`), not at construction — a
config object is a value, the environment is deployment state.

The serve layer (``repro.serve``) reads the ``host`` / ``port`` /
``max_inflight`` / ``queue_limit`` fields; the embedded engine ignores
them.  There is no worker-pool field: work inside one database runs
on the calling thread, and parallelism is one process per shard
(``repro serve``) plus the caller's own threads.  ``config=`` is the
only way to set any of this: :class:`repro.api.GraphDatabase` takes no
per-knob keyword arguments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

from repro.errors import ValidationError


def default_shard_count() -> int:
    """The shard count used when ``shards=None``.

    Reads ``REPRO_DEFAULT_SHARDS`` so a whole process — notably the CI
    ``sharded-stress`` run of the test suite — can route every
    default-configured database through the sharded engine without
    touching call sites.  Unset or empty means 1 (one shard); garbage
    fails loudly rather than silently testing the wrong engine.
    """
    raw = os.environ.get("REPRO_DEFAULT_SHARDS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(
            f"REPRO_DEFAULT_SHARDS must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValidationError(f"REPRO_DEFAULT_SHARDS must be >= 1, got {value}")
    return value


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Everything a :class:`repro.api.GraphDatabase` deployment can tune.

    Scatter-gather has no field: shard pruning is sound, so it is always
    on.  Serve fields configure the ``repro-rpq serve`` front door only.
    """

    # -- engine -----------------------------------------------------------
    k: int = 2
    backend: str = "memory"
    index_path: str | Path | None = None
    histogram_buckets: int = 64
    query_cache_size: int = 128
    query_cache_max_pairs: int = 1_000_000
    #: ``None`` defers to ``REPRO_DEFAULT_SHARDS`` (default 1).
    shards: int | None = None
    #: Hash seed of the vertex-to-shard map; ``rebalance()`` re-seeds
    #: it when a skewed mutation stream unbalances the shards.
    shard_seed: int = 0
    # -- write path --------------------------------------------------------
    #: Append-only WAL backing ``apply()``; ``None`` disables logging
    #: (mutations are then non-durable, the pre-PR-10 behavior).
    mutation_log_path: str | Path | None = None
    #: Group-commit coalescing window: the commit leader waits this
    #: long for concurrent writers before flushing.  0 commits
    #: immediately (a lone writer pays no added latency).
    group_commit_ms: float = 0.0
    #: Batches one commit group may coalesce (arrival cap per flush).
    group_commit_max: int = 64
    #: Patch touched shards with index deltas instead of rebuilding the
    #: shard ball (memory backend only; rebuild is the fallback).
    delta_patching: bool = True
    #: Dirty-pair budget per commit group; past it the delta is deemed
    #: non-local and the group falls back to the ball rebuild.
    delta_max_pairs: int = 20_000
    # -- serve front door -------------------------------------------------
    host: str = "127.0.0.1"
    #: 0 lets the OS pick (the bound port is reported by the server).
    port: int = 0
    #: Queries executing concurrently before new ones queue.
    max_inflight: int = 8
    #: Queries allowed to wait; beyond this the server answers 503.
    queue_limit: int = 16

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if self.shards is not None and self.shards < 1:
            raise ValidationError(f"shards must be >= 1, got {self.shards}")
        if self.shard_seed < 0:
            raise ValidationError(
                f"shard_seed must be >= 0, got {self.shard_seed}"
            )
        if self.group_commit_ms < 0:
            raise ValidationError(
                f"group_commit_ms must be >= 0, got {self.group_commit_ms}"
            )
        if self.group_commit_max < 1:
            raise ValidationError(
                f"group_commit_max must be >= 1, got {self.group_commit_max}"
            )
        if self.delta_max_pairs < 1:
            raise ValidationError(
                f"delta_max_pairs must be >= 1, got {self.delta_max_pairs}"
            )
        if self.max_inflight < 1:
            raise ValidationError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.queue_limit < 0:
            raise ValidationError(
                f"queue_limit must be >= 0, got {self.queue_limit}"
            )

    def resolved_shards(self) -> int:
        """The effective shard count: explicit value or the env default."""
        return self.shards if self.shards is not None else default_shard_count()

    def with_overrides(self, **changes) -> "ServiceConfig":
        """A copy with the listed fields replaced (it is frozen)."""
        return replace(self, **changes)
