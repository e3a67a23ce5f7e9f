"""Thread-coordination primitives for the query service layer.

The serving story of the paper — a k-path index cheap enough to answer
"heavy traffic" directly — needs the :class:`repro.api.GraphDatabase`
facade to survive concurrent readers and writers.  CPython's GIL keeps
individual bytecodes atomic but nothing larger: an LRU being reordered
by one thread while another evicts from it, or a query computing its
cache key against one graph version and reading the index of another,
are real interleavings, not theoretical ones.

This module provides the two primitives the engine needs:

* :class:`ReadWriteLock` — a writer-preferring shared/exclusive lock.
  Any number of queries (readers) proceed concurrently; a mutation or
  index rebuild (writer) waits for in-flight readers, blocks new ones,
  and runs alone.  Writer preference keeps a steady stream of queries
  from starving mutations.
* :class:`BoundedLRU` — the one bounded cache.  Whole answers, plans,
  shard-pruning decisions and fetched worker slices are each kept in
  one, under an entry cap, a weight cap (answer pairs) or both.

The lock is deliberately *not* reentrant: the facade resolves lazy
state (``_ensure_built``) before entering a read section, so no code
path ever acquires the lock twice on one thread.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Hashable, Iterator


class ReadWriteLock:
    """A shared (read) / exclusive (write) lock, writer-preferring.

    ``read_locked()`` sections run concurrently with each other;
    ``write_locked()`` sections run alone.  Once a writer is waiting,
    new readers queue behind it, so writers cannot be starved by a
    continuous reader stream.

    Invariant (machine-checked by ``repro lint``, rule
    ``lock-discipline``): guarded ``GraphDatabase`` state is only
    written inside ``write_locked()``/``_cache_lock`` sections or
    ``*_locked`` methods, and nothing mutates under a read lock.
    """

    __slots__ = ("_condition", "_active_readers", "_writer_active", "_writers_waiting")

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    # -- reader side ----------------------------------------------------

    def acquire_read(self) -> None:
        with self._condition:
            while self._writer_active or self._writers_waiting:
                self._condition.wait()
            self._active_readers += 1

    def release_read(self) -> None:
        with self._condition:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._condition.notify_all()

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """Context manager for a shared section."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    # -- writer side ----------------------------------------------------

    def acquire_write(self) -> None:
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._condition:
            self._writer_active = False
            self._condition.notify_all()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """Context manager for an exclusive section."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    def __repr__(self) -> str:
        return (
            f"ReadWriteLock(readers={self._active_readers}, "
            f"writer={self._writer_active}, "
            f"waiting={self._writers_waiting})"
        )


class BoundedLRU:
    """A thread-safe map of at most ``max_entries`` entries whose
    weights sum to at most ``max_weight``, least recently used out first.

    A lookup or store makes its key the most recent.  :meth:`put` evicts
    until both caps hold, and refuses a value heavier than ``max_weight``
    (keeping what the key held), so one huge value cannot flush the
    cache.  ``None`` is never stored: :meth:`get` returns it for a miss,
    counted in ``misses`` (found ones in ``hits``).
    """

    def __init__(
        self, max_entries: float = math.inf, max_weight: float = math.inf
    ) -> None:
        self.max_entries = max_entries
        self.max_weight = max_weight
        self.weight = self.hits = self.misses = 0
        self._data: OrderedDict[Hashable, tuple[object, int]] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable):
        """The value kept under ``key``, or ``None``."""
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return entry[0]

    def fetch(self, key: Hashable, compute: Callable, weigh: Callable | None = None):
        """:meth:`get`, or on a miss ``compute()``, kept at ``weigh(value)``."""
        value = self.get(key)
        if value is None:
            value = compute()
            self.put(key, value, 1 if weigh is None else weigh(value))
        return value

    def put(self, key: Hashable, value, weight: int = 1) -> None:
        """Keep ``value`` under ``key``, unless it alone outweighs the cap."""
        if weight > self.max_weight:
            return
        with self._lock:
            replaced = self._data.pop(key, None)
            if replaced is not None:
                self.weight -= replaced[1]
            self._data[key] = (value, weight)
            self.weight += weight
            while len(self._data) > self.max_entries or self.weight > self.max_weight:
                self.weight -= self._data.popitem(last=False)[1][1]

    def clear(self) -> None:
        """Drop every entry (the counts are kept)."""
        with self._lock:
            self._data.clear()
            self.weight = 0

    def __len__(self) -> int:
        return len(self._data)
