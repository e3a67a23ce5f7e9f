"""Multi-process serving: shard workers, an RPC coordinator, and a
thread-per-connection HTTP front door.

The process architecture the ROADMAP's "millions of users" north star
asks for:

* :mod:`repro.serve.worker` — one process per shard, owning that
  shard's :class:`~repro.indexes.pathindex.PathIndex` and answering
  scan/lookup/mutate requests over a length-prefixed socket protocol
  (:mod:`repro.serve.protocol`).
* :mod:`repro.serve.coordinator` — :class:`CoordinatorDatabase`, a
  :class:`~repro.api.GraphDatabase` whose sharded index is a set of
  RPC stubs; the in-process scatter-gather engine, scatter pruning,
  prepared plans and degraded answers all run unmodified over it.
* :mod:`repro.serve.server` — the HTTP/JSON front door, one thread per
  connection, with bounded connections and concurrency, backpressure
  and worker supervision, behind the
  ``repro-rpq serve`` CLI entry point.

Clients live in :mod:`repro.client` (sync and async, one codec).
"""

__all__ = [
    "CoordinatorDatabase",
    "RpcShardedGraph",
    "WorkerHandle",
    "launch_workers",
]

#: Lazy re-exports (PEP 562).  The write path (``repro.write.log``)
#: borrows the frame codec from :mod:`repro.serve.protocol`, and
#: ``repro.api`` imports the write path — an eager coordinator import
#: here would close that loop back into ``repro.api`` before it
#: finishes initializing.
_EXPORTS = {
    "CoordinatorDatabase": "repro.serve.coordinator",
    "RpcShardedGraph": "repro.serve.coordinator",
    "WorkerHandle": "repro.serve.worker",
    "launch_workers": "repro.serve.worker",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
