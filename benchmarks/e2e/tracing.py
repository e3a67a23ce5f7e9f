"""Outside-in tracing: spans around the program's layer boundaries.

Nothing under ``src/`` knows about tracing.  :class:`Tracer` swaps the
functions listed in :func:`targets` for timing wrappers — class
attributes for methods, and for module-level functions every ``repro``
module global bound to the function, because the engine imports many of
them by name — and puts the originals back afterwards.  Each span is
``(id, name, start, end, parent, op, value)``; the spans of one
operation share ``op``, the id of its root span.  A layer's self time
is its spans' durations minus the durations of their direct children,
so per operation the layer self times add up to the root span, which is
the latency the caller observed.

One request crosses threads when the server is hosted in this process:
the context of the client's ``_request`` span rides in the request body
(``"trace"``), and the handler span on the server thread adopts it as
parent.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    value: float | None


class Target(NamedTuple):
    """One function to wrap: where it lives and which layer it bills."""

    layer: str
    owner: object  # a class or a module
    attribute: str
    #: Optional count taken from the call's result (rows, bytes, ...).
    measure: Callable | None = None


def targets() -> list[Target]:
    """The layer boundaries, by this repo's module names."""
    from repro import api, client, csr, relation
    from repro.concurrency import ReadWriteLock
    from repro.engine import executor, operators
    from repro.graph import stats as graph_stats
    from repro.graph.graph import Graph
    from repro.indexes.histogram import EquiDepthHistogram
    from repro.indexes.pathindex import PathIndex
    from repro.indexes.statistics import ExactStatistics
    from repro.rpq import parser, rewrite
    from repro.serve import coordinator, protocol, server
    from repro.sharding import ShardedGraph
    from repro.write import delta
    from repro.write.log import MutationLog

    def rows(result):
        return len(result)

    def answer_rows(result):
        return len(result.pairs)

    def disjuncts(normal_form):
        return normal_form.disjunct_count

    def payload_bytes(reply):
        return len(reply[1])

    rpc_graph = coordinator.RpcShardedGraph
    return [
        # roots: what the caller waits on
        Target("api", api.GraphDatabase, "query", answer_rows),
        Target("write", api.GraphDatabase, "apply"),
        Target("serve.client", client.Client, "query", answer_rows),
        Target("serve.client", client.Client, "apply"),
        # client codec and the front door
        Target("serve.client", client, "decode_payload"),
        Target("serve.client", client, "decode_result"),
        # _request also carries the span context to the server (see Tracer).
        Target("serve.frontdoor", client.Client, "_request"),
        Target("serve.frontdoor", server.QueryServer, "_do_query"),
        Target("serve.frontdoor", server.QueryServer, "_do_apply"),
        Target("serve.frontdoor", server, "_result_payload"),
        # parse / rewrite / plan / execute
        Target("rpq.parse", parser, "parse"),
        Target("rpq.normalize", rewrite, "normalize", disjuncts),
        Target("planner", executor, "prepare_ast"),
        Target("executor", executor, "execute_prepared"),
        # index scans and kernels
        Target("pathindex", PathIndex, "scan", rows),
        Target("pathindex", PathIndex, "scan_swapped", rows),
        Target("relation.join", relation, "merge_join", rows),
        Target("relation.join", relation, "hash_join", rows),
        Target("relation.union", relation, "union", rows),
        Target("relation.union", relation, "dedup_sort", rows),
        Target("csr", relation, "transitive_fixpoint"),
        Target("csr", relation, "bounded_powers"),
        Target("csr", csr, "partitioned_closure"),
        Target("api.decode", Graph, "pairs_to_names"),
        Target("concurrency.read", ReadWriteLock, "acquire_read"),
        Target("concurrency.write", ReadWriteLock, "acquire_write"),
        # sharding and the RPC hop
        Target("sharding.scatter", operators, "execute_scattered"),
        Target("sharding.scatter", operators, "scattered_parts"),
        Target("sharding.scatter", ShardedGraph, "shard_scan"),
        Target("sharding.scatter", ShardedGraph, "shard_scan_swapped"),
        Target("sharding.scatter", rpc_graph, "shard_scan"),
        Target("sharding.scatter", rpc_graph, "shard_scan_swapped"),
        Target("sharding.gather", relation, "union_into", rows),
        Target("serve.rpc", coordinator.WorkerStub, "scan", rows),
        Target("serve.rpc", coordinator.WorkerStub, "_call", payload_bytes),
        Target("serve.rpc", rpc_graph, "apply_commit_group"),
        Target("protocol", protocol, "decode_relation"),
        # the write path
        Target("write.log", MutationLog, "append"),
        Target("write.log", MutationLog, "flush"),
        Target("write.stage", delta, "stage_group"),
        Target("write.stage", delta, "resolve_patch"),
        Target("write.patch", ShardedGraph, "patch_shards"),
        # set-up
        Target("builder", api.GraphDatabase, "_build_index_locked"),
        Target("builder", coordinator.CoordinatorDatabase, "_build_index_locked"),
        Target("statistics", graph_stats, "count_paths_k"),
        Target("statistics", EquiDepthHistogram, "from_counts"),
        Target("statistics", ExactStatistics, "from_index"),
        Target("statistics", ShardedGraph, "shard_statistics"),
    ]


#: Root span names by the kind of operation they start.
READ_ROOTS = ("GraphDatabase.query", "Client.query")
WRITE_ROOTS = ("GraphDatabase.apply", "Client.apply")
SETUP_ROOTS = (
    "GraphDatabase._build_index_locked",
    "CoordinatorDatabase._build_index_locked",
)
#: What set-up is traced with: workers fork during set-up, and must not
#: inherit wrappers around the scans they will serve.
SETUP_LAYERS = ("builder", "statistics")


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.layers: dict[str, str] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, func, measure=None, crossing: str | None = None):
        """``func`` timed as span ``name``.

        ``crossing`` marks the two ends of the thread hop: ``"send"``
        writes this span's context into the request body (the last
        positional argument), ``"receive"`` adopts the context found in
        the body as parent when the thread has no span open.
        """
        spans, ids, clock = self.spans, self._ids, time.perf_counter
        get_stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = get_stack()
            span_id = next(ids)
            parent, op = stack[-1] if stack else (None, span_id)
            if crossing == "receive" and not stack and "trace" in args[-1]:
                parent, op = args[-1]["trace"]
            elif crossing == "send" and isinstance(args[-1], dict):
                args[-1]["trace"] = [span_id, op]
            stack.append((span_id, op))
            value = None
            start = clock()
            try:
                result = func(*args, **kwargs)
                if measure is not None:
                    value = measure(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, name, start, end, parent, op, value))

        return wrapper

    def _replace(self, owner, attribute: str, make) -> None:
        """Swap ``owner.attribute`` (and every alias of a function) for a wrapper."""
        if isinstance(owner, type):
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                wrapper = classmethod(make(raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapper = staticmethod(make(raw.__func__))
            else:
                wrapper = make(raw)
            self._undo.append((owner, attribute, raw))
            setattr(owner, attribute, wrapper)
            return
        func = getattr(owner, attribute)
        wrapper = make(func)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != "repro":
                continue
            for key, bound in list(vars(module).items()):
                if bound is func:
                    self._undo.append((module, key, func))
                    setattr(module, key, wrapper)

    def install(self, only_layers: tuple[str, ...] | None = None) -> None:
        """Wrap every target, or only those billing one of ``only_layers``."""
        crossings = {"_request": "send", "_do_query": "receive", "_do_apply": "receive"}
        for target in targets():
            if only_layers is not None and target.layer not in only_layers:
                continue
            name = f"{target.owner.__name__.rsplit('.', 1)[-1]}.{target.attribute}"
            self.layers[name] = target.layer
            self._replace(
                target.owner,
                target.attribute,
                lambda func, name=name, target=target: self._wrap(
                    name, func, target.measure, crossings.get(target.attribute)
                ),
            )

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()

    def take(self) -> list[Span]:
        """The spans recorded so far; recording starts over."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


# -- reading a trace -------------------------------------------------------------


class Operations(NamedTuple):
    """Spans grouped into the caller's operations of one kind."""

    count: int
    #: Layer -> summed self seconds over these operations.
    self_seconds: dict[str, float]
    #: Summed root durations: the wall clock the callers observed.
    wall_seconds: float
    #: The spans themselves, for counts and values.
    spans: list[Span]

    def per_op_ms(self, *layers: str) -> float:
        if not self.count:
            return 0.0
        seconds = sum(self.self_seconds.get(layer, 0.0) for layer in layers)
        return seconds * 1000.0 / self.count

    def named(self, *names: str) -> list[Span]:
        return [span for span in self.spans if span.name in names]

    def per_op(self, *names: str) -> float:
        return len(self.named(*names)) / self.count if self.count else 0.0

    def total(self, *names: str) -> float:
        return sum(span.value or 0 for span in self.named(*names))


def operations(
    spans: list[Span], layers: dict[str, str], roots: tuple[str, ...]
) -> Operations:
    """The operations whose root span is one of ``roots``, with self times."""
    kept_ops = {span.id for span in spans if span.parent is None and span.name in roots}
    kept = [span for span in spans if span.op in kept_ops]
    children: dict[int, float] = defaultdict(float)
    for span in kept:
        if span.parent is not None:
            children[span.parent] += span.end - span.start
    self_seconds: dict[str, float] = defaultdict(float)
    wall = 0.0
    for span in kept:
        duration = span.end - span.start
        self_seconds[layers[span.name]] += duration - children.get(span.id, 0.0)
        if span.parent is None:
            wall += duration
    return Operations(len(kept_ops), dict(self_seconds), wall, kept)
