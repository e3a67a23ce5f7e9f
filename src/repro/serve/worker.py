"""Shard worker processes: one process, one shard's :class:`PathIndex`.

A worker is forked from the coordinator with the graph and its shard
number, builds its shard's index exactly the way the in-process
:class:`~repro.sharding.ShardedGraph` would (same payload computation,
same ``shard.build`` injection point, same retry semantics), then
serves requests over a length-prefixed socket protocol
(:mod:`repro.serve.protocol`) until told to shut down.

Workers communicate *only* by message passing: the coordinator's graph
mutations arrive as ``apply`` requests — one per commit group, carrying
the group's mutations plus this worker's pre-computed shard patch
slice, or no slice for a rebuild — that the worker applies to its own
forked copy of the graph.  A group is patched, or every worker
rebuilds its shard in place; there is no third way.  A restarted
worker catches up with one more ``apply`` (the journal suffix past
its acked sequence number, and a rebuild) instead of re-receiving the
whole graph.

Failure behavior is deliberately blunt: a request the worker can
classify (an unknown path, an expired budget, a corrupt frame it
detects) is answered with a typed error reply; anything else kills the
connection or the process, and the coordinator's PR-7 retry /
``ShardUnavailableError`` machinery — unchanged — does the rest.
"""

from __future__ import annotations

import multiprocessing
import socket
from dataclasses import dataclass, field

from repro.errors import (
    QueryTimeoutError,
    ReproError,
    ShardUnavailableError,
    ValidationError,
    WireError,
)
from repro.graph.graph import Graph, LabelPath
from repro.indexes.pathindex import PathIndex
from repro.serve.protocol import (
    encode_error,
    encode_relation,
    recv_frame,
    remote_error,
    send_frame,
)
from repro.sharding import ShardedGraph

#: Seconds a freshly forked worker gets to build its shard and report
#: its port before the launcher declares it dead.
READY_TIMEOUT = 60.0


@dataclass
class WorkerHandle:
    """The coordinator's view of one worker process."""

    shard: int
    port: int
    process: multiprocessing.process.BaseProcess

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL the worker (the chaos tests' murder weapon)."""
        self.process.kill()

    def stop(self, timeout: float = 5.0) -> None:
        """Terminate and reap the worker."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout)


def launch_workers(
    graph: Graph,
    k: int,
    shards: int,
    shard_seed: int = 0,
    only: list[int] | None = None,
) -> list[WorkerHandle]:
    """Fork one worker per shard (or per shard in ``only``, the
    supervision restart path); block until every one is serving.

    All processes are started before any readiness report is awaited,
    so the N shard builds run in parallel — the one parallel build
    there is.  Any worker failing to come up tears
    the rest down and raises (builds never degrade: an index missing a
    shard would silently under-answer every future query).
    """
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        raise ValidationError(
            "repro.serve requires the fork start method (POSIX only)"
        ) from None
    started: list[tuple[int, multiprocessing.process.BaseProcess, object]] = []
    handles: list[WorkerHandle] = []
    try:
        for shard in range(shards) if only is None else only:
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=_worker_main,
                args=(sender, graph, k, shard, shards, shard_seed),
                daemon=True,
                name=f"repro-shard-{shard}",
            )
            process.start()
            sender.close()
            started.append((shard, process, receiver))
        for shard, process, receiver in started:
            handles.append(_await_ready(shard, process, receiver))
    except BaseException:
        for _, process, _ in started:
            if process.is_alive():
                process.kill()
        raise
    return handles


def _await_ready(shard, process, receiver) -> WorkerHandle:
    """Collect one worker's readiness report (port or typed error)."""
    try:
        if not receiver.poll(READY_TIMEOUT):
            raise ShardUnavailableError(
                f"shard {shard} worker did not report ready within "
                f"{READY_TIMEOUT:g}s",
                shard=shard,
            )
        try:
            status, value = receiver.recv()
        except EOFError:
            raise ShardUnavailableError(
                f"shard {shard} worker died before reporting ready",
                shard=shard,
            ) from None
    finally:
        receiver.close()
    if status != "ok":
        raise remote_error(value)
    return WorkerHandle(shard=shard, port=value, process=process)


# -- the worker process --------------------------------------------------------


@dataclass
class _WorkerState:
    """Everything one worker owns: its graph copy and its shard index."""

    graph: Graph
    k: int
    shard: int
    shard_count: int
    shard_seed: int
    #: Sequence number of the last applied commit group — the resync
    #: cursor: a replacement worker replays the journal suffix past it.
    applied_seq: int = 0
    index: PathIndex = field(init=False)

    def __post_init__(self) -> None:
        self.index = self._build()

    def _build(self) -> PathIndex:
        """This shard's index, via the exact in-process build recipe.

        ``_serial_shard`` keeps the ``shard.build`` injection point
        and its retry/``ShardUnavailableError`` contract; the index is
        always memory-backed — durability is the coordinator's concern,
        workers are rebuildable by construction.
        """
        return ShardedGraph._serial_shard(
            self.graph,
            self.k,
            self.shard_count,
            self.shard,
            self.shard_seed,
            "memory",
            None,
        )

    def rebuild(self) -> None:
        old = self.index
        self.index = self._build()
        old.close()


def _worker_main(channel, graph, k, shard, shard_count, shard_seed) -> None:
    """Worker entry point: build, report the port, serve until shutdown."""
    try:
        state = _WorkerState(graph, k, shard, shard_count, shard_seed)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
    except ReproError as error:
        # A classifiable build failure is reported so the launcher can
        # re-raise it typed; anything else crashes the process and the
        # launcher reports the dead pipe instead.
        channel.send(("error", encode_error(error)))
        channel.close()
        return
    channel.send(("ok", listener.getsockname()[1]))
    channel.close()
    with listener:
        while True:
            connection, _ = listener.accept()
            if not _serve_connection(connection, state):
                break
    state.index.close()


def _serve_connection(sock, state: _WorkerState) -> bool:
    """Serve one coordinator connection; False means shutdown was asked.

    The connection is the unit of failure: an undecodable stream or a
    dead peer drops it and the worker goes back to ``accept`` — the
    coordinator stub reconnects and retries.  Classifiable request
    failures are answered in-band as typed error payloads.
    """
    with sock:
        while True:
            try:
                header, _body = recv_frame(sock)
            except WireError:
                # Covers TransientWireError (peer went away — normal
                # stub reconnect churn) and a garbage stream alike: in
                # both cases this connection is done.
                return True
            try:
                reply, payload = _handle(state, header)
            except ReproError as error:
                reply, payload = {"ok": False, "error": encode_error(error)}, b""
            try:
                send_frame(sock, reply, payload)
            except OSError:
                return True
            if header.get("op") == "shutdown" and reply.get("ok"):
                return False


def _check_budget(header: dict) -> None:
    """Refuse a request whose ``deadline_ms`` (the remaining budget at
    send time) is spent: nobody will wait for its slice."""
    budget = header.get("deadline_ms")
    if budget is not None and budget <= 0:
        raise QueryTimeoutError(
            "deadline budget exhausted before the worker began"
        )


def _handle(state: _WorkerState, header: dict) -> tuple[dict, bytes]:
    """Execute one request; returns (reply header, reply body)."""
    op = header.get("op")
    _check_budget(header)
    if op == "ping":
        return {"ok": True, "shard": state.shard}, b""
    if op == "scan":
        path = LabelPath.decode(header["path"])
        return {"ok": True}, encode_relation(state.index.scan(path))
    if op == "count":
        path = LabelPath.decode(header["path"])
        return {"ok": True, "value": state.index.count(path)}, b""
    if op == "counts":
        return {"ok": True, "counts": state.index.counts_by_path()}, b""
    if op == "entry_count":
        return {"ok": True, "value": state.index.entry_count}, b""
    if op == "apply":
        return _handle_apply(state, header)
    if op == "shutdown":
        return {"ok": True}, b""
    raise ValidationError(f"unknown worker op {op!r}")


def _apply_mutations(state: _WorkerState, mutations: list) -> None:
    """Apply a group's mutations, in order and idempotently, to the worker's
    graph copy (every worker gets every one: paths compose over the full graph)."""
    for wire in mutations:
        kind = wire.get("kind")
        source, label, target = wire["source"], wire["label"], wire["target"]
        if kind == "add":
            state.graph.add_edge(source, label, target)
        elif kind == "remove":
            state.graph.remove_edge(source, label, target)
        else:
            raise ValidationError(f"unknown mutation kind {kind!r}")


def _handle_apply(state: _WorkerState, header: dict) -> tuple[dict, bytes]:
    """Absorb one commit group: mutations plus this shard's index move.

    The coordinator runs the delta algorithm once and ships each worker
    only its slice: ``patch`` (encoded path -> ``[adds, removes]`` pair
    lists, possibly empty) for copy-on-write column edits (a scan reply
    still being encoded keeps its columns), or no ``patch`` when the
    group cannot be patched and every shard rebuilds — as a restarted
    worker does after the journal suffix it replays.  ``seq`` advances
    the worker's resync cursor.
    """
    _apply_mutations(state, header.get("mutations", []))
    patch = header.get("patch")
    if patch is not None:
        for encoded, (adds, removes) in patch.items():
            state.index.patch(
                LabelPath.decode(encoded),
                [(int(src), int(tgt)) for src, tgt in adds],
                [(int(src), int(tgt)) for src, tgt in removes],
            )
    else:
        state.rebuild()
    state.applied_seq = int(header.get("seq", state.applied_seq))
    return {
        "ok": True,
        "version": state.graph.version,
        "applied_seq": state.applied_seq,
    }, b""
