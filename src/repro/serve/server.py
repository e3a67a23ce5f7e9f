"""The front door: HTTP/JSON queries over a coordinator, a thread per connection.

One small hand-rolled HTTP/1.1 server (stdlib only, keep-alive) in
front of a :class:`~repro.api.GraphDatabase` — usually a
:class:`~repro.serve.coordinator.CoordinatorDatabase`, so each request
scatters to the shard worker processes.  Every accepted connection gets
one thread, and that thread does all of a request: it reads it, takes
an inflight slot, runs the handler and writes head and body with one
``sendmsg``.  A read crosses no thread and no event loop.  The server
before this one ran an asyncio loop that handed each request to an
executor thread and back; the engine holds the GIL either way, so the
loop bought no concurrency and the hops cost CPU.  Measured out of
process on one pinned CPU of a 2-CPU host, that server spent ≈1.9 ms of
CPU per ``served_reads`` read, of which the engine is ≈1.0 ms; this one,
with the per-connection name dictionary of :mod:`repro.serve.protocol`,
spends ≈1.3 ms.

A connection serves request after request until the client asks
``Connection: close`` or speaks HTTP/1.0, its head is malformed (a
400), or its next request has not arrived whole within
:data:`IDLE_TIMEOUT` (a deadline per request, not per ``recv``, so a
client cannot hold its thread by dripping bytes).  A body is framed by
exactly one ``Content-Length``: on a reused connection an ambiguous
frame would desynchronise every later request.  What bounds the work:

* **Connections** — at most :data:`MAX_CONNECTIONS` are served at once.
  One more is answered on the accepting thread (a 503 with a retryable
  :class:`~repro.errors.TransientWireError` payload and
  ``Connection: close``) and closed, so a burst of sockets never
  becomes a burst of threads.

* **Concurrency** — at most ``config.max_inflight`` queries execute at
  once; the engine itself is thread-safe, the bound is about not
  oversubscribing the workers.

* **Backpressure** — once ``config.queue_limit`` callers are already
  waiting for a slot, new requests are refused immediately with
  ``503`` + ``Retry-After`` and a typed, retryable
  :class:`~repro.errors.TransientWireError` payload, instead of
  queueing unboundedly.  A well-behaved client (ours — see
  :mod:`repro.client`) surfaces that as the same transient taxonomy
  the rest of the system retries.

* **Supervision** — a background thread polls
  ``database.ensure_workers()`` so a crashed shard worker is restarted
  within a poll interval; poll failures back off on the PR-7
  :class:`~repro.faults.RetryPolicy` schedule (capped, deterministic).

Each connection also keeps the ids it has sent names for, so a result
frame names only the nodes new to it (see :mod:`repro.serve.protocol`).
Remote failures cross the wire as the :mod:`repro.serve.protocol`
error codes, so a client re-raises the *same* typed exception the
in-process engine would have raised.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import json
import socket
import sys
import threading
import time
from dataclasses import dataclass
from http import HTTPStatus

from repro.api import GraphDatabase, ServiceConfig
from repro.errors import (
    ParseError,
    PlanningError,
    QueryTimeoutError,
    ReproError,
    RewriteError,
    TransientError,
    TransientWireError,
    UnknownNodeError,
    ValidationError,
    WireError,
)
from repro.faults import RetryPolicy
from repro.serve.protocol import RESULT_FRAME_TYPE, encode_error, pack_result
from repro.write.mutation import MutationBatch

#: Seconds between supervision polls when the last poll succeeded.
SUPERVISE_INTERVAL = 0.25

#: Seconds a connection's next request has to arrive whole in.
IDLE_TIMEOUT = 30.0

#: Largest request body the front door will read (16 MiB) — a query is
#: text plus a few knobs; anything bigger is a broken client.
MAX_REQUEST_BYTES = 16 << 20

#: Connections served at once (one thread each); one more gets a 503.
MAX_CONNECTIONS = 128

#: Longest request line or header line (64 KiB); a longer one is a 400.
MAX_LINE_BYTES = 1 << 16

#: glibc's ``mallopt`` parameter number for the malloc arena cap.
M_ARENA_MAX = -8

#: Request failures that are the caller's fault (HTTP 400), an unknown
#: ``method`` (``PlanningError``) among them.
_CALLER_ERRORS = (
    ValidationError,
    ParseError,
    RewriteError,
    PlanningError,
    UnknownNodeError,
)


def _status_for(error: Exception) -> int:
    """Map a typed failure to its HTTP status (taxonomy-preserving).

    The body always carries the wire error code, so the status is
    routing advice, not the contract: 504 says "your deadline", 503
    says "retry me", 400 says "fix the request".
    """
    if isinstance(error, QueryTimeoutError):
        return 504
    if isinstance(error, _CALLER_ERRORS):
        return 400
    if isinstance(error, TransientError):
        return 503
    return 500


def _result_payload(result, framed: bytearray | None = None) -> dict | bytes:
    """A QueryResult as its JSON wire shape (pairs sorted for determinism),
    or, given its connection's ``framed`` marks (a byte per node id whose
    name the connection has been sent), those keys minus ``pairs`` heading
    a result frame of the answer's id columns and the names new to it."""
    report = result.report
    payload = {"ok": True, "query": result.query, "method": result.method}
    if framed is None:
        payload["pairs"] = sorted(result.pairs)
    payload.update(
        seconds=result.seconds,
        cached=result.cached,
        version=result.version,
        partial=bool(report.partial) if report is not None else False,
        shards_failed=report.shards_failed if report is not None else 0,
    )
    if framed is None:
        return payload
    columns, ids, names = result.pairs.unsent(framed)
    return pack_result(payload, names, columns, ids)


class QueryServer:
    """The HTTP front door over one database.

    Owns the listening socket, the connection threads, the inflight
    slots and the supervision thread.  Drive it with
    :func:`serve_forever` (CLI) or :func:`serve_in_thread` (tests,
    benchmarks, examples).
    """

    def __init__(
        self,
        database: GraphDatabase,
        config: ServiceConfig | None = None,
        supervise_interval: float = SUPERVISE_INTERVAL,
    ) -> None:
        self.database = database
        self.config = config if config is not None else database.config
        self.port: int | None = None
        self._supervise_interval = supervise_interval
        self._retry = RetryPolicy()
        self._admission = threading.Condition()
        self._inflight = 0
        self._waiting = 0
        self._listener: socket.socket | None = None
        self._stopping = threading.Event()
        self._threads: list[threading.Thread] = []  # accepting, supervising
        self._lock = threading.Lock()  # guards _connections
        self._connections: dict[socket.socket, threading.Thread] = {}

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Bind, start accepting, and start the supervision thread."""
        self._listener = socket.create_server((self.config.host, self.config.port))
        self.port = self._listener.getsockname()[1]
        self._spawn(self._accept, "repro-serve")
        if hasattr(self.database, "ensure_workers"):
            self._spawn(self._supervise, "repro-serve-supervise")

    def _spawn(self, target, name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        self._threads.append(thread)
        thread.start()

    def stop(self) -> None:
        """Stop accepting and supervising, close every connection and join
        every thread; a handler running a query finishes it first."""
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
            except OSError:
                pass
            self._listener.close()
        for thread in self._threads:
            thread.join(timeout=10)
        self._threads.clear()
        with self._lock:
            connections = dict(self._connections)
        for sock in connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # an idle handler reads EOF
            except OSError:
                pass
        for thread in connections.values():
            thread.join(timeout=10)

    def _accept(self) -> None:
        """Hand each connection a thread, or refuse it past the cap."""
        while not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                self._stopping.wait(0.01)  # stopped, or out of descriptors
                continue
            with self._lock:
                admitted = len(self._connections) < MAX_CONNECTIONS
                if admitted:
                    thread = threading.Thread(
                        target=self._handle_connection,
                        args=(sock,),
                        name="repro-serve-connection",
                        daemon=True,
                    )
                    self._connections[sock] = thread
            if admitted:
                thread.start()
            else:
                _refuse(sock)

    def _supervise(self) -> None:
        """Restart crashed workers; back off on supervision failures.

        A successful poll resets the backoff; a failing one (the fleet
        relaunch itself hitting a transient) waits on the capped
        PR-7 retry schedule instead of hot-looping.
        """
        failures, delay = 0, 0.0
        while not self._stopping.wait(delay):
            try:
                self.database.ensure_workers()
                failures, delay = 0, self._supervise_interval
            except ReproError:
                delay = self._retry.delay_ms(failures) / 1000.0
                failures += 1

    # -- request handling -------------------------------------------------

    def _handle_connection(self, sock: socket.socket) -> None:
        """Answer requests on one connection until either side closes it."""
        reader = _Reader(sock)
        sent = bytearray()  # a byte per node id: its name went down this connection
        try:
            keep_alive = True
            while keep_alive:
                try:
                    request = _read_request(reader)
                except WireError as error:
                    refusal = encode_wire_error(error)
                    _write_response(sock, 400, refusal, keep_alive=False)
                    return
                if request is None:  # closed by the client, or by stop()
                    return
                method, path, body, framed, keep_alive = request
                marks = sent if framed else None
                status, payload = self._dispatch(method, path, body, marks)
                _write_response(sock, status, payload, keep_alive)
        except OSError:
            pass  # reset, or a request not whole within IDLE_TIMEOUT
        finally:
            with self._lock:
                del self._connections[sock]
            sock.close()

    def _dispatch(self, method, path, body: dict, framed: bytearray | None = None):
        """Route one request; returns ``(status, payload)``: a JSON object,
        or an answer as a packed result frame for a caller that asked
        (``framed``: its connection's marks).  Errors are always JSON."""
        try:
            if method == "GET" and path == "/health":
                return 200, {
                    "ok": True,
                    "version": self.database.graph.version,
                    "backend": self.database.config.backend,
                    "shards": self.database.config.resolved_shards(),
                }
            if method == "GET" and path == "/stats":
                stats = self.database.stats()
                return 200, {"ok": True, "stats": dataclasses.asdict(stats)}
            if method == "POST" and path in ("/query", "/prepared"):
                handler = self._do_query if path == "/query" else self._do_prepared
                return 200, self._guarded(
                    functools.partial(handler, framed=framed), body
                )
            if method == "POST" and path == "/apply":
                return 200, self._guarded(self._do_apply, body)
            if path in ("/health", "/stats", "/query", "/prepared", "/apply"):
                return 405, encode_wire_error(
                    ValidationError(f"{method} not allowed on {path}")
                )
            return 404, encode_wire_error(ValidationError(f"no route {path!r}"))
        except ReproError as error:
            return _status_for(error), encode_wire_error(error)
        # A bug in a handler: 500 `internal`, never a dropped connection.
        # repro: ignore[error-taxonomy] typed failures were answered above
        except Exception as error:
            bug = ReproError(f"{type(error).__name__}: {error}")
            return 500, encode_wire_error(bug)

    def _guarded(self, handler, body: dict) -> dict | bytes:
        """Run one mutating/query handler under the concurrency bound.

        The backpressure check comes before any wait: once every inflight
        slot is busy and ``queue_limit`` callers are already parked, the
        next one is refused outright — bounded queue, bounded memory, and
        a retryable error the client taxonomy understands
        (``queue_limit=0`` means "never queue": reject the moment the
        slots are full).
        """
        limit = self.config.max_inflight
        with self._admission:
            if self._inflight >= limit:
                if self._waiting >= self.config.queue_limit:
                    raise TransientWireError(
                        f"server at capacity ({limit} inflight, "
                        f"{self._waiting} queued); retry shortly"
                    )
                self._waiting += 1
                try:
                    self._admission.wait_for(lambda: self._inflight < limit)
                finally:
                    self._waiting -= 1
            self._inflight += 1
        try:
            return handler(body)
        finally:
            with self._admission:
                self._inflight -= 1
                self._admission.notify()

    # -- handlers (run on the connection's thread) ------------------------

    def _do_query(self, body: dict, framed: bytearray | None = None) -> dict | bytes:
        result = self.database.query(
            _require_text(body, "query"),
            method=_optional(body, "method", str, "minsupport"),
            use_cache=bool(body.get("use_cache", True)),
            timeout_ms=_optional(body, "timeout_ms", (int, float), None),
            degraded=bool(body.get("degraded", False)),
        )
        return _result_payload(result, framed)

    def _do_prepared(self, body: dict, framed: bytearray | None = None) -> dict | bytes:
        """Bind and run a prepared template; the database's bounded plan
        cache keeps its plan, so the front door keeps no statement."""
        template = _require_text(body, "template")
        method = _optional(body, "method", str, "minsupport")
        params = body.get("params", {})
        if not isinstance(params, dict):
            raise ValidationError("params must be an object of $name bindings")
        statement = self.database.prepare(template, method=method)
        return _result_payload(statement.run(**params), framed)

    def _do_apply(self, body: dict) -> dict:
        """The unified mutation route: one batch, one commit group ride."""
        batch = MutationBatch.from_wire(body.get("mutations"))
        result = self.database.apply(batch)
        return {"ok": True, "result": result.as_wire()}


def encode_wire_error(error: Exception) -> dict:
    return {"ok": False, "error": encode_error(error)}


def _require_text(body: dict, key: str) -> str:
    value = body.get(key)
    if not isinstance(value, str) or not value:
        raise ValidationError(f"request body needs a non-empty {key!r} string")
    return value


def _optional(body: dict, key: str, kinds, default):
    """An optional request field, type-checked (a JSON bool is no number)."""
    value = body.get(key, default)
    if value is default or isinstance(value, kinds) and not isinstance(value, bool):
        return value
    raise ValidationError(f"request field {key!r} has the wrong type: {value!r}")


# -- the HTTP layer ------------------------------------------------------------


class _Reader:
    """Buffered reads off one blocking socket, against a per-request deadline."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = bytearray()
        self.deadline = 0.0

    def _fill(self) -> bool:
        """Receive more bytes; False at EOF, ``TimeoutError`` past the deadline."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("request not whole within IDLE_TIMEOUT")
        self.sock.settimeout(remaining)
        chunk = self.sock.recv(1 << 16)
        self.buffer += chunk
        return bool(chunk)

    def line(self) -> bytes:
        """The next line, newline kept; what is left at EOF (``b""`` if none)."""
        buffer = self.buffer
        while (end := buffer.find(b"\n")) < 0 and len(buffer) <= MAX_LINE_BYTES:
            if not self._fill():
                line = bytes(buffer)
                buffer.clear()
                return line
        if end < 0 or end >= MAX_LINE_BYTES:
            raise WireError(
                f"unreadable request head: a line over {MAX_LINE_BYTES} bytes"
            )
        line = bytes(buffer[: end + 1])
        del buffer[: end + 1]
        return line

    def exactly(self, count: int) -> bytes:
        while len(self.buffer) < count:
            if not self._fill():
                raise ConnectionResetError("connection closed mid-body")
        body = bytes(self.buffer[:count])
        del self.buffer[:count]
        return body


def _read_request(reader: _Reader) -> tuple[str, str, dict, bool, bool] | None:
    """Parse one HTTP request: ``(method, path, JSON body, framed,
    keep_alive)``, or None when the client closed the connection first.
    ``framed`` when its ``Accept`` names the result frame; ``keep_alive``
    unless it is HTTP/1.0 or sends ``Connection: close``.  Anything
    malformed or ambiguously framed raises :class:`WireError` — the
    connection gets a 400 and is closed, never a hang or a crash; a body
    over :data:`MAX_REQUEST_BYTES` is refused before it is read.
    """
    reader.deadline = time.monotonic() + IDLE_TIMEOUT
    request_line = reader.line()
    if not request_line:
        return None
    parts = request_line.decode("latin-1", "replace").split()
    if len(parts) != 3:
        raise WireError(f"malformed request line {request_line[:200]!r}")
    method, path, version = parts
    content_length = None
    framed = False
    keep_alive = version == "HTTP/1.1"
    while True:
        line = reader.line()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1", "replace").lower().partition(":")
        name, value = name.strip(), value.strip()
        if name == "content-length":
            if content_length is not None or not value.isdecimal():
                raise WireError(f"bad or second Content-Length {value!r}")
            content_length = int(value)
        elif name == "transfer-encoding":
            raise WireError(f"Transfer-Encoding {value!r} refused: send a length")
        elif name == "accept":
            framed = RESULT_FRAME_TYPE in value
        elif name == "connection":
            keep_alive = keep_alive and "close" not in value
    content_length = content_length or 0
    if content_length > MAX_REQUEST_BYTES:
        raise WireError(f"request body of {content_length} bytes refused")
    body: dict = {}
    if content_length:
        raw = reader.exactly(content_length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise WireError(f"undecodable JSON body: {error}") from error
        if not isinstance(body, dict):
            raise WireError("request body must be a JSON object")
    return method, path.split("?", 1)[0], body, framed, keep_alive


def _write_response(
    sock: socket.socket, status: int, payload: dict | bytes, keep_alive: bool
) -> None:
    """Head and body in one ``sendmsg`` (the rest by ``sendall`` if the
    kernel took only part)."""
    framed = isinstance(payload, bytes)  # a packed result frame
    body = payload if framed else json.dumps(payload, separators=(",", ":")).encode()
    lines = [
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
        f"Content-Type: {RESULT_FRAME_TYPE if framed else 'application/json'}",
        f"Content-Length: {len(body)}",
    ]
    if status == 503:
        lines.append("Retry-After: 1")
    if not keep_alive:
        lines.append("Connection: close")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    sock.settimeout(IDLE_TIMEOUT)
    sent = sock.sendmsg((head, body))
    if sent < len(head) + len(body):
        sock.sendall(memoryview(head + body)[sent:])


def _refuse(sock: socket.socket) -> None:
    """Answer a connection past :data:`MAX_CONNECTIONS` with a 503 and close
    it, without reading its request (a fresh socket's send buffer takes
    the few bytes at once, so the accepting thread does not wait)."""
    error = TransientWireError(
        f"server at its {MAX_CONNECTIONS} connections; retry shortly"
    )
    try:
        _write_response(sock, 503, encode_wire_error(error), keep_alive=False)
        sock.shutdown(socket.SHUT_WR)
    except OSError:
        pass
    finally:
        sock.close()


# -- entry points --------------------------------------------------------------


def serve_forever(database: GraphDatabase, config: ServiceConfig | None = None) -> None:
    """Run the front door until interrupted (``KeyboardInterrupt``, which
    propagates after the server stopped): what ``repro serve`` runs.

    Malloc gets one arena (glibc's ``mallopt``; elsewhere nothing) before
    any connection thread exists: the threads take turns on the GIL, so
    more arenas only hold freed temporaries.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        pass  # not glibc: no arenas to cap
    else:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(M_ARENA_MAX, 1)
    server = QueryServer(database, config)
    server.start()
    print(
        f"serving {server.config.resolved_shards()} shard workers on "
        f"http://{server.config.host}:{server.port}  (Ctrl-C to stop)",
        file=sys.stderr,
    )
    try:
        threading.Event().wait()
    finally:
        server.stop()


@dataclass
class ServerThread:
    """A started front door: its threads run until :meth:`stop`."""

    server: QueryServer

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    def stop(self) -> None:
        """Stop accepting and supervising; close and join every connection."""
        self.server.stop()


def serve_in_thread(
    database: GraphDatabase,
    config: ServiceConfig | None = None,
    supervise_interval: float = SUPERVISE_INTERVAL,
) -> ServerThread:
    """Start the front door on background threads; returns its handle.

    The tests', benchmarks' and example's way in: the caller keeps the
    database handle (to kill workers, inspect stats) while real HTTP
    clients hammer the port.
    """
    server = QueryServer(database, config, supervise_interval)
    server.start()
    return ServerThread(server=server)
