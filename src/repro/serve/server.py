"""The asyncio front door: HTTP/JSON queries over a coordinator.

One small hand-rolled HTTP/1.1 server (stdlib only, keep-alive) in
front of a :class:`~repro.api.GraphDatabase` — usually a
:class:`~repro.serve.coordinator.CoordinatorDatabase`, so each request
scatters to the shard worker processes.  A connection serves request
after request until the client asks ``Connection: close`` or speaks
HTTP/1.0, its head is malformed (a 400), or it idles past
:data:`IDLE_TIMEOUT`.  A body is framed by exactly one
``Content-Length``: on a reused connection an ambiguous frame would
desynchronise every later request.  Three properties the ROADMAP's
service story asks for live here:

* **Bounded concurrency** — at most ``config.max_inflight`` queries
  execute at once (a semaphore in front of the thread-pool handoff;
  the engine itself is thread-safe, the bound is about not oversubscribing
  the workers).

* **Backpressure** — once ``config.queue_limit`` callers are already
  waiting for a slot, new requests are refused immediately with
  ``503`` + ``Retry-After`` and a typed, retryable
  :class:`~repro.errors.TransientWireError` payload, instead of
  queueing unboundedly.  A well-behaved client (ours — see
  :mod:`repro.client`) surfaces that as the same transient taxonomy
  the rest of the system retries.

* **Supervision** — a background task polls
  ``database.ensure_workers()`` so a crashed shard worker is restarted
  within a poll interval; poll failures back off on the PR-7
  :class:`~repro.faults.RetryPolicy` schedule (capped, deterministic).

Remote failures cross the wire as the :mod:`repro.serve.protocol`
error codes, so a client re-raises the *same* typed exception the
in-process engine would have raised.
"""

from __future__ import annotations

import asyncio
import ctypes
import dataclasses
import functools
import json
import sys
import threading
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

#: Seconds a kept-alive connection may wait for its next request.
IDLE_TIMEOUT = 30.0

#: glibc's ``mallopt`` parameter number for the malloc arena cap.
M_ARENA_MAX = -8

#: Largest request body the front door will read (16 MiB) — a query is
#: text plus a few knobs; anything bigger is a broken client.
MAX_REQUEST_BYTES = 16 << 20

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


def _result_payload(result, framed: bool = False) -> dict | bytes:
    """A QueryResult as its JSON wire shape (pairs sorted for determinism), or
    ``framed``: those keys minus ``pairs`` heading a result frame of id columns."""
    report = result.report
    payload = {"ok": True, "query": result.query, "method": result.method}
    if not framed:
        payload["pairs"] = sorted(result.pairs)
    payload.update(
        seconds=result.seconds,
        cached=result.cached,
        version=result.version,
        partial=bool(report.partial) if report is not None else False,
        shards_failed=report.shards_failed if report is not None else 0,
    )
    return pack_result(payload, *result.pairs.dense()) if framed else payload


class QueryServer:
    """The HTTP front door over one database.

    Owns the listening socket, the inflight semaphore, and the
    supervision task.  Drive it with :func:`serve_forever` (CLI) or
    :func:`serve_in_thread` (tests, benchmarks, examples).
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
        self._semaphore: asyncio.Semaphore | None = None
        self._waiting = 0
        self._server: asyncio.AbstractServer | None = None
        self._supervisor: asyncio.Task | None = None
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind, start accepting, and start the supervision task."""
        self._semaphore = asyncio.Semaphore(self.config.max_inflight)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if hasattr(self.database, "ensure_workers"):
            self._supervisor = asyncio.get_running_loop().create_task(
                self._supervise()
            )

    async def stop(self) -> None:
        """Stop supervising and accepting, close every connection (3.12's
        ``wait_closed()`` waits for open ones) and await its handler."""
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
            self._supervisor = None
        if self._server is not None:
            self._server.close()
            for writer in self._connections.values():
                writer.close()  # an idle handler reads EOF and returns
            await asyncio.gather(*self._connections, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None

    async def _supervise(self) -> None:
        """Restart crashed workers; back off on supervision failures.

        A successful poll resets the backoff; a failing one (the fleet
        relaunch itself hitting a transient) sleeps on the capped
        PR-7 retry schedule instead of hot-looping.
        """
        loop = asyncio.get_running_loop()
        failures = 0
        while True:
            try:
                await loop.run_in_executor(None, self.database.ensure_workers)
                failures = 0
                await asyncio.sleep(self._supervise_interval)
            except asyncio.CancelledError:
                raise
            except ReproError:
                delay = self._retry.delay_ms(failures) / 1000.0
                failures += 1
                await asyncio.sleep(delay)

    # -- request handling -------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        """Answer requests on one connection until either side closes it."""
        handler = asyncio.current_task()
        self._connections[handler] = writer
        try:
            keep_alive = True
            while keep_alive:
                try:
                    async with asyncio.timeout(IDLE_TIMEOUT):
                        request = await _read_request(reader)
                except WireError as error:
                    refusal = encode_wire_error(error)
                    await _write_response(writer, 400, refusal, keep_alive=False)
                    return
                if request is None:  # closed by the client, or by stop()
                    return
                method, path, body, framed, keep_alive = request
                status, payload = await self._dispatch(method, path, body, framed)
                await _write_response(writer, status, payload, keep_alive)
        except (ConnectionError, asyncio.IncompleteReadError, TimeoutError):
            pass  # a TimeoutError: idle past IDLE_TIMEOUT
        finally:
            del self._connections[handler]
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, method, path, body: dict, framed: bool = False):
        """Route one request; returns ``(status, payload)``: a JSON object,
        or an answer as a packed result frame for a caller that asked
        (``framed``).  Errors are always JSON."""
        try:
            if method == "GET" and path == "/health":
                return 200, {
                    "ok": True,
                    "version": self.database.graph.version,
                    "backend": self.database.config.backend,
                    "shards": self.database.config.resolved_shards(),
                }
            if method == "GET" and path == "/stats":
                stats = await self._run_blocking(self.database.stats)
                return 200, {"ok": True, "stats": dataclasses.asdict(stats)}
            if method == "POST" and path in ("/query", "/prepared"):
                handler = self._do_query if path == "/query" else self._do_prepared
                return 200, await self._guarded(
                    functools.partial(handler, framed=framed), body
                )
            if method == "POST" and path == "/apply":
                return 200, await self._guarded(self._do_apply, body)
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

    async def _guarded(self, handler, body: dict) -> dict:
        """Run one mutating/query handler under the concurrency bound.

        The backpressure check happens *before* touching the
        semaphore: once every inflight slot is busy and ``queue_limit``
        callers are already parked waiting, the next one is refused
        outright — bounded queue, bounded memory, and a retryable
        error the client taxonomy understands (``queue_limit=0`` means
        "never queue": reject the moment the slots are full).
        """
        if self._semaphore.locked() and self._waiting >= self.config.queue_limit:
            raise TransientWireError(
                f"server at capacity ({self.config.max_inflight} inflight, "
                f"{self._waiting} queued); retry shortly"
            )
        self._waiting += 1
        acquired = False
        try:
            async with self._semaphore:
                self._waiting -= 1
                acquired = True
                return await self._run_blocking(handler, body)
        finally:
            if not acquired:
                # Cancelled or failed while still parked in the queue:
                # the waiting count must drop exactly once either way.
                self._waiting -= 1

    async def _run_blocking(self, callable_, *args):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, functools.partial(callable_, *args)
        )

    # -- handlers (run in the thread pool) --------------------------------

    def _do_query(self, body: dict, framed: bool = False) -> dict | bytes:
        result = self.database.query(
            _require_text(body, "query"),
            method=_optional(body, "method", str, "minsupport"),
            use_cache=bool(body.get("use_cache", True)),
            timeout_ms=_optional(body, "timeout_ms", (int, float), None),
            degraded=bool(body.get("degraded", False)),
        )
        return _result_payload(result, framed)

    def _do_prepared(self, body: dict, framed: bool = False) -> dict | bytes:
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


async def _read_line(reader) -> bytes:
    try:
        return await reader.readline()
    except (ConnectionError, ValueError) as error:
        # ValueError: the line ran past asyncio's 64 KiB stream limit.
        raise WireError(f"unreadable request head: {error}") from error


async def _read_request(reader) -> tuple[str, str, dict, bool, bool] | None:
    """Parse one HTTP request: ``(method, path, JSON body, framed,
    keep_alive)``, or None when the client closed the connection first.
    ``framed`` when its ``Accept`` names the result frame; ``keep_alive``
    unless it is HTTP/1.0 or sends ``Connection: close``.  Anything
    malformed or ambiguously framed raises :class:`WireError` — the
    connection gets a 400 and is closed, never a hang or a crash.
    """
    request_line = await _read_line(reader)
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
        line = await _read_line(reader)
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
        raw = await reader.readexactly(content_length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise WireError(f"undecodable JSON body: {error}") from error
        if not isinstance(body, dict):
            raise WireError("request body must be a JSON object")
    return method, path.split("?", 1)[0], body, framed, keep_alive


async def _write_response(
    writer, status: int, payload: dict | bytes, keep_alive: bool
) -> None:
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
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


# -- entry points --------------------------------------------------------------


async def serve_forever(
    database: GraphDatabase, config: ServiceConfig | None = None
) -> None:
    """Run the front door until cancelled: what ``repro serve`` runs.

    Malloc gets one arena (glibc's ``mallopt``; elsewhere nothing) before
    any handler thread exists: the threads take turns on the GIL, so more
    arenas only hold freed temporaries.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        pass  # not glibc: no arenas to cap
    else:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(M_ARENA_MAX, 1)
    server = QueryServer(database, config)
    await server.start()
    print(
        f"serving {server.config.resolved_shards()} shard workers on "
        f"http://{server.config.host}:{server.port}  (Ctrl-C to stop)",
        file=sys.stderr,
    )
    try:
        await asyncio.Event().wait()
    finally:
        await server.stop()


@dataclass
class ServerThread:
    """A front door running on its own event loop thread."""

    server: QueryServer
    loop: asyncio.AbstractEventLoop
    thread: threading.Thread

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    def stop(self) -> None:
        """Stop accepting, cancel supervision, and join the loop thread."""
        future = asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop)
        future.result(timeout=10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


def serve_in_thread(
    database: GraphDatabase,
    config: ServiceConfig | None = None,
    supervise_interval: float = SUPERVISE_INTERVAL,
) -> ServerThread:
    """Start the front door on a background thread; returns its handle.

    The tests', benchmarks' and example's way in: the caller keeps the
    database handle (to kill workers, inspect stats) while real HTTP
    clients hammer the port.
    """
    server = QueryServer(database, config, supervise_interval)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(timeout=30):
        raise TransientWireError("serve thread failed to start within 30s")
    return ServerThread(server=server, loop=loop, thread=thread)
