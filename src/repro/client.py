"""Clients for the serve front door: one codec, one exchange, sync and async.

:class:`Client` (blocking sockets) and :class:`AsyncClient`
(:mod:`asyncio` streams) share every byte of request building and
response decoding, and one hand-rolled HTTP/1.1 exchange: the request
bytes (:func:`encode_request`), the response head (:func:`parse_head`)
and a ``Content-Length`` body.  Each keeps a stack of idle keep-alive
connections: a call pops one (a non-blocking peek first drops one the
server has closed) or dials, and pushes it back after a complete
response the server did not mark ``Connection: close``.

The error taxonomy crosses the wire intact: a server-side
:class:`~repro.errors.QueryTimeoutError` re-raises here as exactly
that type (via the :mod:`repro.serve.protocol` code table), a refused,
reset or cut-off connection is dropped and raises the retryable
:class:`~repro.errors.TransientWireError` (never resent here), and a
response that does not parse raises the permanent
:class:`~repro.errors.WireError`.  Backpressure (HTTP 503) therefore
surfaces as a transient the caller's own
:func:`~repro.faults.retry_call` can spin on.

    >>> from repro.client import query_body
    >>> body = query_body("a/b", degraded=True)
    >>> body["query"], body["degraded"]
    ('a/b', True)
"""

from __future__ import annotations

import asyncio
import json
import socket
from dataclasses import dataclass, field
from operator import itemgetter

from repro.errors import TransientWireError, WireError
from repro.graph.graph import NamedPairs, name_probe
from repro.serve.protocol import RESULT_FRAME_TYPE, raise_remote, unpack_result
from repro.write.mutation import ApplyResult, MutationBatch

#: Seconds a client waits for a response before declaring the server
#: gone (transient — the request can be retried elsewhere/later).
DEFAULT_TIMEOUT = 60.0

#: Longest response head a client reads (asyncio's stream limit).
MAX_HEAD_BYTES = 1 << 16

#: JSON up, an answer back as a result frame; a server without the frame
#: answers JSON, and the response's ``Content-Type`` picks the decoder.
REQUEST_HEADERS = {"Content-Type": "application/json", "Accept": RESULT_FRAME_TYPE}


@dataclass(frozen=True, slots=True)
class RemoteResult:
    """A query answer as it crossed the wire.

    The remote cousin of :class:`~repro.api.QueryResult`: same
    consistency token (``version``), same degraded-answer markers
    (``partial`` / ``shards_failed``), same ``pairs``: a
    :class:`~repro.graph.graph.NamedPairs` over the result frame's two
    id columns and its name list — ``len`` O(1), ``in`` a bisect, names
    decoded only when iterated, the ``frozenset`` built by the first
    ``==`` with a set, ``hash`` or ``repr``.  (A JSON answer, from a
    server without the frame, decodes to a plain ``frozenset``.)
    """

    query: str
    method: str
    pairs: NamedPairs | frozenset = field(default_factory=frozenset)
    seconds: float = 0.0
    version: int = -1
    cached: bool = False
    partial: bool = False
    shards_failed: int = 0

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: object) -> bool:
        return name_probe(pair) in self.pairs


# -- the shared codec ----------------------------------------------------------


def query_body(
    query: str,
    method: str = "minsupport",
    use_cache: bool = True,
    timeout_ms: float | None = None,
    degraded: bool = False,
) -> dict:
    """The ``POST /query`` request body for one RPQ."""
    body = dict(query=query, method=method, use_cache=use_cache, degraded=degraded)
    if timeout_ms is not None:
        body["timeout_ms"] = timeout_ms
    return body


def prepared_body(template: str, params: dict | None, method: str) -> dict:
    return {"template": template, "params": dict(params or {}), "method": method}


def apply_body(mutations) -> dict:
    """The ``POST /apply`` request body for one mutation batch."""
    return {"mutations": MutationBatch.coerce(mutations).as_wire()}


def encode_body(body: dict | None) -> bytes:
    """A request's JSON body as bytes (empty for a GET)."""
    return b"" if body is None else json.dumps(body, separators=(",", ":")).encode()


def decode_payload(raw: bytes, content_type: str = "") -> dict:
    """Response bytes -> payload dict; garbage raises :class:`WireError`."""
    if content_type.startswith(RESULT_FRAME_TYPE):
        # The frame's header is the payload; its answer goes under "pairs".
        payload, ranks = unpack_result(raw)
        names = payload.pop("names")
        payload["pairs"] = NamedPairs(ranks, names, dict(zip(names, range(len(names)))))
        return payload
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"undecodable server response: {error}") from error
    if not isinstance(payload, dict):
        raise WireError(f"server response must be an object, got {payload!r}")
    return payload


def check_payload(payload: dict) -> dict:
    """Re-raise a failure payload as its typed local exception."""
    if not payload.get("ok"):
        raise_remote(payload.get("error", {}))
    return payload


def decode_result(payload: dict) -> RemoteResult:
    """A checked ``/query`` or ``/prepared`` payload -> RemoteResult."""
    pairs = payload.get("pairs", ())
    try:
        if not isinstance(pairs, NamedPairs):
            pairs = frozenset(tuple(pair) for pair in pairs)
        return RemoteResult(
            query=payload.get("query", ""),
            method=payload.get("method", ""),
            pairs=pairs,
            seconds=float(payload.get("seconds", 0.0)),
            version=int(payload.get("version", -1)),
            cached=bool(payload.get("cached", False)),
            partial=bool(payload.get("partial", False)),
            shards_failed=int(payload.get("shards_failed", 0)),
        )
    except (TypeError, ValueError, OverflowError) as error:
        raise WireError(f"malformed result payload: {error}") from error


def decode_apply(payload: dict) -> ApplyResult:
    """A checked ``/apply`` payload -> :class:`ApplyResult`."""
    return ApplyResult.from_wire(payload.get("result", {}))


def encode_request(
    method: str, path: str, body: dict | None, host: str, port: int
) -> bytes:
    """One HTTP/1.1 request; no ``Connection: close``, so it persists."""
    payload = encode_body(body)
    headers = "".join(f"{k}: {v}\r\n" for k, v in REQUEST_HEADERS.items())
    return (
        f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n{headers}"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode("latin-1") + payload


def parse_head(head: bytes) -> tuple[int, str, bool]:
    """A response head -> ``(Content-Length, Content-Type, keep-alive)``."""
    status_line, *lines = head.decode("latin-1").rstrip().split("\r\n")
    parts = status_line.split()
    if len(parts) < 2 or not parts[1].isdigit():
        raise WireError(f"malformed status line {status_line!r}")
    headers = {
        name.strip().lower(): value.strip().lower()
        for name, _, value in (line.partition(":") for line in lines)
    }
    length = headers.get("content-length", "")
    if not length.isdecimal():
        raise WireError(f"response without a Content-Length ({length!r})")
    close = parts[0] != "HTTP/1.1" or headers.get("connection") == "close"
    return int(length), headers.get("content-type", ""), not close


def _receive(sock: socket.socket) -> tuple[bytes, str, bool]:
    """One response off a blocking socket: ``(body, Content-Type, keep-alive)``."""
    data, end = bytearray(), None
    while end is None or len(data) < end:
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionResetError("connection closed mid-response")
        data += chunk
        if end is None and (start := data.find(b"\r\n\r\n") + 4) >= 4:
            length, content_type, keep_alive = parse_head(data[:start])
            end = start + length
        elif end is None and len(data) > MAX_HEAD_BYTES:
            raise WireError(f"response head over {MAX_HEAD_BYTES} bytes")
    return bytes(data[start:end]), content_type, keep_alive


class Client:
    """Blocking client; safe to share across threads.

    Each call in flight holds one connection; a complete keep-alive
    response returns it to a stack of idle ones the next call pops
    (``append`` and ``pop`` are atomic, so the stack needs no lock).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._idle: list = []

    def _failed(self, path: str, error: Exception) -> TransientWireError:
        # Refused, reset, timed out, cut mid-response: retryable by the
        # caller, never resent here (``POST /apply`` is not idempotent).
        return TransientWireError(f"{self.host}:{self.port}{path} failed: {error}")

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        request = encode_request(method, path, body, self.host, self.port)
        sock, reusable = None, False
        try:
            sock = self._checkout()
            sock.sendall(request)
            raw, content_type, reusable = _receive(sock)
        except OSError as error:
            raise self._failed(path, error) from error
        finally:
            if reusable:
                self._idle.append(sock)
            elif sock is not None:
                sock.close()
        return check_payload(decode_payload(raw, content_type))

    def _checkout(self) -> socket.socket:
        """An idle connection the server has not closed, or a new one."""
        while self._idle:
            try:
                sock = self._idle.pop()
            except IndexError:  # another thread took the last one
                break
            sock.setblocking(False)
            try:  # an open idle connection has nothing to read
                sock.recv(1, socket.MSG_PEEK)
            except BlockingIOError:
                sock.settimeout(self.timeout)
                return sock
            except OSError:
                pass
            sock.close()  # at EOF (the server closed it), or stray bytes
        return socket.create_connection((self.host, self.port), self.timeout)

    def _call(self, method: str, path: str, body: dict | None, decode):
        return decode(self._request(method, path, body))

    def close(self) -> None:
        """Close the idle connections; a later call dials a new one."""
        while self._idle:
            self._idle.pop().close()

    def query(
        self,
        query: str,
        method: str = "minsupport",
        use_cache: bool = True,
        timeout_ms: float | None = None,
        degraded: bool = False,
    ) -> RemoteResult:
        body = query_body(query, method, use_cache, timeout_ms, degraded)
        return self._call("POST", "/query", body, decode_result)

    def prepared(
        self,
        template: str,
        params: dict | None = None,
        method: str = "minsupport",
    ) -> RemoteResult:
        body = prepared_body(template, params, method)
        return self._call("POST", "/prepared", body, decode_result)

    def apply(self, mutations) -> ApplyResult:
        """Apply a batch (a Mutation, an iterable, or a MutationBatch)."""
        return self._call("POST", "/apply", apply_body(mutations), decode_apply)

    def stats(self) -> dict:
        return self._call("GET", "/stats", None, itemgetter("stats"))

    def health(self) -> dict:
        return self._call("GET", "/health", None, dict)


class AsyncClient(Client):
    """Asyncio client: every :class:`Client` call, as an awaitable, over
    asyncio streams.  A pooled connection serves only the event loop
    that opened it."""

    async def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        request = encode_request(method, path, body, self.host, self.port)
        connection, reusable = None, False
        try:
            async with asyncio.timeout(self.timeout):
                connection = await self._checkout()
                _, reader, writer = connection
                writer.write(request)
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                length, content_type, keep_alive = parse_head(head)
                raw = await reader.readexactly(length)
                reusable = keep_alive
        except (OSError, EOFError, asyncio.LimitOverrunError) as error:
            raise self._failed(path, error) from error
        finally:
            if reusable:
                self._idle.append(connection)
            elif connection is not None:
                connection[2].close()
        return check_payload(decode_payload(raw, content_type))

    async def _checkout(self) -> tuple:
        """``(loop, reader, writer)``: an idle connection of this loop the
        server has not closed, or a new one."""
        loop = asyncio.get_running_loop()
        while self._idle:
            connection = self._idle.pop()
            if connection[0] is loop and not connection[1].at_eof():
                return connection
            if connection[0] is loop:
                connection[2].close()
        return (loop, *await asyncio.open_connection(self.host, self.port))

    async def _call(self, method: str, path: str, body: dict | None, decode):
        return decode(await self._request(method, path, body))

    async def close(self) -> None:
        """Close the idle connections this loop opened."""
        loop = asyncio.get_running_loop()
        while self._idle:
            owner, _, writer = self._idle.pop()
            if owner is loop:
                writer.close()
