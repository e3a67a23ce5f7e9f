"""Clients for the serve front door: one codec, sync and async.

:class:`Client` (blocking, :mod:`http.client`) and
:class:`AsyncClient` (:mod:`asyncio`) share every byte of request
building and response decoding — the transport is the only
difference, so the two cannot drift apart.

The error taxonomy crosses the wire intact: a server-side
:class:`~repro.errors.QueryTimeoutError` re-raises here as exactly
that type (via the :mod:`repro.serve.protocol` code table), a refused
or reset connection raises the retryable
:class:`~repro.errors.TransientWireError`, and a response that does
not parse raises the permanent :class:`~repro.errors.WireError`.
Backpressure (HTTP 503) therefore surfaces as a transient the
caller's own :func:`~repro.faults.retry_call` can spin on.

    >>> from repro.client import query_body
    >>> body = query_body("a/b", degraded=True)
    >>> body["query"], body["degraded"]
    ('a/b', True)
"""

from __future__ import annotations

import asyncio
import http.client
import json
from dataclasses import dataclass, field

from repro.errors import TransientWireError, WireError
from repro.graph.graph import NamedPairs, name_probe
from repro.serve.protocol import RESULT_FRAME_TYPE, raise_remote, unpack_result
from repro.write.mutation import ApplyResult, Mutation, MutationBatch

#: Seconds a client waits for a response before declaring the server
#: gone (transient — the request can be retried elsewhere/later).
DEFAULT_TIMEOUT = 60.0

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
    body: dict = {
        "query": query,
        "method": method,
        "use_cache": use_cache,
        "degraded": degraded,
    }
    if timeout_ms is not None:
        body["timeout_ms"] = timeout_ms
    return body


def prepared_body(template: str, params: dict | None, method: str) -> dict:
    return {
        "template": template,
        "params": dict(params or {}),
        "method": method,
    }


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


class _Endpoint:
    """Where a client's requests go, and how long it waits for each."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout


# -- sync ----------------------------------------------------------------------


class Client(_Endpoint):
    """Blocking client; safe to share across threads (connection per call)."""

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(method, path, encode_body(body), REQUEST_HEADERS)
            response = connection.getresponse()
            raw = response.read()
            content_type = response.getheader("Content-Type", "")
        except (OSError, http.client.HTTPException) as error:
            # Refused, reset, timed out: all retryable — the server may
            # be restarting or shedding load.
            raise TransientWireError(
                f"request to {self.host}:{self.port}{path} failed: {error}"
            ) from error
        finally:
            connection.close()
        return check_payload(decode_payload(raw, content_type))

    def query(
        self,
        query: str,
        method: str = "minsupport",
        use_cache: bool = True,
        timeout_ms: float | None = None,
        degraded: bool = False,
    ) -> RemoteResult:
        body = query_body(query, method, use_cache, timeout_ms, degraded)
        return decode_result(self._request("POST", "/query", body))

    def prepared(
        self,
        template: str,
        params: dict | None = None,
        method: str = "minsupport",
    ) -> RemoteResult:
        body = prepared_body(template, params, method)
        return decode_result(self._request("POST", "/prepared", body))

    def apply(self, mutations) -> ApplyResult:
        """Apply a batch (a Mutation, an iterable, or a MutationBatch)."""
        return decode_apply(
            self._request("POST", "/apply", apply_body(mutations))
        )

    def add_edge(self, source: str, label: str, target: str) -> int | None:
        result = self.apply(Mutation.add(source, label, target))
        return result.version if result.changed else None

    def remove_edge(self, source: str, label: str, target: str) -> int | None:
        result = self.apply(Mutation.remove(source, label, target))
        return result.version if result.changed else None

    def stats(self) -> dict:
        return self._request("GET", "/stats")["stats"]

    def health(self) -> dict:
        return self._request("GET", "/health")


# -- async ---------------------------------------------------------------------


class AsyncClient(_Endpoint):
    """Asyncio client; same codec, hand-rolled HTTP/1.1 transport."""

    async def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        payload = encode_body(body)
        headers = "".join(f"{k}: {v}\r\n" for k, v in REQUEST_HEADERS.items())
        request = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n{headers}"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1") + payload
        try:
            raw = await asyncio.wait_for(self._exchange(request), timeout=self.timeout)
        except (OSError, asyncio.TimeoutError, ConnectionError) as error:
            raise TransientWireError(
                f"request to {self.host}:{self.port}{path} failed: {error}"
            ) from error
        return check_payload(decode_payload(*_http_body(raw)))

    async def _exchange(self, request: bytes) -> bytes:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write(request)
            await writer.drain()
            return await reader.read()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def query(
        self,
        query: str,
        method: str = "minsupport",
        use_cache: bool = True,
        timeout_ms: float | None = None,
        degraded: bool = False,
    ) -> RemoteResult:
        body = query_body(query, method, use_cache, timeout_ms, degraded)
        return decode_result(await self._request("POST", "/query", body))

    async def prepared(
        self,
        template: str,
        params: dict | None = None,
        method: str = "minsupport",
    ) -> RemoteResult:
        body = prepared_body(template, params, method)
        return decode_result(await self._request("POST", "/prepared", body))

    async def apply(self, mutations) -> ApplyResult:
        """Apply a batch (a Mutation, an iterable, or a MutationBatch)."""
        return decode_apply(
            await self._request("POST", "/apply", apply_body(mutations))
        )

    async def add_edge(self, source: str, label: str, target: str) -> int | None:
        result = await self.apply(Mutation.add(source, label, target))
        return result.version if result.changed else None

    async def remove_edge(
        self, source: str, label: str, target: str
    ) -> int | None:
        result = await self.apply(Mutation.remove(source, label, target))
        return result.version if result.changed else None

    async def stats(self) -> dict:
        return (await self._request("GET", "/stats"))["stats"]

    async def health(self) -> dict:
        return await self._request("GET", "/health")


def _http_body(raw: bytes) -> tuple[bytes, str]:
    """A raw ``Connection: close`` read -> ``(body, Content-Type)``; a body short
    of its ``Content-Length`` is retryable, as http.client tells :class:`Client`."""
    head, separator, body = raw.partition(b"\r\n\r\n")
    if not separator:
        raise TransientWireError("connection closed before response head")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    parts = status_line.split()
    if len(parts) < 2 or not parts[1].isdigit():
        raise WireError(f"malformed status line {status_line!r}")
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in lines)
    }
    length = headers.get("content-length", "")
    if length.isdigit() and len(body) < int(length):
        raise TransientWireError(f"closed mid-body: {len(body)} of {length} bytes")
    return body, headers.get("content-type", "")
