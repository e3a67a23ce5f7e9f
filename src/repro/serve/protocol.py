"""The serve wire protocol: frames, the Relation codec, error codes.

Four layers, shared by the worker, the coordinator stubs, and both
HTTP clients:

* **Frames** — every RPC message is ``[header_len u32][body_len u32]
  [JSON header][raw body]`` (big-endian lengths).  The header carries
  the operation and its parameters (including the propagated
  ``deadline_ms`` budget); the body is reserved for bulk payloads so
  relation bytes never pass through JSON.

* **Relation codec** — a :class:`~repro.relation.Relation` is two flat
  ``array('q')`` columns, so the wire format is just
  ``[magic "RRel"][order tag u8][count u64][src bytes][tgt bytes]``
  with the columns serialized by zero-copy ``tobytes()`` /
  ``frombytes()``.  Column bytes are machine-endian: workers are
  forked from the coordinator, so both ends share one architecture —
  the magic would not decode across one anyway.

* **Result frame** — ``POST /query`` / ``/prepared`` to a client whose
  ``Accept`` names :data:`RESULT_FRAME_TYPE`: one frame, header = the
  JSON payload minus ``pairs`` plus ``ids`` and ``names`` (the node ids
  of this answer its connection has not been sent a name for, ascending,
  and those names) and ``byteorder`` (HTTP peers may differ; the reader
  swaps), body = the relation codec over the answer's own id columns.
  Each end keeps the connection's dictionary — the sender a byte per
  node id (:meth:`~repro.graph.graph.NamedPairs.unsent`), the reader a
  :class:`NameDictionary` — so a node's name crosses a connection once,
  as in HTTP/2's connection-scoped header table (RFC 7541): answers are
  pairs over interned ids, and ids are never reused.  The frame before
  it shipped the names of every node of every answer (up to a thousand
  on ``served_reads``) and re-ranked the columns into them, and the
  client built a name→id dict per answer: packing an answer took
  ≈0.50 ms and a client's whole read ≈0.75 ms of CPU, where they now
  take ≈0.07 and ≈0.40 ms (one pinned CPU of a 2-CPU host).  A warm
  connection sends ``"ids": []``.

* **Error codes** — every :class:`~repro.errors.ReproError` subclass
  maps to a stable string code (:func:`error_code`), so a failure on
  the far side of a socket re-raises as the *same* typed exception
  locally (:func:`raise_remote`).  The taxonomy survives the wire:
  a remote :class:`~repro.errors.QueryTimeoutError` is catchable as
  exactly that.

Malformed bytes raise :class:`~repro.errors.WireError` (permanent —
the payload is gone); transport failures (EOF mid-frame, resets,
socket timeouts) raise :class:`~repro.errors.TransientWireError`
(retryable — the request can be re-sent on a fresh connection).
"""

from __future__ import annotations

import json
import struct
import sys
from array import array

from repro.errors import (
    ExecutionError,
    GraphError,
    ParseError,
    PathIndexError,
    PlanningError,
    QueryTimeoutError,
    ReproError,
    RewriteError,
    ShardUnavailableError,
    StorageError,
    TransientStorageError,
    TransientWireError,
    UnknownNodeError,
    ValidationError,
    WireError,
)
from repro.relation import Order, Relation, unmarked_ids

#: First bytes of every serialized relation — a truncated or corrupted
#: buffer is overwhelmingly unlikely to still start with it.
RELATION_MAGIC = b"RRel"

#: Frame header sanity cap: headers are small JSON objects; anything
#: claiming a megabyte of header is a corrupt length prefix.
MAX_HEADER_BYTES = 1 << 20

#: Body sanity cap (1 GiB) — catches corrupt length prefixes before a
#: bad read tries to allocate the universe.
MAX_BODY_BYTES = 1 << 30

#: The media type of a result frame (``Accept`` / ``Content-Type``).  The
#: frame once carried a name list per answer under another type, so a
#: client of that frame gets JSON from this server instead of misreading.
RESULT_FRAME_TYPE = "application/x-repro-columns"

#: Largest node id a result frame may name.  A reader keeps a byte per id
#: up to the largest it was sent, so this bounds what one frame can make
#: it allocate (64 MiB); a graph that large is beyond this engine anyway.
MAX_NODE_ID = (1 << 26) - 1

_FRAME = struct.Struct(">II")
_RELATION_HEAD = struct.Struct(">4sBQ")

_ORDER_TAGS = {Order.NONE: 0, Order.BY_SRC: 1, Order.BY_TGT: 2}
_TAG_ORDERS = {tag: order for order, tag in _ORDER_TAGS.items()}


# -- relation codec ------------------------------------------------------------


def encode_relation(relation: Relation) -> bytes:
    """Relation -> bytes: magic, order tag, count, raw int64 columns (joined
    straight from the columns' buffers: one copy)."""
    count = len(relation.src)
    head = _RELATION_HEAD.pack(RELATION_MAGIC, _ORDER_TAGS[relation.order], count)
    return b"".join((head, relation.src, relation.tgt))


def decode_relation(data: bytes) -> Relation:
    """Bytes -> Relation, validating every structural invariant.

    Anything that does not decode exactly — wrong magic, unknown order
    tag, a length that disagrees with the declared count — raises
    :class:`WireError`: a corrupt slice must surface as a typed error,
    never as a silently wrong relation.
    """
    if len(data) < _RELATION_HEAD.size:
        raise WireError(
            f"relation frame truncated: {len(data)} bytes, "
            f"need at least {_RELATION_HEAD.size}"
        )
    magic, tag, count = _RELATION_HEAD.unpack_from(data)
    if magic != RELATION_MAGIC:
        raise WireError(f"bad relation magic {magic!r}")
    order = _TAG_ORDERS.get(tag)
    if order is None:
        raise WireError(f"unknown relation order tag {tag}")
    expected = _RELATION_HEAD.size + 16 * count
    if len(data) != expected:
        raise WireError(
            f"relation frame length mismatch: {count} pairs need "
            f"{expected} bytes, got {len(data)}"
        )
    column = 8 * count
    src = array("q")
    tgt = array("q")
    src.frombytes(data[_RELATION_HEAD.size : _RELATION_HEAD.size + column])
    tgt.frombytes(data[_RELATION_HEAD.size + column : expected])
    return Relation(src, tgt, order)


# -- error codes ---------------------------------------------------------------

#: Most-specific first: :func:`error_code` returns the first match, so
#: a subclass must appear before every one of its bases.
ERROR_CODES: tuple[tuple[str, type[Exception]], ...] = (
    ("unknown_node", UnknownNodeError),
    ("parse", ParseError),
    ("rewrite", RewriteError),
    ("planning", PlanningError),
    ("execution", ExecutionError),
    ("path_index", PathIndexError),
    ("transient_wire", TransientWireError),
    ("wire", WireError),
    ("transient_storage", TransientStorageError),
    ("storage", StorageError),
    ("query_timeout", QueryTimeoutError),
    ("shard_unavailable", ShardUnavailableError),
    ("validation", ValidationError),
    ("graph", GraphError),
    ("internal", ReproError),
)

_CODE_TYPES = dict(ERROR_CODES)


def error_code(error: Exception) -> str:
    """The stable wire code for an exception (``internal`` if unknown)."""
    for code, error_type in ERROR_CODES:
        if isinstance(error, error_type):
            return code
    return "internal"


def encode_error(error: Exception) -> dict:
    """Exception -> JSON-safe payload carrying code, message, extras."""
    payload: dict = {"code": error_code(error), "message": str(error)}
    shard = getattr(error, "shard", None)
    if shard is not None:
        payload["shard"] = shard
    position = getattr(error, "position", None)
    if position is not None:
        payload["position"] = position
    return payload


def remote_error(payload: object) -> ReproError:
    """Payload -> the typed local exception it encodes.

    Unknown codes decode as plain :class:`ReproError` — a newer server
    must degrade to the base class on an older client, not to an
    untyped crash.  A payload that is not an object, or whose ``code``
    or ``message`` is not a string, is garbled: :class:`WireError`.
    """
    if not isinstance(payload, dict):
        return WireError(f"error payload must be an object, got {payload!r:.200}")
    code = payload.get("code", "")
    message = payload.get("message", "remote error")
    if not isinstance(code, str) or not isinstance(message, str):
        return WireError(f"malformed error payload {payload!r:.200}")
    error_type = _CODE_TYPES.get(code, ReproError)
    if error_type is ShardUnavailableError:
        return ShardUnavailableError(message, shard=payload.get("shard"))
    if error_type is ParseError:
        return ParseError(message, position=payload.get("position"))
    return error_type(message)


def raise_remote(payload: object) -> None:
    """Re-raise a remote failure as its local typed exception."""
    raise remote_error(payload)


# -- frames --------------------------------------------------------------------


def recv_exact(read, count: int) -> bytes:
    """Read exactly ``count`` bytes via ``read(n)``.

    ``read`` is a ``socket.recv``-shaped callable.  A peer that goes
    away mid-frame yields a short read; that is a transport failure,
    so it raises :class:`TransientWireError` — the caller's retry can
    reconnect and re-send.
    """
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = read(remaining)
        if not chunk:
            raise TransientWireError(
                f"connection closed mid-frame: wanted {count} bytes, "
                f"got {count - remaining}"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def pack_frame(header: dict, body: bytes = b"") -> bytes:
    """One ``[lengths][JSON header][body]`` frame as bytes.

    The same frame shape whether it crosses a socket
    (:func:`send_frame`) or lands in an append-only file (the mutation
    log's records are exactly these frames).
    """
    encoded = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return _FRAME.pack(len(encoded), len(body)) + encoded + body


def send_frame(sock, header: dict, body: bytes = b"") -> None:
    """Write one ``[lengths][JSON header][body]`` frame to a socket."""
    sock.sendall(pack_frame(header, body))


def read_frame(read, header_cap: int = MAX_HEADER_BYTES) -> tuple[dict, bytes]:
    """Read one frame via a ``read(n)`` callable; returns ``(header, body)``.

    Implausible lengths and undecodable headers are permanent
    :class:`WireError`\\ s (the stream is garbage); a clean or
    mid-frame EOF is a :class:`TransientWireError` (the peer went
    away, retry on a fresh connection — or, for a file, the tail was
    torn by a crash).
    """
    prefix = recv_exact(read, _FRAME.size)
    header_len, body_len = _FRAME.unpack(prefix)
    if header_len > header_cap or body_len > MAX_BODY_BYTES:
        raise WireError(
            f"implausible frame lengths (header={header_len}, "
            f"body={body_len}): corrupt length prefix"
        )
    header_bytes = recv_exact(read, header_len)
    body = recv_exact(read, body_len) if body_len else b""
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"undecodable frame header: {error}") from error
    if not isinstance(header, dict):
        raise WireError(f"frame header must be an object, got {header!r}")
    return header, body


def recv_frame(sock) -> tuple[dict, bytes]:
    """Read one frame from a socket (see :func:`read_frame`)."""
    return read_frame(sock.recv)


def pack_result(
    header: dict, names: list[str], columns: Relation, ids: list[int] | None = None
) -> bytes:
    """One answer as a result frame (see the module docstring): ``names``
    are those of ``ids`` (by default ``0, 1, …``), the ids this answer's
    connection has not been sent yet."""
    ids = list(range(len(names))) if ids is None else ids
    header = {**header, "ids": ids, "names": names, "byteorder": sys.byteorder}
    return pack_frame(header, encode_relation(columns))


class NameDictionary:
    """One connection's id → name dictionary, as a result frame's reader
    keeps it: what every frame read on the connection named so far."""

    __slots__ = ("names", "ids", "_known")

    def __init__(self) -> None:
        self.names: dict[int, str] = {}
        self.ids: dict[str, int] = {}
        self._known = bytearray()  # a byte per id: named or not

    def learn(self, ids: object, names: object) -> None:
        """Add a frame's ``ids`` / ``names``; a malformed list, an id out of
        range, a second name for an id or a second id for a name is a
        :class:`WireError`, and leaves the dictionary to be dropped."""
        if not isinstance(names, list) or not all(type(name) is str for name in names):
            raise WireError("result frame names must be a list of strings")
        if not isinstance(ids, list) or len(ids) != len(names):
            raise WireError("result frame ids must be a list, one per name")
        known = self._known
        for node, name in zip(ids, names):
            if type(node) is not int or not 0 <= node <= MAX_NODE_ID:
                raise WireError(f"result frame id {node!r:.40} is not a node id")
            held = self.names.get(node)
            if held is None:
                if self.ids.setdefault(name, node) != node:
                    raise WireError(f"{name!r} already names id {self.ids[name]}")
                self.names[node] = name
                if node >= len(known):
                    known.extend(bytes(node + 1 - len(known)))
                known[node] = 1
            elif held != name:
                raise WireError(f"a second name {name!r} for id {node} ({held!r})")

    def check(self, columns: Relation) -> None:
        """Every id of ``columns`` has a name here, or :class:`WireError`."""
        unnamed = unmarked_ids(columns, self._known)
        if unnamed:
            raise WireError(
                f"frame ids {unnamed[:5].tolist()} outside its connection's names"
            )


def unpack_result(data, names: NameDictionary) -> tuple[dict, Relation]:
    """A complete HTTP body holding one result frame -> ``(header, columns)``,
    its new names learned into ``names``.

    Anything inexact is a permanent :class:`WireError` — an id ``names``
    lacks too: caught here, not as a ``KeyError`` at read time.
    """
    view = memoryview(data)
    if len(view) < _FRAME.size:
        raise WireError(f"result frame truncated: {len(view)} bytes")
    header_len, body_len = _FRAME.unpack_from(view)
    start = _FRAME.size + header_len
    if start + body_len > len(view):
        raise WireError(
            f"result frame truncated: {len(view)} of {start + body_len} bytes"
        )
    if start + body_len < len(view):
        raise WireError("trailing bytes after the result frame")
    try:
        header = json.loads(str(view[_FRAME.size : start], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"undecodable result frame header: {error}") from error
    if not isinstance(header, dict):
        raise WireError(f"result frame header must be an object, got {header!r:.200}")
    byteorder = header.get("byteorder")
    if byteorder not in ("little", "big"):
        raise WireError(f"unknown column byte order {byteorder!r}")
    columns = decode_relation(view[start:])
    if byteorder != sys.byteorder:
        columns.src.byteswap()
        columns.tgt.byteswap()
    names.learn(header.get("ids"), header.get("names"))
    names.check(columns)
    return header, columns
