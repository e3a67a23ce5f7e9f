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
  JSON payload minus ``pairs`` plus ``names`` (of the node ids that
  occur, in id order) and ``byteorder`` (HTTP peers may differ; the reader
  swaps), body = the relation codec over the columns as ranks into ``names``.

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

import io
import json
import struct
import sys
from array import array

from repro.errors import (
    DatalogError,
    ExecutionError,
    GraphError,
    KeyOrderError,
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
    UnsupportedQueryError,
    ValidationError,
    WireError,
)
from repro.relation import Order, Relation, id_range

#: First bytes of every serialized relation — a truncated or corrupted
#: buffer is overwhelmingly unlikely to still start with it.
RELATION_MAGIC = b"RRel"

#: Frame header sanity cap: headers are small JSON objects; anything
#: claiming a megabyte of header is a corrupt length prefix.
MAX_HEADER_BYTES = 1 << 20

#: Body sanity cap (1 GiB) — catches corrupt length prefixes before a
#: bad read tries to allocate the universe.
MAX_BODY_BYTES = 1 << 30

#: The media type of a result frame (``Accept`` / ``Content-Type``).
RESULT_FRAME_TYPE = "application/x-repro-result"

_FRAME = struct.Struct(">II")
_RELATION_HEAD = struct.Struct(">4sBQ")

_ORDER_TAGS = {Order.NONE: 0, Order.BY_SRC: 1, Order.BY_TGT: 2}
_TAG_ORDERS = {tag: order for order, tag in _ORDER_TAGS.items()}


# -- relation codec ------------------------------------------------------------


def encode_relation(relation: Relation) -> bytes:
    """Relation -> bytes: magic, order tag, count, raw int64 columns."""
    count = len(relation.src)
    return b"".join(
        (
            _RELATION_HEAD.pack(
                RELATION_MAGIC, _ORDER_TAGS[relation.order], count
            ),
            relation.src.tobytes(),
            relation.tgt.tobytes(),
        )
    )


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
    ("key_order", KeyOrderError),
    ("transient_wire", TransientWireError),
    ("wire", WireError),
    ("transient_storage", TransientStorageError),
    ("storage", StorageError),
    ("query_timeout", QueryTimeoutError),
    ("shard_unavailable", ShardUnavailableError),
    ("datalog", DatalogError),
    ("unsupported_query", UnsupportedQueryError),
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


def pack_result(header: dict, names: list[str], ranks: Relation) -> bytes:
    """One answer as a result frame (see the module docstring)."""
    header = {**header, "names": names, "byteorder": sys.byteorder}
    return pack_frame(header, encode_relation(ranks))


def unpack_result(data: bytes) -> tuple[dict, Relation]:
    """A complete HTTP body holding one result frame -> ``(header, ranks)``.

    Anything inexact is a permanent :class:`WireError` — a rank outside
    ``names`` too: caught here, not as an ``IndexError`` at read time.
    """
    stream = io.BytesIO(data)
    try:  # the body is in memory, so its own length bounds the header
        header, body = read_frame(stream.read, header_cap=len(data))
    except TransientWireError as error:
        raise WireError(f"result frame truncated: {error}") from error
    if stream.read(1):
        raise WireError("trailing bytes after the result frame")
    names, byteorder = header.get("names"), header.get("byteorder")
    if not isinstance(names, list) or not all(type(name) is str for name in names):
        raise WireError("result frame names must be a list of strings")
    if byteorder not in ("little", "big"):
        raise WireError(f"unknown column byte order {byteorder!r}")
    ranks = decode_relation(body)
    if byteorder != sys.byteorder:
        ranks.src.byteswap()
        ranks.tgt.byteswap()
    low, high = id_range(ranks)
    if low < 0 or high >= len(names):
        raise WireError(f"frame ids [{low}, {high}] outside its {len(names)} names")
    return header, ranks
