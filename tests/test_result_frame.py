"""The result frame: an answer crosses HTTP as its two id columns.

``POST /query`` and ``POST /prepared`` answer a client whose ``Accept``
names :data:`~repro.serve.protocol.RESULT_FRAME_TYPE` with one binary
frame (JSON header with a per-response name list, packed rank columns),
and the client lays the same :class:`~repro.graph.graph.NamedPairs` view
over it that an in-process read gets.  Four things are pinned here:

* the frame and the JSON body decode to the same set, under every
  relation order and on both paths of the re-coding kernel;
* nothing but :class:`~repro.errors.WireError` escapes the decoder,
  whatever the bytes;
* who gets which body: the negotiation matrix against a live server;
* the front door answers (400 / 500) where it used to drop the
  connection, and both client transports call a cut response transient.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import random
import socket
import sys
import threading
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import client as client_module
from repro import relation as relation_module
from repro.api import GraphDatabase, QueryResult, ServiceConfig
from repro.client import (
    AsyncClient,
    Client,
    RemoteResult,
    check_payload,
    decode_payload,
    decode_result,
    parse_head,
)
from repro.errors import (
    ParseError,
    ReproError,
    TransientWireError,
    ValidationError,
    WireError,
)
from repro.faults import FakeClock, FaultPlan, FaultRule, armed
from repro.graph.graph import NamedPairs
from repro.relation import Order, Relation, dedup_sort, dense_ranks, id_range
from repro.serve import server as server_module
from repro.serve.protocol import (
    RESULT_FRAME_TYPE,
    encode_relation,
    pack_frame,
    pack_result,
    unpack_result,
)
from repro.serve.server import _result_payload, serve_in_thread

ORDERS = (Order.BY_SRC, Order.BY_TGT, Order.NONE)
JSON_TYPE = "application/json"


@contextlib.contextmanager
def kernel_path(path: str):
    """Route every relation kernel through numpy (any size) or plain Python."""
    saved = relation_module._FORCE_PURE_PYTHON, relation_module._VECTOR_MIN
    relation_module._FORCE_PURE_PYTHON = path == "python"
    relation_module._VECTOR_MIN = 0
    try:
        yield
    finally:
        relation_module._FORCE_PURE_PYTHON, relation_module._VECTOR_MIN = saved


def view_over(names: list[str], id_pairs, order: Order) -> NamedPairs:
    """What ``Graph.named_pairs`` makes: a view whose columns honour ``order``."""
    relation = Relation.from_pairs(id_pairs)
    if order is not Order.NONE:
        relation = dedup_sort(relation, order)
    return NamedPairs(relation, names, {name: i for i, name in enumerate(names)})


def result_of(view: NamedPairs) -> QueryResult:
    return QueryResult(
        query="q", method="minjoin", pairs=view, seconds=0.25, version=7, cached=True
    )


def through_frame(result: QueryResult) -> RemoteResult:
    raw = _result_payload(result, framed=True)
    return decode_result(check_payload(decode_payload(raw, RESULT_FRAME_TYPE)))


def through_json(result: QueryResult) -> RemoteResult:
    raw = json.dumps(_result_payload(result), separators=(",", ":")).encode()
    return decode_result(check_payload(decode_payload(raw, JSON_TYPE)))


@st.composite
def answers(draw):
    """A name list (a graph's id->name table), id pairs over it, an order."""
    names = draw(st.lists(st.text(max_size=6), unique=True, min_size=1, max_size=9))
    ids = st.integers(0, len(names) - 1)
    id_pairs = draw(st.lists(st.tuples(ids, ids), unique=True, max_size=24))
    return names, id_pairs, draw(st.sampled_from(ORDERS))


# -- (i) round trip --------------------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(answers())
    def test_frame_equals_json_equals_the_local_view(self, answer):
        names, id_pairs, order = answer
        view = view_over(names, id_pairs, order)
        result = result_of(view)
        expected = frozenset((names[a], names[b]) for a, b in id_pairs)
        via_json = through_json(result)
        assert via_json.pairs == expected
        for path in ("numpy", "python"):
            with kernel_path(path):
                remote = through_frame(result)
            pairs = remote.pairs
            assert isinstance(pairs, NamedPairs)
            # the same set as the JSON body's, and as the in-process view
            assert pairs == via_json.pairs and via_json.pairs == pairs
            assert pairs == view and view == pairs
            assert len(pairs) == len(remote) == len(view) == len(expected)
            assert sorted(pairs) == sorted(view)
            assert hash(pairs) == hash(expected)
            for pair in expected:
                assert pair in pairs and list(pair) in remote
            for probe in [(a, b) for a in names for b in names] + [("", "nobody")]:
                assert (probe in pairs) == (probe in expected)
            # every other field crosses unchanged on both bodies
            for other in (remote, via_json):
                assert (other.query, other.method) == ("q", "minjoin")
                assert (other.seconds, other.version, other.cached) == (0.25, 7, True)
                assert (other.partial, other.shards_failed) == (False, 0)

    @settings(max_examples=120, deadline=None)
    @given(answers(), st.sampled_from(["numpy", "python"]))
    def test_recoding_is_rank_preserving(self, answer, path):
        """Ranks into the sorted ids that occur: the order tag stays true."""
        names, id_pairs, order = answer
        relation = view_over(names, id_pairs, order)._relation
        with kernel_path(path):
            ids, ranks = dense_ranks(relation)
        occurring = sorted({node for pair in id_pairs for node in pair})
        assert list(ids) == occurring
        assert ranks.order is relation.order and len(ranks) == len(relation)
        assert [(ids[a], ids[b]) for a, b in ranks] == list(relation)
        if order is not Order.NONE:
            assert ranks == dedup_sort(ranks, order)
        if ranks:
            with kernel_path(path):
                assert id_range(ranks) == (0, len(ids) - 1)

    def test_the_two_kernel_paths_agree_on_a_large_answer(self):
        rng = random.Random(3)
        pairs = {(rng.randrange(5000), rng.randrange(5000)) for _ in range(4000)}
        relation = dedup_sort(Relation.from_pairs(pairs), Order.BY_SRC)
        with kernel_path("python"):
            slow = dense_ranks(relation)
        fast = dense_ranks(relation)  # 4000 rows: numpy by the size gate itself
        assert fast[0] == slow[0] and fast[1] == slow[1]
        assert fast[1].order is Order.BY_SRC

    def test_empty_answer(self):
        view = view_over(["a", "b"], [], Order.BY_SRC)
        remote = through_frame(result_of(view))
        assert len(remote.pairs) == 0 and list(remote.pairs) == []
        assert remote.pairs == frozenset() and ("a", "b") not in remote
        header, ranks = unpack_result(_result_payload(result_of(view), framed=True))
        assert header["names"] == [] and len(ranks) == 0

    def test_only_the_names_that_occur_cross(self):
        names = [f"n{i}" for i in range(100)]
        view = view_over(names, [(7, 90), (90, 7), (7, 7)], Order.BY_SRC)
        header, ranks = unpack_result(_result_payload(result_of(view), framed=True))
        assert header["names"] == ["n7", "n90"]
        assert list(ranks) == [(0, 0), (0, 1), (1, 0)]
        assert "pairs" not in header and header["byteorder"] == sys.byteorder


# -- (ii) hostile frames -----------------------------------------------------------

HEADER = {"ok": True, "query": "q", "method": "m", "seconds": 0.0, "version": 3}
NAMES = ["a", "b", "c", "d"]
RANKS = Relation(array("q", [0, 0, 2]), array("q", [1, 3, 3]), Order.BY_SRC)
ANSWER = {("a", "b"), ("a", "d"), ("c", "d")}


def decode_frame(raw: bytes) -> RemoteResult:
    """The client's whole decode of one response body said to be a frame."""
    return decode_result(check_payload(decode_payload(raw, RESULT_FRAME_TYPE)))


def hand_frame(relation: Relation = RANKS, **header) -> bytes:
    """A frame packed by hand, so a test can say anything in its header."""
    fields = {**HEADER, "names": NAMES, "byteorder": sys.byteorder, **header}
    fields = {key: value for key, value in fields.items() if value is not ...}
    return pack_frame(fields, encode_relation(relation))


def swapped(relation: Relation) -> Relation:
    src, tgt = array("q", relation.src), array("q", relation.tgt)
    src.byteswap()
    tgt.byteswap()
    return Relation(src, tgt, relation.order)


#: A result frame's header: the JSON payload's keys minus ``pairs``, plus two.
FRAME_KEYS = [
    "ok",
    "query",
    "method",
    "seconds",
    "cached",
    "version",
    "partial",
    "shards_failed",
    "names",
    "byteorder",
]

JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


class TestHostileFrames:
    def test_the_valid_frame_decodes(self):
        assert decode_frame(pack_result(HEADER, NAMES, RANKS)).pairs == ANSWER
        assert decode_frame(hand_frame()).pairs == ANSWER

    def test_every_truncation_is_a_permanent_wire_error(self):
        frame = pack_result(HEADER, NAMES, RANKS)
        for cut in range(len(frame)):
            with pytest.raises(WireError) as caught:
                decode_frame(frame[:cut])
            # the HTTP body was whole, so re-sending will not mend it
            assert not isinstance(caught.value, TransientWireError), cut

    @pytest.mark.parametrize("tail", [b"\0", b"RRel", b"x" * 4096])
    def test_trailing_bytes(self, tail):
        with pytest.raises(WireError, match="trailing"):
            decode_frame(pack_result(HEADER, NAMES, RANKS) + tail)

    def test_wrong_magic(self):
        frame = pack_result(HEADER, NAMES, RANKS)
        assert frame.count(b"RRel") == 1
        with pytest.raises(WireError, match="magic"):
            decode_frame(frame.replace(b"RRel", b"RRle"))

    @pytest.mark.parametrize("path", ["numpy", "python"])
    @pytest.mark.parametrize(
        "src, tgt",
        [
            ([0, 4], [1, 1]),
            ([0, 1], [1, 4]),
            ([-1, 0], [1, 1]),
            ([0], [-1]),
            ([2**62], [0]),
        ],
    )
    def test_ids_outside_the_dictionary(self, src, tgt, path):
        """A ``WireError`` at decode time, never an ``IndexError`` at read time."""
        rogue = Relation(array("q", src), array("q", tgt), Order.NONE)
        with kernel_path(path), pytest.raises(WireError, match="outside"):
            decode_frame(hand_frame(rogue))

    def test_ids_with_no_names_at_all(self):
        with pytest.raises(WireError, match="outside"):
            decode_frame(hand_frame(names=[]))

    @pytest.mark.parametrize(
        "names", [[1, 2, 3, 4], "abcd", None, ..., ["a", "b", None, "d"], {"a": 0}, 4]
    )
    def test_names_must_be_a_list_of_strings(self, names):
        with pytest.raises(WireError, match="names"):
            decode_frame(hand_frame(names=names))

    def test_a_foreign_byte_order_is_swapped_not_misread(self):
        foreign = "big" if sys.byteorder == "little" else "little"
        frame = hand_frame(swapped(RANKS), byteorder=foreign)
        remote = decode_frame(frame)
        assert remote.pairs == ANSWER and ("a", "d") in remote
        # ...and native columns under the foreign mark are caught, not read
        with pytest.raises(WireError, match="outside"):
            decode_frame(hand_frame(byteorder=foreign))

    @pytest.mark.parametrize("mark", ["middle", "", None, ..., 1, ["little"]])
    def test_an_undeclared_byte_order(self, mark):
        with pytest.raises(WireError, match="byte order"):
            decode_frame(hand_frame(byteorder=mark))

    def test_a_header_larger_than_the_rpc_cap_still_decodes(self):
        """An answer over many nodes: the name list may pass 1 MiB."""
        names = [f"node-{i:07d}-{'x' * 40}" for i in range(22_000)]
        frame = pack_result(HEADER, names, RANKS)
        assert len(frame) > 1 << 20
        assert decode_frame(frame).pairs == {
            (names[0], names[1]),
            (names[0], names[3]),
            (names[2], names[3]),
        }

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_bytes_only_raise_wire_errors(self, data):
        frame = bytearray(pack_result(HEADER, NAMES, RANKS))
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(frame) - 1))
            edit = data.draw(st.sampled_from(["set", "delete", "insert"]))
            if edit == "delete":
                del frame[at]
            elif edit == "insert":
                frame.insert(at, data.draw(st.integers(0, 255)))
            else:
                frame[at] = data.draw(st.integers(0, 255))
            if not frame:
                break
        self._decodes_or_wire_error(bytes(frame))

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.sampled_from(FRAME_KEYS), JSON_JUNK, min_size=1))
    def test_junk_header_values_only_raise_wire_errors(self, junk):
        self._decodes_or_wire_error(hand_frame(**junk))

    @staticmethod
    def _decodes_or_wire_error(raw: bytes) -> None:
        try:
            payload = decode_payload(raw, RESULT_FRAME_TYPE)
            remote = decode_result(payload)
        except WireError:
            return
        # It decoded: then it reads, fully, without another exception.
        assert len(list(remote.pairs)) == len(remote.pairs)
        assert all(type(name) is str for pair in remote.pairs for name in pair)


# -- (iii) negotiation against a live server ----------------------------------------


def _edges(seed: int = 5, nodes: int = 30, count: int = 120):
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(nodes)]
    edges = [
        (rng.choice(names), rng.choice("abc"), rng.choice(names)) for _ in range(count)
    ]
    return edges + [("n0", "z", "n1")]  # z/z is empty


@pytest.fixture(scope="module")
def service():
    database = GraphDatabase.from_edges(_edges(), config=ServiceConfig(k=2, shards=2))
    handle = serve_in_thread(database)
    yield database, handle.port
    handle.stop()
    database.close()


@pytest.fixture
def spy(monkeypatch):
    """The ``Content-Type`` of every response the shared codec decodes."""
    seen: list[str] = []
    original = client_module.decode_payload

    def recording(raw, content_type=""):
        seen.append(content_type)
        return original(raw, content_type)

    monkeypatch.setattr(client_module, "decode_payload", recording)
    return seen


def call(transport: str, port: int, route: str, text: str, **options) -> RemoteResult:
    """One read through either client, on either answer route."""
    remote = (Client if transport == "sync" else AsyncClient)(port=port)
    read = remote.query if route == "/query" else remote.prepared
    if transport == "sync":
        with contextlib.closing(remote):
            return read(text, **options)

    async def read_and_close():
        try:
            return await read(text, **options)
        finally:
            await remote.close()

    return asyncio.run(read_and_close())


@pytest.fixture
def remote(service):
    """A sync client of the live server, closed after the test."""
    with contextlib.closing(Client(port=service[1])) as client:
        yield client


#: route -> (a query with an answer, an empty one, one that does not parse)
TEXTS = {
    "/query": ("a/b", "z/z", "a/(b"),
    "/prepared": ("a{1,$n}/b", "z{2,$n}", "a/(b{$n}"),
}


@pytest.mark.parametrize("route", ["/query", "/prepared"])
@pytest.mark.parametrize("transport", ["sync", "async"])
@pytest.mark.parametrize("asks", [True, False], ids=["accept-frame", "no-accept"])
class TestNegotiation:
    @pytest.fixture(autouse=True)
    def _accept(self, asks, monkeypatch):
        if not asks:
            monkeypatch.delitem(client_module.REQUEST_HEADERS, "Accept")
        self.body_type = RESULT_FRAME_TYPE if asks else JSON_TYPE
        self.pairs_type = NamedPairs if asks else frozenset

    def options(self, route: str) -> dict:
        return {"params": {"n": 2}} if route == "/prepared" else {}

    def test_ok(self, service, spy, asks, transport, route):
        database, port = service
        full, _, _ = TEXTS[route]
        remote = call(transport, port, route, full, **self.options(route))
        local = database.query("a/b" if route == "/query" else "a{1,2}/b")
        assert spy == [self.body_type]
        assert type(remote.pairs) is self.pairs_type
        assert len(local.pairs) > 0 and remote.pairs == local.pairs
        assert len(remote) == len(local) and sorted(remote.pairs) == sorted(local.pairs)
        assert all(pair in remote for pair in local.pairs)
        assert ("n0", "nobody") not in remote
        assert remote.version == database.graph.version and not remote.partial

    def test_empty_answer(self, service, spy, asks, transport, route):
        _, port = service
        remote = call(transport, port, route, TEXTS[route][1], **self.options(route))
        assert spy == [self.body_type]
        assert type(remote.pairs) is self.pairs_type
        assert len(remote) == 0 and remote.pairs == frozenset()

    def test_typed_error_stays_json(self, service, spy, asks, transport, route):
        _, port = service
        with pytest.raises(ParseError):
            call(transport, port, route, TEXTS[route][2], **self.options(route))
        assert spy == [JSON_TYPE]

    def test_cached_hit(self, service, spy, asks, transport, route):
        database, port = service
        text = TEXTS[route][0]
        first = call(transport, port, route, text, **self.options(route))
        again = call(transport, port, route, text, **self.options(route))
        assert spy == [self.body_type] * 2
        assert again.pairs == first.pairs and again.version == first.version
        if route == "/query":
            assert again.cached


@pytest.mark.parametrize("transport", ["sync", "async"])
@pytest.mark.parametrize("asks", [True, False], ids=["accept-frame", "no-accept"])
def test_degraded_partial_answer(service, spy, asks, transport, monkeypatch):
    """``/query`` only: the prepared route has no degraded mode."""
    if not asks:
        monkeypatch.delitem(client_module.REQUEST_HEADERS, "Accept")
    database, port = service
    full = database.query("a/b").pairs
    plan = FaultPlan([FaultRule("shard.scan", "transient", shard=0)], clock=FakeClock())
    with armed(plan):
        remote = call(transport, port, "/query", "a/b", degraded=True, use_cache=False)
    assert spy == [RESULT_FRAME_TYPE if asks else JSON_TYPE]
    assert type(remote.pairs) is (NamedPairs if asks else frozenset)
    assert remote.partial and remote.shards_failed >= 1
    assert remote.pairs <= full and len(remote) < len(full)


class TestWireContract:
    def raw(self, port: int, body: dict, accept: str | None, path="/query"):
        headers = {"Content-Type": JSON_TYPE}
        if accept is not None:
            headers["Accept"] = accept
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            connection.request("POST", path, json.dumps(body).encode(), headers)
            response = connection.getresponse()
            return response.status, response.getheader("Content-Type"), response.read()
        finally:
            connection.close()

    @pytest.mark.parametrize("accept", [None, "*/*", JSON_TYPE, "text/html"])
    def test_without_the_accept_the_json_body_is_what_it_was(self, service, accept):
        """Byte for byte: key order, sorted pairs, compact separators."""
        database, port = service
        status, content_type, raw = self.raw(port, {"query": "a/b"}, accept)
        assert (status, content_type) == (200, JSON_TYPE)
        payload = json.loads(raw)
        result = database.query("a/b")
        as_before = {
            "ok": True,
            "query": "a/b",
            "method": result.method,
            "pairs": sorted(result.pairs),
            "seconds": payload["seconds"],
            "cached": payload["cached"],
            "version": result.version,
            "partial": False,
            "shards_failed": 0,
        }
        assert raw == json.dumps(as_before, separators=(",", ":")).encode("utf-8")

    @pytest.mark.parametrize(
        "accept", [RESULT_FRAME_TYPE, f"{JSON_TYPE};q=0.5, {RESULT_FRAME_TYPE.upper()}"]
    )
    def test_the_frame_is_the_payload_minus_pairs(self, service, accept):
        database, port = service
        status, content_type, raw = self.raw(port, {"query": "a/b"}, accept)
        assert (status, content_type) == (200, RESULT_FRAME_TYPE)
        header, ranks = unpack_result(raw)
        assert list(header) == FRAME_KEYS
        local = database.query("a/b").pairs
        occurring = {name for pair in local for name in pair}
        assert header["names"] == sorted(occurring, key=database.graph.node_id)
        assert {(header["names"][a], header["names"][b]) for a, b in ranks} == local

    def test_errors_and_other_routes_stay_json(self, service):
        _, port = service
        status, content_type, raw = self.raw(port, {"query": "a/(b"}, RESULT_FRAME_TYPE)
        assert (status, content_type) == (400, JSON_TYPE)
        assert json.loads(raw)["error"]["code"] == "parse"
        status, content_type, raw = self.raw(
            port, {"mutations": []}, RESULT_FRAME_TYPE, path="/apply"
        )
        assert content_type == JSON_TYPE and json.loads(raw)["ok"]

    @pytest.mark.parametrize("transport", ["sync", "async"])
    def test_a_frame_asking_client_decodes_an_older_servers_json(
        self, service, spy, transport, monkeypatch
    ):
        """The response's Content-Type decides, not what the request asked for."""
        database, port = service
        # A server from before the frame: it does not know the media type.
        monkeypatch.setattr(server_module, "RESULT_FRAME_TYPE", "application/x-unknown")
        assert RESULT_FRAME_TYPE in client_module.REQUEST_HEADERS["Accept"]
        remote = call(transport, port, "/query", "a/b")
        assert spy == [JSON_TYPE]
        assert type(remote.pairs) is frozenset
        assert remote.pairs == database.query("a/b").pairs


# -- (iv) the front door answers; the transports agree -------------------------------


def exchange(port: int, request: bytes) -> bytes:
    """Send raw bytes, read until the server closes; a reset keeps what came."""
    received = b""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except ConnectionResetError:
            pass
    return received


def error_of(response: bytes) -> tuple[bytes, str]:
    head, _, body = response.partition(b"\r\n\r\n")
    return head.split(b"\r\n", 1)[0], json.loads(body)["error"]["code"]


class TestFrontDoorAnswersInsteadOfDropping:
    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
            b"GET /health HTTP/1.1\r\nX-Padding: " + b"p" * 70_000 + b"\r\n\r\n",
        ],
        ids=["negative-content-length", "long-request-line", "long-header-line"],
    )
    def test_malformed_head_is_a_400(self, service, remote, request_bytes):
        _, port = service
        status_line, code = error_of(exchange(port, request_bytes))
        assert status_line.startswith(b"HTTP/1.1 400") and code == "wire"
        assert remote.health()["ok"]

    @pytest.mark.parametrize(
        "body",
        [
            {"query": "a", "timeout_ms": "soon"},
            {"query": "a", "timeout_ms": True},
            {"query": "a", "timeout_ms": [5]},
            {"query": "a", "method": 5},
            {"query": "a", "method": None},
        ],
    )
    def test_mistyped_fields_are_validation_errors(self, remote, body):
        with pytest.raises(ValidationError, match="wrong type"):
            remote._request("POST", "/query", body)

    @pytest.mark.parametrize("method", [5, None, ["minjoin"]])
    def test_mistyped_method_on_the_prepared_route(self, remote, method):
        body = {"template": "a{1,$n}", "params": {"n": 1}, "method": method}
        with pytest.raises(ValidationError, match="wrong type"):
            remote._request("POST", "/prepared", body)

    def test_well_typed_optional_fields_still_pass(self, service, remote):
        database, _ = service
        body = {"query": "a/b", "timeout_ms": None, "method": "minjoin"}
        payload = remote._request("POST", "/query", body)
        assert payload["pairs"] == database.query("a/b").pairs
        for budget in (5000, 2500.5):
            timed = remote.query("a/b", timeout_ms=budget)
            assert timed.pairs == payload["pairs"]

    def test_a_handler_bug_is_a_500_internal(self, service, remote, monkeypatch):
        database, port = service

        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(database, "query", broken)
        request = (
            b"POST /query HTTP/1.1\r\nContent-Length: 13\r\nConnection: close\r\n"
            b'\r\n{"query":"a"}'
        )
        status_line, code = error_of(exchange(port, request))
        assert status_line.startswith(b"HTTP/1.1 500") and code == "internal"
        with pytest.raises(ReproError, match="RuntimeError: boom") as caught:
            remote.query("a")
        assert type(caught.value) is ReproError
        monkeypatch.undo()
        assert remote.query("a").pairs == database.query("a").pairs


@contextlib.contextmanager
def canned_server(response: bytes):
    """A server that answers its one connection with ``response`` and closes."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10)

    def serve():
        with listener:
            connection, _ = listener.accept()
            with connection:
                connection.settimeout(10)
                seen = b""
                while b"\r\n\r\n" not in seen and (chunk := connection.recv(65536)):
                    seen += chunk
                connection.sendall(response)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1]
    finally:
        thread.join(timeout=15)
        assert not thread.is_alive()


def head(content_type: str, length: int) -> bytes:
    return (
        f"HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\n"
        f"Content-Length: {length}\r\nConnection: close\r\n\r\n"
    ).encode()


class TestACutResponseIsTransientOnBothTransports:
    @pytest.mark.parametrize("content_type", [JSON_TYPE, RESULT_FRAME_TYPE])
    @pytest.mark.parametrize("transport", ["sync", "async"])
    def test_short_body(self, transport, content_type):
        whole = (
            pack_result(HEADER, NAMES, RANKS)
            if content_type == RESULT_FRAME_TYPE
            else json.dumps({**HEADER, "pairs": sorted(ANSWER)}).encode()
        )
        with canned_server(head(content_type, len(whole)) + whole) as port:
            assert call(transport, port, "/query", "q").pairs == ANSWER
        for keep in (0, 1, len(whole) // 2, len(whole) - 1):
            with canned_server(head(content_type, len(whole)) + whole[:keep]) as port:
                with pytest.raises(TransientWireError):
                    call(transport, port, "/query", "q")

    def test_parse_head_reads_the_head(self):
        assert parse_head(head(RESULT_FRAME_TYPE, 3)) == (3, RESULT_FRAME_TYPE, False)
        persistent = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"
        assert parse_head(persistent) == (0, "", True)
        assert parse_head(b"HTTP/1.0 200 OK\r\nContent-Length: 2") == (2, "", False)
        with pytest.raises(WireError, match="Content-Length"):
            parse_head(b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n")
        with pytest.raises(WireError, match="status line"):
            parse_head(b"garbage\r\n\r\n")

    @pytest.mark.parametrize("transport", ["sync", "async"])
    def test_a_head_without_a_length_is_a_wire_error(self, transport):
        with canned_server(b"HTTP/1.1 200 OK\r\n\r\n{}") as port:
            with pytest.raises(WireError) as caught:
                call(transport, port, "/query", "q")
        assert not isinstance(caught.value, TransientWireError)
