"""The result frame: an answer crosses HTTP as its two id columns.

``POST /query`` and ``POST /prepared`` answer a client whose ``Accept``
names :data:`~repro.serve.protocol.RESULT_FRAME_TYPE` with one binary
frame (JSON header naming the node ids new to the connection, the
answer's own id columns), and the client lays the same
:class:`~repro.graph.graph.NamedPairs` view over it, and over its
connection's name dictionary, that an in-process read gets.  Four
things are pinned here:

* the frame and the JSON body decode to the same set, under every
  relation order and on both kernel paths, read after read on one
  connection that names each node once;
* nothing but :class:`~repro.errors.WireError` escapes the decoder,
  whatever the bytes and whatever the connection was sent before, and
  a client drops a connection whose frame did not decode;
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
from repro.relation import Order, Relation, dedup_sort, unmarked_ids
from repro.serve import server as server_module
from repro.serve.protocol import (
    RESULT_FRAME_TYPE,
    NameDictionary,
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


class Connection:
    """Both ends of one connection's name dictionary, without the socket."""

    def __init__(self) -> None:
        self.sent = bytearray()  # the server's marks
        self.names = NameDictionary()  # the client's dictionary

    def frame(self, result: QueryResult) -> bytes:
        return _result_payload(result, framed=self.sent)

    def read(self, result: QueryResult) -> RemoteResult:
        raw = self.frame(result)
        payload = decode_payload(raw, RESULT_FRAME_TYPE, self.names)
        return decode_result(check_payload(payload))


def through_json(result: QueryResult) -> RemoteResult:
    raw = json.dumps(_result_payload(result), separators=(",", ":")).encode()
    return decode_result(check_payload(decode_payload(raw, JSON_TYPE)))


#: A node id of a twelve-name graph.
NODE = st.integers(0, 11)


@st.composite
def answers(draw):
    """A name list (a graph's id->name table), id pairs over it, an order."""
    names = draw(st.lists(st.text(max_size=6), unique=True, min_size=1, max_size=9))
    ids = st.integers(0, len(names) - 1)
    id_pairs = draw(st.lists(st.tuples(ids, ids), unique=True, max_size=24))
    return names, id_pairs, draw(st.sampled_from(ORDERS))


# -- (i) round trip --------------------------------------------------------------


def assert_same_answer(remote: RemoteResult, view: NamedPairs, names, id_pairs):
    expected = frozenset((names[a], names[b]) for a, b in id_pairs)
    pairs = remote.pairs
    assert isinstance(pairs, NamedPairs)
    assert pairs == view and view == pairs and pairs == expected
    assert len(pairs) == len(remote) == len(view) == len(expected)
    assert sorted(pairs) == sorted(view)
    assert hash(pairs) == hash(expected)
    for pair in expected:
        assert pair in pairs and list(pair) in remote
    for probe in [(a, b) for a in names for b in names] + [("", "nobody")]:
        assert (probe in pairs) == (probe in expected)


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(answers())
    def test_frame_equals_json_equals_the_local_view(self, answer):
        names, id_pairs, order = answer
        view = view_over(names, id_pairs, order)
        result = result_of(view)
        via_json = through_json(result)
        assert via_json.pairs == frozenset((names[a], names[b]) for a, b in id_pairs)
        for path in ("numpy", "python"):
            connection = Connection()
            with kernel_path(path):
                first = connection.read(result)
                again = connection.read(result)  # names nothing new
            for remote in (first, again):
                assert remote.pairs == via_json.pairs and via_json.pairs == remote.pairs
                assert_same_answer(remote, view, names, id_pairs)
                # every other field crosses unchanged on both bodies
                for other in (remote, via_json):
                    assert (other.query, other.method) == ("q", "minjoin")
                    assert (other.seconds, other.version) == (0.25, 7)
                    assert other.cached and not other.partial
                    assert other.shards_failed == 0
            assert first.pairs == again.pairs  # one dictionary: compared by id

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.text(max_size=4), unique=True, min_size=1, max_size=12),
        st.lists(st.lists(st.tuples(NODE, NODE)), max_size=5),
        st.sampled_from(["numpy", "python"]),
    )
    def test_a_connection_names_each_node_once(self, names, reads, path):
        connection = Connection()
        named: list[int] = []
        for id_pairs in reads:
            id_pairs = sorted({(a % len(names), b % len(names)) for a, b in id_pairs})
            view = view_over(names, id_pairs, Order.BY_SRC)
            with kernel_path(path):
                raw = connection.frame(result_of(view))
                header, columns = unpack_result(raw, connection.names)
            new = sorted({node for pair in id_pairs for node in pair} - set(named))
            assert header["ids"] == new
            assert header["names"] == [names[node] for node in new]
            assert list(columns) == id_pairs
            named += new
        assert len(named) == len(set(named))

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-3, 50), st.integers(-3, 50)), max_size=30),
        st.sets(st.integers(0, 40)),
    )
    def test_unmarked_ids_on_both_kernel_paths(self, id_pairs, marked):
        """Ids outside the marks, negative ones too, count as unmarked."""
        relation = Relation(
            array("q", [a for a, _ in id_pairs]),
            array("q", [b for _, b in id_pairs]),
            Order.NONE,
        )
        marks = bytearray(41)
        for node in marked:
            marks[node] = 1
        occurring = {node for pair in id_pairs for node in pair}
        # a map with holes, and one without: there the bounds alone decide
        for marks, named in ((marks, marked), (bytearray(b"\1" * 41), range(41))):
            expected = sorted(occurring - set(named))
            for path in ("numpy", "python"):
                with kernel_path(path):
                    assert list(unmarked_ids(relation, marks)) == expected

    def test_empty_answer(self):
        view = view_over(["a", "b"], [], Order.BY_SRC)
        remote = Connection().read(result_of(view))
        assert len(remote.pairs) == 0 and list(remote.pairs) == []
        assert remote.pairs == frozenset() and ("a", "b") not in remote
        raw = Connection().frame(result_of(view))
        header, columns = unpack_result(raw, NameDictionary())
        assert header["ids"] == header["names"] == [] and len(columns) == 0

    def test_only_the_names_that_occur_cross(self):
        names = [f"n{i}" for i in range(100)]
        connection = Connection()
        view = view_over(names, [(7, 90), (90, 7), (7, 7)], Order.BY_SRC)
        raw = connection.frame(result_of(view))
        header, columns = unpack_result(raw, connection.names)
        assert header["ids"] == [7, 90] and header["names"] == ["n7", "n90"]
        assert list(columns) == [(7, 7), (7, 90), (90, 7)]  # the graph's own ids
        assert "pairs" not in header and header["byteorder"] == sys.byteorder
        # ...and only once per connection: the next answer names what is new
        view = view_over(names, [(3, 7), (90, 3)], Order.BY_SRC)
        raw = connection.frame(result_of(view))
        header, _ = unpack_result(raw, connection.names)
        assert header["ids"] == [3] and header["names"] == ["n3"]


# -- (ii) hostile frames -----------------------------------------------------------

HEADER = {"ok": True, "query": "q", "method": "m", "seconds": 0.0, "version": 3}
NAMES = ["a", "b", "c", "d"]
RANKS = Relation(array("q", [0, 0, 2]), array("q", [1, 3, 3]), Order.BY_SRC)
ANSWER = {("a", "b"), ("a", "d"), ("c", "d")}


def decode_frame(raw: bytes, names: NameDictionary | None = None) -> RemoteResult:
    """The client's whole decode of one response body said to be a frame."""
    return decode_result(check_payload(decode_payload(raw, RESULT_FRAME_TYPE, names)))


def hand_frame(relation: Relation = RANKS, **header) -> bytes:
    """A frame packed by hand, so a test can say anything in its header."""
    fields = {
        **HEADER,
        "ids": list(range(len(NAMES))),
        "names": NAMES,
        "byteorder": sys.byteorder,
        **header,
    }
    fields = {key: value for key, value in fields.items() if value is not ...}
    return pack_frame(fields, encode_relation(relation))


def swapped(relation: Relation) -> Relation:
    src, tgt = array("q", relation.src), array("q", relation.tgt)
    src.byteswap()
    tgt.byteswap()
    return Relation(src, tgt, relation.order)


#: A result frame's header: the JSON payload's keys minus ``pairs``, plus three.
FRAME_KEYS = [
    "ok",
    "query",
    "method",
    "seconds",
    "cached",
    "version",
    "partial",
    "shards_failed",
    "ids",
    "names",
    "byteorder",
]

JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def a_dictionary_that_knows(ids: list[int], names: list[str]) -> NameDictionary:
    dictionary = NameDictionary()
    dictionary.learn(ids, names)
    return dictionary


class TestHostileFrames:
    def test_the_valid_frame_decodes(self):
        assert decode_frame(pack_result(HEADER, NAMES, RANKS)).pairs == ANSWER
        assert decode_frame(hand_frame()).pairs == ANSWER
        # a later frame on the connection names nothing and reads the same
        known = a_dictionary_that_knows([0, 1, 2, 3], NAMES)
        assert decode_frame(hand_frame(ids=[], names=[]), known).pairs == ANSWER
        # a name sent again, unchanged, is no conflict
        assert decode_frame(hand_frame(ids=[2], names=["c"]), known).pairs == ANSWER

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
        """A ``WireError`` at decode time, never a ``KeyError`` at read time."""
        rogue = Relation(array("q", src), array("q", tgt), Order.NONE)
        with kernel_path(path), pytest.raises(WireError, match="outside"):
            decode_frame(hand_frame(rogue))

    @pytest.mark.parametrize("path", ["numpy", "python"])
    def test_an_id_the_connection_lacks(self, path):
        """Inside the range of known ids, but never named on this connection."""
        holes = a_dictionary_that_knows([0, 1, 3], ["a", "b", "d"])
        with kernel_path(path), pytest.raises(WireError, match="outside"):
            decode_frame(hand_frame(ids=[], names=[]), holes)
        # the frame that names it is read
        holes = a_dictionary_that_knows([0, 1, 3], ["a", "b", "d"])
        with kernel_path(path):
            assert decode_frame(hand_frame(ids=[2], names=["c"]), holes).pairs == ANSWER

    def test_ids_with_no_names_at_all(self):
        with pytest.raises(WireError, match="outside"):
            decode_frame(hand_frame(ids=[], names=[]))

    @pytest.mark.parametrize(
        "names", [[1, 2, 3, 4], "abcd", None, ..., ["a", "b", None, "d"], {"a": 0}, 4]
    )
    def test_names_must_be_a_list_of_strings(self, names):
        with pytest.raises(WireError, match="names"):
            decode_frame(hand_frame(names=names))

    @pytest.mark.parametrize(
        "ids",
        [
            None,
            ...,
            "0123",
            [0, 1, 2],
            [0, 1, 2, 3, 4],
            [0, 1, 2.0, 3],
            [0, True, 2, 3],
            [0, 1, 2, -3],
            [0, 1, 2, 2**26],
            [0, 1, 2, 2**70],
        ],
    )
    def test_ids_must_be_node_ids_one_per_name(self, ids):
        with pytest.raises(WireError, match="id"):
            decode_frame(hand_frame(ids=ids))

    def test_a_second_name_for_a_known_id(self):
        known = a_dictionary_that_knows([0, 1, 2, 3], NAMES)
        with pytest.raises(WireError, match="second name"):
            decode_frame(hand_frame(ids=[2], names=["z"]), known)
        with pytest.raises(WireError, match="second name"):  # within one frame
            decode_frame(hand_frame(ids=[0, 1, 2, 3, 2], names=[*NAMES, "z"]))

    def test_a_second_id_for_a_known_name(self):
        known = a_dictionary_that_knows([0, 1, 2, 3], NAMES)
        with pytest.raises(WireError, match="already names"):
            decode_frame(hand_frame(ids=[4], names=["a"]), known)

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
        # read on a fresh connection, and on one that already knows the names
        self._decodes_or_wire_error(bytes(frame), NameDictionary())
        known = a_dictionary_that_knows([0, 1, 2, 3], NAMES)
        self._decodes_or_wire_error(bytes(frame), known)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.sampled_from(FRAME_KEYS), JSON_JUNK, min_size=1))
    def test_junk_header_values_only_raise_wire_errors(self, junk):
        self._decodes_or_wire_error(hand_frame(**junk), NameDictionary())

    @staticmethod
    def _decodes_or_wire_error(raw: bytes, names: NameDictionary) -> None:
        try:
            payload = decode_payload(raw, RESULT_FRAME_TYPE, names)
            remote = decode_result(payload)
        except WireError:
            return
        # It decoded: then it reads, fully, without another exception.
        assert len(list(remote.pairs)) == len(remote.pairs)
        assert all(type(name) is str for pair in remote.pairs for name in pair)


def keep_alive_head(content_type: str, length: int) -> bytes:
    return (
        f"HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode()


@pytest.mark.parametrize("transport", ["sync", "async"])
def test_a_connection_whose_frame_failed_is_not_pooled(transport):
    """The socket and its dictionary go together: a frame that did not
    decode may have left the dictionary half learned."""
    good, bad = pack_result(HEADER, NAMES, RANKS), hand_frame(ids=[], names=[])
    for frame, pooled in ((good, 1), (bad, 0)):
        response = keep_alive_head(RESULT_FRAME_TYPE, len(frame)) + frame
        with canned_server(response) as port:
            remote = (Client if transport == "sync" else AsyncClient)(port=port)
            outcome = contextlib.nullcontext() if pooled else pytest.raises(WireError)

            async def read():
                with outcome:
                    await remote.query("q")
                held = len(remote._idle)
                await remote.close()
                return held

            if transport == "sync":
                with outcome:
                    remote.query("q")
                held = len(remote._idle)
                remote.close()
            else:
                held = asyncio.run(read())
            assert held == pooled


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

    def recording(raw, content_type="", names=None):
        seen.append(content_type)
        return original(raw, content_type, names)

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
        header, columns = unpack_result(raw, NameDictionary())
        assert list(header) == FRAME_KEYS
        local = database.query("a/b").pairs
        occurring = {name for pair in local for name in pair}
        node_id = database.graph.node_id
        assert header["names"] == sorted(occurring, key=node_id)
        assert header["ids"] == [node_id(name) for name in header["names"]]
        named = dict(zip(header["ids"], header["names"]))
        assert {(named[a], named[b]) for a, b in columns} == local

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
