"""Tests for the serving stack: protocol, workers, coordinator, HTTP.

The expensive fixtures (a worker fleet, an HTTP front door) are
module-scoped; tests that mutate or kill things restore the fleet
before handing it back.  Every distributed answer is pinned to an
in-process ``shards=1`` oracle — the serving stack's one correctness
contract is "same pairs as the embedded engine, or a typed error".
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import http.client
import json
import logging
import random
import socket
import struct
import threading
import time
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GraphDatabase, QueryResult, ServiceConfig
from repro.client import AsyncClient, Client, RemoteResult, check_payload
from repro.config import default_shard_count
from repro.errors import (
    ParseError,
    QueryTimeoutError,
    ReproError,
    ShardUnavailableError,
    TransientWireError,
    ValidationError,
    WireError,
)
from repro.faults import FaultPlan, FaultRule, armed
from repro.graph.graph import Graph
from repro.relation import Order, Relation
from repro.serve import CoordinatorDatabase, launch_workers
from repro.serve import protocol
from repro.serve import server as server_module
from repro.serve.coordinator import SliceCache, WorkerStub
from repro.serve.server import QueryServer, serve_in_thread
from repro.serve.worker import WorkerHandle, _await_ready
from repro.stats import EngineStats
from repro.write.mutation import Mutation, MutationBatch

QUERIES = ["a/b", "a|b", "(a|b)/c", "a", "b/c|a", "a{1,2}/b"]


def _edges(seed: int, nodes: int = 40, count: int = 160):
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(nodes)]
    return [
        (rng.choice(names), rng.choice("abc"), rng.choice(names))
        for _ in range(count)
    ]


@pytest.fixture(scope="module")
def oracle():
    db = GraphDatabase.from_edges(_edges(5), config=ServiceConfig(k=2, shards=1))
    yield db
    db.close()


@pytest.fixture(scope="module")
def coordinator():
    db = CoordinatorDatabase.from_edges(
        _edges(5), config=ServiceConfig(k=2, shards=3)
    )
    yield db
    db.close()


# -- relation wire codec -------------------------------------------------------


@st.composite
def relations(draw):
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),
                st.integers(min_value=0, max_value=2**32 - 1),
            ),
            max_size=32,
        )
    )
    order = draw(st.sampled_from([Order.NONE, Order.BY_SRC, Order.BY_TGT]))
    src = array("q", (pair[0] for pair in pairs))
    tgt = array("q", (pair[1] for pair in pairs))
    return Relation(src, tgt, order)


class TestRelationCodec:
    @settings(max_examples=60, deadline=None)
    @given(relations())
    def test_round_trip(self, relation):
        decoded = protocol.decode_relation(protocol.encode_relation(relation))
        assert decoded.src == relation.src
        assert decoded.tgt == relation.tgt
        assert decoded.order == relation.order

    def test_empty_relation(self):
        decoded = protocol.decode_relation(
            protocol.encode_relation(Relation(array("q"), array("q")))
        )
        assert len(decoded.src) == 0

    @settings(max_examples=30, deadline=None)
    @given(relations(), st.data())
    def test_truncation_is_typed(self, relation, data):
        encoded = protocol.encode_relation(relation)
        cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
        with pytest.raises(WireError):
            protocol.decode_relation(encoded[:cut])

    def test_bad_magic_is_typed(self):
        encoded = bytearray(
            protocol.encode_relation(Relation(array("q", [1]), array("q", [2])))
        )
        encoded[0] ^= 0x80
        with pytest.raises(WireError):
            protocol.decode_relation(bytes(encoded))

    def test_unknown_order_tag_is_typed(self):
        encoded = bytearray(
            protocol.encode_relation(Relation(array("q", [1]), array("q", [2])))
        )
        encoded[4] = 9
        with pytest.raises(WireError):
            protocol.decode_relation(bytes(encoded))

    def test_length_mismatch_is_typed(self):
        encoded = protocol.encode_relation(
            Relation(array("q", [1, 2]), array("q", [3, 4]), Order.BY_SRC)
        )
        with pytest.raises(WireError):
            protocol.decode_relation(encoded + b"\x00" * 8)


class TestFrames:
    def test_eof_mid_frame_is_transient(self):
        chunks = [b"\x00\x00"]  # half a length prefix, then EOF

        def read(count):
            return chunks.pop(0) if chunks else b""

        with pytest.raises(TransientWireError):
            protocol.recv_exact(read, 8)

    def test_implausible_lengths_are_permanent(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">II", 2**30, 0) + b"x" * 16)
            with pytest.raises(WireError):
                protocol.recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_garbage_header_is_permanent(self):
        left, right = socket.socketpair()
        try:
            header = b"\xff\xfenot json"
            left.sendall(struct.pack(">II", len(header), 0) + header)
            with pytest.raises(WireError):
                protocol.recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_frame_round_trip(self):
        left, right = socket.socketpair()
        try:
            protocol.send_frame(left, {"op": "ping", "deadline_ms": 5.0}, b"abc")
            header, body = protocol.recv_frame(right)
            assert header == {"op": "ping", "deadline_ms": 5.0}
            assert body == b"abc"
        finally:
            left.close()
            right.close()


class TestErrorCodes:
    @pytest.mark.parametrize("code,error_type", protocol.ERROR_CODES)
    def test_round_trip_preserves_type(self, code, error_type):
        error = error_type("boom")
        payload = protocol.encode_error(error)
        assert payload["code"] == code
        rebuilt = protocol.remote_error(payload)
        assert type(rebuilt) is error_type

    def test_shard_extra_survives(self):
        payload = protocol.encode_error(ShardUnavailableError("gone", shard=3))
        rebuilt = protocol.remote_error(payload)
        assert isinstance(rebuilt, ShardUnavailableError)
        assert rebuilt.shard == 3

    def test_position_extra_survives(self):
        payload = protocol.encode_error(ParseError("bad", position=7))
        rebuilt = protocol.remote_error(payload)
        assert isinstance(rebuilt, ParseError)
        assert rebuilt.position == 7

    def test_unknown_code_degrades_to_base(self):
        rebuilt = protocol.remote_error({"code": "from_the_future", "message": "x"})
        assert type(rebuilt) is ReproError

    def test_most_specific_code_wins(self):
        assert protocol.error_code(TransientWireError("x")) == "transient_wire"
        assert protocol.error_code(WireError("x")) == "wire"


#: Error payloads no server sends: each must decode as a WireError.
GARBLED_ERRORS = [
    ["x"],
    "boom",
    None,
    7,
    {"code": ["x"]},
    {"code": 3, "message": "x"},
    {"code": "parse", "message": ["x"]},
    {"message": {"nested": True}},
]


class TestGarbledErrorPayloads:
    @pytest.mark.parametrize("error", GARBLED_ERRORS)
    def test_client_path(self, error):
        with pytest.raises(WireError):
            check_payload({"ok": False, "error": error})

    @pytest.mark.parametrize("error", GARBLED_ERRORS)
    def test_rpc_path(self, error):
        listener = socket.create_server(("127.0.0.1", 0))

        def reply_once():
            connection, _ = listener.accept()
            with connection:
                protocol.recv_frame(connection)
                protocol.send_frame(connection, {"ok": False, "error": error})

        replier = threading.Thread(target=reply_once, daemon=True)
        replier.start()
        port = listener.getsockname()[1]
        stub = WorkerStub(WorkerHandle(shard=0, port=port, process=None), 5.0)
        try:
            with pytest.raises(WireError):
                stub._call("ping")
        finally:
            stub.rebind(stub.handle)
            replier.join(5)
            listener.close()

    @pytest.mark.parametrize("error", GARBLED_ERRORS)
    def test_worker_ready_report(self, error):
        class Receiver:
            def poll(self, timeout):
                return True

            def recv(self):
                return "error", error

            def close(self):
                pass

        with pytest.raises(WireError):
            _await_ready(0, None, Receiver())


# -- config and stats (API redesign satellites) --------------------------------


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ServiceConfig(k=0)
        with pytest.raises(ValidationError):
            ServiceConfig(shards=0)
        with pytest.raises(ValidationError):
            ServiceConfig(max_inflight=0)

    def test_with_overrides(self):
        config = ServiceConfig(k=3).with_overrides(shards=4)
        assert (config.k, config.shards) == (3, 4)

    def test_resolved_shards_defaults_from_env(self):
        assert ServiceConfig().resolved_shards() == default_shard_count()
        assert ServiceConfig(shards=5).resolved_shards() == 5

    def test_keyword_knobs_are_gone_not_ignored(self):
        edges = _edges(1, 10, 20)
        graph = Graph.from_edges(edges)
        with pytest.raises(TypeError, match="shards"):
            GraphDatabase(graph, shards=2)
        with pytest.raises(TypeError, match="backend"):
            GraphDatabase.from_edges(edges, backend="disk")
        with pytest.raises(TypeError, match="query_cache_size"):
            CoordinatorDatabase(graph, query_cache_size=0)
        # Scatter-gather has no knobs: pruning is always on.
        with pytest.raises(TypeError, match="replan_divergence"):
            ServiceConfig(replan_divergence=4.0)
        with pytest.raises(TypeError, match="scatter_pruning"):
            ServiceConfig(scatter_pruning=False)

    @pytest.mark.parametrize(
        "knob",
        [
            "shard_seed",
            "histogram_buckets",
            "group_commit_ms",
            "group_commit_max",
            "delta_patching",
            "delta_max_pairs",
        ],
    )
    def test_one_value_knobs_are_constants(self, knob):
        with pytest.raises(TypeError, match=knob):
            ServiceConfig(**{knob: 1})

    def test_k_overrides_config(self):
        db = GraphDatabase.from_edges(
            _edges(1, 10, 20), k=1, config=ServiceConfig(k=3, shards=1)
        )
        assert db.k == 1
        db.close()


class TestEngineStats:
    def test_grouped_and_flat_agree(self, oracle):
        oracle.query("a/b")
        oracle.query("a/b")
        stats = oracle.stats()
        assert isinstance(stats, EngineStats)
        flat = stats.as_dict()
        assert flat["hits"] == stats.cache.hits
        assert flat["prepared_hits"] == stats.prepared.hits
        assert flat["shards_failed"] == stats.faults.shards_failed

    def test_flat_keys_are_the_legacy_surface(self, oracle):
        expected = {
            "hits", "misses", "entries", "capacity", "pairs", "max_pairs",
            "scan_memo_hits", "scan_memo_misses", "shards_scanned",
            "shards_pruned", "disjuncts_pruned",
            "scan_cache_hits", "scan_cache_misses", "scan_cache_pairs",
            "prepared_hits", "prepared_misses", "prepared_invalidations",
            "plans_computed",
            "shards_failed",
            "write_groups", "write_coalesced", "write_patched",
            "write_rebuilt", "log_records", "replayed", "recounted_sources",
        }
        assert set(oracle.stats().as_dict()) == expected


# -- worker protocol (one live worker, spoken to by hand) ----------------------


class TestWorkerProtocol:
    @pytest.fixture(scope="class")
    def worker(self):
        from repro.graph.graph import Graph

        graph = Graph.from_edges(_edges(9, 20, 60))
        handles = launch_workers(graph, k=2, shards=1)
        yield handles[0]
        handles[0].stop()

    def _call(self, handle, header, body=b""):
        with socket.create_connection(("127.0.0.1", handle.port), 5) as sock:
            protocol.send_frame(sock, header, body)
            return protocol.recv_frame(sock)

    def test_ping(self, worker):
        reply, _ = self._call(worker, {"op": "ping"})
        assert reply == {"ok": True, "shard": 0}

    def test_unknown_op_is_typed_reply(self, worker):
        reply, _ = self._call(worker, {"op": "warp"})
        assert not reply["ok"]
        assert reply["error"]["code"] == "validation"

    def test_exhausted_deadline_refused(self, worker):
        reply, _ = self._call(worker, {"op": "ping", "deadline_ms": -1.0})
        assert not reply["ok"]
        assert reply["error"]["code"] == "query_timeout"

    def test_garbage_drops_connection_but_worker_survives(self, worker):
        with socket.create_connection(("127.0.0.1", worker.port), 5) as sock:
            sock.sendall(struct.pack(">II", 2**31, 2**31))
            # The worker drops us without a reply.
            assert sock.recv(1) == b""
        reply, _ = self._call(worker, {"op": "ping"})
        assert reply["ok"]


# -- coordinator vs oracle -----------------------------------------------------


class TestCoordinator:
    @pytest.mark.parametrize("query", QUERIES)
    def test_query_parity(self, coordinator, oracle, query):
        assert coordinator.query(query).pairs == oracle.query(query).pairs

    @pytest.mark.parametrize("method", ["naive", "semi-naive", "minjoin"])
    def test_strategy_parity(self, coordinator, oracle, method):
        want = oracle.query("(a|b)/c", method=method).pairs
        assert coordinator.query("(a|b)/c", method=method).pairs == want

    def test_query_from_parity(self, coordinator, oracle):
        node = coordinator.graph.node_names()[0]
        want = oracle.query_from(node, "a/b")
        assert coordinator.query_from(node, "a/b") == want

    def test_mutation_parity(self, coordinator, oracle):
        edge = ("n0", "a", "n39")
        assert coordinator.apply(Mutation.add(*edge)).changed
        oracle.apply(Mutation.add(*edge))
        try:
            for query in QUERIES:
                assert (
                    coordinator.query(query).pairs == oracle.query(query).pairs
                )
        finally:
            coordinator.apply(Mutation.remove(*edge))
            oracle.apply(Mutation.remove(*edge))
        assert coordinator.query("a/b").pairs == oracle.query("a/b").pairs

    def test_duplicate_add_is_noop_everywhere(self, coordinator):
        first = next(iter(coordinator.graph.edges()))
        assert not coordinator.apply(Mutation.add(*first)).changed

    def test_deadline_propagates(self, coordinator):
        with pytest.raises(QueryTimeoutError):
            coordinator.query("a/b/c", timeout_ms=1e-4, use_cache=False)

    def test_in_process_write_hooks_refuse_under_the_base_signature(
        self, coordinator
    ):
        index = coordinator._index
        with pytest.raises(ValidationError, match="apply_commit_group"):
            index.patch_shards({}, {0})
        with pytest.raises(ValidationError, match="apply_commit_group"):
            index.rebuild_shards({0}, endpoints={0})

    def test_requires_memory_backend(self, tmp_path):
        with pytest.raises(ValidationError, match="memory-backed"):
            CoordinatorDatabase.from_edges(
                _edges(1, 10, 20),
                config=ServiceConfig(
                    k=1, shards=2, backend="disk", index_path=str(tmp_path)
                ),
            )


class TestCoordinatorChaos:
    def test_kill_strict_degraded_restore(self, coordinator, oracle):
        full = oracle.query("a/b").pairs
        coordinator._index.handles[1].kill()
        coordinator._index.handles[1].process.join(5)
        coordinator.cache_clear()

        with pytest.raises(ShardUnavailableError):
            coordinator.query("a/b", use_cache=False)

        result = coordinator.query("a/b", degraded=True, use_cache=False)
        assert result.pairs <= full
        assert result.report.partial
        assert result.report.shards_failed >= 1

        assert coordinator.ensure_workers() == [1]
        coordinator.cache_clear()
        assert coordinator.query("a/b", use_cache=False).pairs == full

    def test_rpc_transient_is_retried_to_exact(self, coordinator, oracle):
        coordinator.cache_clear()  # a kept slice makes no RPC to fault
        plan = FaultPlan(
            [FaultRule("rpc.send", "transient", times=1, shard=0)], seed=3
        )
        with armed(plan):
            result = coordinator.query("a/b", use_cache=False)
        assert result.pairs == oracle.query("a/b").pairs
        assert plan.fired >= 1

    def test_rpc_corrupt_is_typed_strict(self, coordinator):
        coordinator.cache_clear()
        plan = FaultPlan([FaultRule("rpc.recv", "corrupt", shard=0)], seed=3)
        with armed(plan):
            with pytest.raises(WireError):
                coordinator.query("a/b", use_cache=False)

    def test_rpc_corrupt_drops_slice_degraded(self, coordinator, oracle):
        coordinator.cache_clear()
        plan = FaultPlan([FaultRule("rpc.recv", "corrupt", shard=0)], seed=3)
        with armed(plan):
            result = coordinator.query("a/b", degraded=True, use_cache=False)
        assert result.pairs <= oracle.query("a/b").pairs
        assert result.report.partial


# -- the coordinator's slice cache -------------------------------------------------


class TestSliceCache:
    """Before the HTTP fixture starts supervising: a killed worker stays dead."""

    def test_a_repeated_query_makes_no_worker_call(
        self, coordinator, oracle, monkeypatch
    ):
        coordinator.cache_clear()
        first = coordinator.query("(a|b)/c", use_cache=False)
        calls: list[str] = []
        original = WorkerStub._call

        def counting(stub, op, *args, **params):
            calls.append(op)
            return original(stub, op, *args, **params)

        monkeypatch.setattr(WorkerStub, "_call", counting)
        hits = coordinator.stats().scatter.scan_cache_hits
        again = coordinator.query("(a|b)/c", use_cache=False)
        assert calls == [] and again.pairs == first.pairs
        assert again.pairs == oracle.query("(a|b)/c").pairs
        scatter = coordinator.stats().scatter
        assert scatter.scan_cache_hits > hits and scatter.scan_cache_pairs > 0

    def test_an_anchored_read_cuts_the_kept_slice(
        self, coordinator, oracle, monkeypatch
    ):
        coordinator.cache_clear()
        coordinator.query("a{1,2}/b", use_cache=False)  # keeps every slice
        calls: list[str] = []
        original = WorkerStub._call

        def counting(stub, op, *args, **params):
            calls.append(op)
            return original(stub, op, *args, **params)

        monkeypatch.setattr(WorkerStub, "_call", counting)
        for name in coordinator.graph.node_names()[:12]:
            query = f"from({name}): a{{1,2}}/b"
            result = coordinator.query(query, use_cache=False)
            assert result.pairs == oracle.query(query).pairs
            assert coordinator.query_pair(name, "n0", "a{1,2}/b") == (
                (name, "n0") in oracle.query("a{1,2}/b").pairs
            )
        assert calls == []

    def test_kept_slices_outlive_their_worker(self, coordinator, oracle):
        coordinator.cache_clear()
        full = oracle.query("a/b").pairs
        assert coordinator.query("a/b", use_cache=False).pairs == full
        coordinator._index.handles[0].kill()
        coordinator._index.handles[0].process.join(5)
        try:
            # Every slice of a/b is kept: no worker is asked.
            assert coordinator.query("a/b", use_cache=False).pairs == full
            # c was never fetched: strict fails typed, degraded is labelled.
            with pytest.raises(ShardUnavailableError):
                coordinator.query("c", use_cache=False)
            partial = coordinator.query("c", degraded=True, use_cache=False)
            assert partial.report.partial and partial.pairs <= oracle.query("c").pairs
        finally:
            assert coordinator.ensure_workers() == [0]
        # A restarted worker replays to the same columns: the slices stay.
        assert coordinator.stats().scatter.scan_cache_pairs > 0
        assert coordinator.query("c", use_cache=False).pairs == oracle.query("c").pairs

    def test_the_pair_budget_evicts_oldest_first(self, coordinator):
        def relation(size: int) -> Relation:
            column = array("q", range(size))
            return Relation(column, array("q", column), Order.BY_SRC)

        loads: list[str] = []
        cache = SliceCache(max_pairs=5)

        def fetch(key: str, size: int) -> Relation:
            return cache.fetch(key, lambda: loads.append(key) or relation(size))

        fetch("old", 3)
        fetch("new", 2)
        assert cache.pairs == 5 and cache.misses == 2
        fetch("newest", 1)  # 6 > 5: "old" goes
        assert cache.pairs == 3
        assert fetch("new", 2).frozen and loads == ["old", "new", "newest"]
        fetch("old", 3)
        assert loads[-1] == "old" and cache.pairs <= 5
        fetch("huge", 6)  # over the whole budget: served, never kept
        assert cache.pairs <= 5 and cache.hits == 1
        budget = coordinator.config.query_cache_max_pairs
        assert coordinator._index.slices.max_pairs == budget


# -- the HTTP front door -------------------------------------------------------


@pytest.fixture(scope="module")
def served(coordinator):
    handle = serve_in_thread(coordinator, supervise_interval=0.1)
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def client(served):
    client = Client(port=served.port)
    yield client
    client.close()


class TestHttpService:
    def test_health(self, client, coordinator):
        health = client.health()
        assert health["ok"] and health["shards"] == 3

    @pytest.mark.parametrize("query", QUERIES[:3])
    def test_query_parity(self, client, oracle, query):
        result = client.query(query)
        assert isinstance(result, RemoteResult)
        assert result.pairs == oracle.query(query).pairs

    def test_anchored_query_crosses_the_wire(self, client, oracle):
        query = "from(n1): (a|b)/c"
        assert client.query(query).pairs == oracle.query(query).pairs
        with pytest.raises(ParseError, match="a node name"):
            client.query("from($v): a")

    def test_result_carries_version(self, client, coordinator):
        assert client.query("a/b").version == coordinator.graph.version

    def test_prepared(self, client, oracle):
        result = client.prepared("a{1,$n}/b", params={"n": 2})
        assert result.pairs == oracle.query("a{1,2}/b").pairs
        again = client.prepared("a{1,$n}/b", params={"n": 2})
        assert again.pairs == result.pairs

    def test_mutation_round_trip(self, client, oracle, coordinator):
        edge = ("n1", "b", "n38")
        assert client.apply(Mutation.add(*edge)).changed
        assert not client.apply(Mutation.add(*edge)).changed
        oracle.apply(Mutation.add(*edge))
        try:
            assert client.query("a/b").pairs == oracle.query("a/b").pairs
        finally:
            assert client.apply(Mutation.remove(*edge)).changed
            oracle.apply(Mutation.remove(*edge))

    def test_parse_error_crosses_wire(self, client):
        with pytest.raises(ParseError):
            client.query("a/(b")

    def test_timeout_crosses_wire(self, client):
        with pytest.raises(QueryTimeoutError):
            client.query("a/b/c/a", timeout_ms=1e-4, use_cache=False)

    def test_non_finite_timeout_is_a_validation_error(self, served):
        # json.loads accepts the NaN literal, and a NaN deadline would
        # never expire: the request is refused instead of unbounded.
        body = b'{"query": "a/b", "timeout_ms": NaN}'
        connection = http.client.HTTPConnection("127.0.0.1", served.port, timeout=30)
        try:
            connection.request(
                "POST", "/query", body, {"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            status, payload = response.status, json.loads(response.read())
        finally:
            connection.close()
        assert status == 400
        assert payload["error"]["code"] == "validation"

    def test_stats_endpoint_groups(self, client):
        stats = client.stats()
        assert set(stats) == {"cache", "scatter", "prepared", "faults", "write"}
        assert "shards_failed" in stats["faults"]

    def test_unknown_route_is_typed(self, client):
        with pytest.raises(ValidationError):
            client._request("GET", "/nope")

    def test_refused_connection_is_transient(self):
        with pytest.raises(TransientWireError):
            Client(port=1, timeout=2).health()

    def test_async_client(self, served, oracle):
        async def exercise():
            remote = AsyncClient(port=served.port)
            result = await remote.query("a|b")
            health = await remote.health()
            stats = await remote.stats()
            await remote.close()
            return result, health, stats

        result, health, stats = asyncio.run(exercise())
        assert result.pairs == oracle.query("a|b").pairs
        assert health["ok"]
        assert "cache" in stats

    def test_chaos_over_http(self, client, coordinator, oracle):
        """Kill a worker mid-service: typed errors or exact subsets only."""
        full = oracle.query("a/b").pairs
        coordinator._index.handles[2].kill()
        coordinator._index.handles[2].process.join(5)
        coordinator.cache_clear()

        result = client.query("a/b", degraded=True, use_cache=False)
        assert result.pairs <= full
        if result.partial:
            assert result.shards_failed >= 1

        deadline = time.time() + 20
        while time.time() < deadline:
            probe = client.query("a/b", degraded=True, use_cache=False)
            if not probe.partial:
                break
            time.sleep(0.1)
        assert client.query("a/b", use_cache=False).pairs == full


class TestBackpressure:
    def test_queue_full_is_503_transient(self):
        db = GraphDatabase.from_edges(
            _edges(2, 10, 20),
            config=ServiceConfig(k=1, shards=1, max_inflight=1, queue_limit=0),
        )
        release = threading.Event()
        entered = threading.Event()
        original = db.query

        def slow_query(*args, **kwargs):
            entered.set()
            release.wait(timeout=30)
            return original(*args, **kwargs)

        db.query = slow_query
        handle = serve_in_thread(db)
        client = Client(port=handle.port)
        try:
            blocker = threading.Thread(target=lambda: client.query("a"), daemon=True)
            blocker.start()
            assert entered.wait(timeout=10)
            with pytest.raises(TransientWireError, match="capacity"):
                client.query("a")
        finally:
            release.set()
            blocker.join(timeout=10)
            client.close()
            handle.stop()
            db.query = original
            db.close()


# -- keep-alive: one connection, many requests ---------------------------------


@pytest.fixture
def counted(monkeypatch):
    """An in-process front door that counts the connections it accepts."""
    accepted: list[object] = []
    original = QueryServer._handle_connection

    async def counting(self, reader, writer):
        accepted.append(writer.get_extra_info("peername"))
        await original(self, reader, writer)

    monkeypatch.setattr(QueryServer, "_handle_connection", counting)
    db = GraphDatabase.from_edges(
        _edges(3, 20, 80), config=ServiceConfig(k=2, shards=1)
    )
    handle = serve_in_thread(db)
    yield db, handle, accepted
    handle.stop()
    db.close()


def _raw(port: int, request: bytes) -> bytes:
    """Send raw bytes and read until the server closes the connection."""
    received = b""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        while chunk := sock.recv(65536):
            received += chunk
    return received


class TestKeepAlive:
    @pytest.mark.parametrize("transport", ["sync", "async"])
    def test_queries_through_one_client_make_one_accept(self, counted, transport):
        db, handle, accepted = counted
        texts = ["a/b", "a|b", "b/c", "a"] * 3
        if transport == "sync":
            client = Client(port=handle.port)
            answers = [client.query(text).pairs for text in texts]
            client.close()
        else:
            remote = AsyncClient(port=handle.port)

            async def run():
                answers = [(await remote.query(text)).pairs for text in texts]
                await remote.close()
                return answers

            answers = asyncio.run(run())
        assert answers == [db.query(text).pairs for text in texts]
        assert len(accepted) == 1
        deadline = time.monotonic() + 5  # close() ends the server's handler
        while handle.server._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not handle.server._connections

    def test_two_threads_share_one_client(self, counted):
        db, handle, accepted = counted
        client = Client(port=handle.port)
        expected = {text: db.query(text).pairs for text in QUERIES}
        wrong: list[str] = []

        def hammer(texts):
            for text in texts * 5:
                if client.query(text, use_cache=False).pairs != expected[text]:
                    wrong.append(text)

        threads = [
            threading.Thread(target=hammer, args=(QUERIES[start::2],))
            for start in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        client.close()
        assert not wrong and 1 <= len(accepted) <= 2

    def test_a_connection_the_server_closed_is_replaced(self, counted, monkeypatch):
        db, handle, accepted = counted
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT", 0.2)
        client = Client(port=handle.port)
        assert client.health()["ok"]
        time.sleep(0.6)  # the server closes the idle connection
        assert client.query("a/b").pairs == db.query("a/b").pairs
        client.close()
        assert len(accepted) == 2

    def test_an_apply_whose_connection_dies_is_transient_and_applied_once(
        self, counted, monkeypatch
    ):
        db, handle, _ = counted
        original = server_module._write_response

        async def dropping(writer, status, payload, keep_alive):
            if isinstance(payload, dict) and "result" in payload:
                writer.transport.abort()  # the answer to /apply never leaves
                raise ConnectionResetError("dropped")
            await original(writer, status, payload, keep_alive)

        monkeypatch.setattr(server_module, "_write_response", dropping)
        client = Client(port=handle.port)
        version = client.health()["version"]
        with pytest.raises(TransientWireError):
            client.apply(Mutation.add("n1", "c", "n2"))
        monkeypatch.undo()
        assert client.health()["version"] == db.graph.version == version + 1
        # It is there, once.
        assert not client.apply(Mutation.add("n1", "c", "n2")).changed
        client.close()

    def test_stop_with_an_idle_pooled_connection(self, caplog):
        db = GraphDatabase.from_edges(
            _edges(4, 10, 30), config=ServiceConfig(k=1, shards=1)
        )
        try:
            handle = serve_in_thread(db)
            client = Client(port=handle.port, timeout=5)
            assert client.health()["ok"]
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                started = time.perf_counter()
                handle.stop()
                assert time.perf_counter() - started < 2.0
                del handle  # the loop, and any handler task left pending
                gc.collect()
            assert not [record for record in caplog.records if record.name == "asyncio"]
            # The server closed the pooled connection: the next call
            # fails at once instead of waiting out its timeout.
            started = time.perf_counter()
            with pytest.raises(TransientWireError):
                client.health()
            assert time.perf_counter() - started < 2.0
        finally:
            db.close()


class TestRequestFraming:
    def test_a_chunked_body_is_a_400_and_closes(self, counted):
        _, handle, _ = counted
        response = _raw(
            handle.port,
            b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b'd\r\n{"query":"a"}\r\n0\r\n\r\n',
        )
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400") and b"Connection: close" in head
        assert json.loads(body)["error"]["code"] == "wire"

    def test_two_conflicting_lengths_are_a_400_and_close(self, counted):
        _, handle, _ = counted
        response = _raw(
            handle.port,
            b"POST /query HTTP/1.1\r\nContent-Length: 13\r\n"
            b'Content-Length: 3\r\n\r\n{"query":"a"}',
        )
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400") and b"Connection: close" in head
        assert json.loads(body)["error"]["code"] == "wire"

    def test_http10_gets_connection_close(self, counted):
        _, handle, _ = counted
        response = _raw(handle.port, b"GET /health HTTP/1.0\r\n\r\n")
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200") and b"Connection: close" in head
        assert json.loads(body)["ok"]

    def test_three_requests_on_one_socket_get_three_answers(self, counted):
        db, handle, accepted = counted
        query = b'{"query":"a/b"}'
        request = b"POST /query HTTP/1.1\r\nContent-Length: 15\r\n\r\n" + query
        last = b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n"
        response = _raw(handle.port, request * 2 + last)
        answers = []
        while response:
            head, _, rest = response.partition(b"\r\n\r\n")
            length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
            answers.append(json.loads(rest[:length]))
            response = rest[length:]
        want = [list(pair) for pair in sorted(db.query("a/b").pairs)]
        assert [answer.get("pairs") for answer in answers[:2]] == [want, want]
        assert answers[2]["ok"] and len(answers) == 3 and len(accepted) == 1


@st.composite
def group_sequences(draw):
    names = [f"n{i}" for i in range(8)]
    edge = st.tuples(
        st.sampled_from(names), st.sampled_from("abc"), st.sampled_from(names)
    )
    mutation = st.builds(
        lambda add, triple: (Mutation.add if add else Mutation.remove)(*triple),
        st.booleans(),
        edge,
    )
    return draw(st.lists(st.lists(mutation, min_size=1, max_size=3), max_size=4))


class TestSliceCacheAcrossWrites:
    @pytest.fixture(scope="class")
    def pair(self):
        edges = _edges(8, 8, 30)
        coordinator = CoordinatorDatabase.from_edges(
            edges, config=ServiceConfig(k=2, shards=2)
        )
        oracle = GraphDatabase.from_edges(edges, config=ServiceConfig(k=2, shards=1))
        yield coordinator, oracle
        coordinator.close()
        oracle.close()

    @settings(max_examples=15, deadline=None)
    @given(groups=group_sequences())
    def test_every_apply_answers_as_the_oracle(self, pair, groups):
        coordinator, oracle = pair
        for group in groups:
            for db in (coordinator, oracle):
                db.query("a/b|c", use_cache=False)  # warm every slice
            batch = MutationBatch.of(*group)
            assert coordinator.apply(batch).version == oracle.apply(batch).version
            for text in ("a/b|c", "a/b", "b/c|a"):
                result = coordinator.query(text, use_cache=False)
                assert result.version == oracle.graph.version
                assert result.pairs == oracle.query(text, use_cache=False).pairs

    def test_a_broadcast_drops_the_kept_slices(self, pair):
        coordinator, _ = pair
        index = coordinator.index
        coordinator.query("a|b|c", use_cache=False)
        assert index.slices.pairs > 0
        index.apply_commit_group([], {}, set())  # an empty group, to the index itself
        assert index.slices.pairs == 0


def test_kill_worker_mid_hammer_stays_typed_or_exact():
    """Killing a shard worker during a client hammer yields only typed
    errors or exact degraded subsets — never a wrong answer."""
    edges = _edges(6)
    oracle = GraphDatabase.from_edges(edges, config=ServiceConfig(k=2, shards=1))
    database = CoordinatorDatabase.from_edges(
        edges, config=ServiceConfig(k=2, shards=2)
    )
    expected = {text: oracle.query(text).pairs for text in QUERIES}
    handle = serve_in_thread(database, supervise_interval=0.1)
    outcomes: list[str] = []

    def run_client() -> None:
        with contextlib.closing(Client(port=handle.port)) as client:
            for text in QUERIES * 4:
                try:
                    result = client.query(text, degraded=True, use_cache=False)
                except ReproError:
                    outcomes.append("typed-error")
                    continue
                if result.partial:
                    assert result.pairs <= expected[text], text
                    assert result.shards_failed >= 1
                    outcomes.append("degraded-subset")
                else:
                    assert result.pairs == expected[text], text
                    outcomes.append("exact")

    try:
        threads = [threading.Thread(target=run_client, daemon=True) for _ in range(4)]
        for thread in threads:
            thread.start()
        # Murder one worker while the hammer is running; supervision
        # restarts it, so late requests go back to exact.
        time.sleep(0.05)
        database._index.handles[0].kill()
        for thread in threads:
            thread.join(60)
    finally:
        handle.stop()
        database.close()
        oracle.close()
    # Every read of every thread finished: a wrong answer stops its thread.
    assert len(outcomes) == 4 * 4 * len(QUERIES) and "exact" in outcomes


class TestCliServe:
    def test_parser_accepts_serve(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--workers", "2", "--port", "0", "--queue-limit", "4"]
        )
        assert args.workers == 2 and args.queue_limit == 4
        assert args.handler is not None

    def test_serve_runs_serve_forever(self, monkeypatch):
        """``repro serve`` is :func:`serve_forever`, not a copy of it."""
        import repro.serve
        from repro import cli

        served = []

        async def fake(database, config):
            served.append((database.config.shards, config.port))

        monkeypatch.setattr(server_module, "serve_forever", fake)
        monkeypatch.setattr(repro.serve, "CoordinatorDatabase", GraphDatabase)
        argv = ["serve", "--synthetic", "small", "--workers", "1", "--port", "0"]
        assert cli.main(argv) == 0
        assert served == [(1, 0)]
