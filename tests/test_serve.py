"""Tests for the serving stack: protocol, workers, coordinator, HTTP.

The expensive fixtures (a worker fleet, an HTTP front door) are
module-scoped; tests that mutate or kill things restore the fleet
before handing it back.  Every distributed answer is pinned to an
in-process ``shards=1`` oracle — the serving stack's one correctness
contract is "same pairs as the embedded engine, or a typed error".
"""

from __future__ import annotations

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
from repro.serve.coordinator import WorkerStub
from repro.serve.server import serve_in_thread
from repro.serve.worker import WorkerHandle, _await_ready
from repro.stats import EngineStats

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
            _await_ready(0, None, Receiver(), 1.0)


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
            "shards_pruned", "disjuncts_pruned", "shards_replanned",
            "prepared_hits", "prepared_misses", "prepared_invalidations",
            "artifact_loads", "plans_computed", "plan_artifacts",
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
        assert coordinator.add_edge("n0", "a", "n39") is not None
        oracle.add_edge("n0", "a", "n39")
        try:
            for query in QUERIES:
                assert (
                    coordinator.query(query).pairs == oracle.query(query).pairs
                )
        finally:
            coordinator.remove_edge("n0", "a", "n39")
            oracle.remove_edge("n0", "a", "n39")
        assert coordinator.query("a/b").pairs == oracle.query("a/b").pairs

    def test_duplicate_add_is_noop_everywhere(self, coordinator):
        first = next(iter(coordinator.graph.edges()))
        assert coordinator.add_edge(*first) is None

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
        plan = FaultPlan(
            [FaultRule("rpc.send", "transient", times=1, shard=0)], seed=3
        )
        with armed(plan):
            result = coordinator.query("a/b", use_cache=False)
        assert result.pairs == oracle.query("a/b").pairs
        assert plan.fired >= 1

    def test_rpc_corrupt_is_typed_strict(self, coordinator):
        plan = FaultPlan([FaultRule("rpc.recv", "corrupt", shard=0)], seed=3)
        with armed(plan):
            with pytest.raises(WireError):
                coordinator.query("a/b", use_cache=False)

    def test_rpc_corrupt_drops_slice_degraded(self, coordinator, oracle):
        plan = FaultPlan([FaultRule("rpc.recv", "corrupt", shard=0)], seed=3)
        with armed(plan):
            result = coordinator.query("a/b", degraded=True, use_cache=False)
        assert result.pairs <= oracle.query("a/b").pairs
        assert result.report.partial


# -- the HTTP front door -------------------------------------------------------


@pytest.fixture(scope="module")
def served(coordinator):
    handle = serve_in_thread(coordinator, supervise_interval=0.1)
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def client(served):
    return Client(port=served.port)


class TestHttpService:
    def test_health(self, client, coordinator):
        health = client.health()
        assert health["ok"] and health["shards"] == 3

    @pytest.mark.parametrize("query", QUERIES[:3])
    def test_query_parity(self, client, oracle, query):
        result = client.query(query)
        assert isinstance(result, RemoteResult)
        assert result.pairs == oracle.query(query).pairs

    def test_result_carries_version(self, client, coordinator):
        assert client.query("a/b").version == coordinator.graph.version

    def test_prepared(self, client, oracle):
        result = client.prepared("a{1,$n}/b", params={"n": 2})
        assert result.pairs == oracle.query("a{1,2}/b").pairs
        again = client.prepared("a{1,$n}/b", params={"n": 2})
        assert again.pairs == result.pairs

    def test_mutation_round_trip(self, client, oracle, coordinator):
        version = client.add_edge("n1", "b", "n38")
        assert version is not None
        assert client.add_edge("n1", "b", "n38") is None
        oracle.add_edge("n1", "b", "n38")
        try:
            assert client.query("a/b").pairs == oracle.query("a/b").pairs
        finally:
            assert client.remove_edge("n1", "b", "n38") is not None
            oracle.remove_edge("n1", "b", "n38")

    def test_parse_error_crosses_wire(self, client):
        with pytest.raises(ParseError):
            client.query("a/(b")

    def test_timeout_crosses_wire(self, client):
        with pytest.raises(QueryTimeoutError):
            client.query("a/b/c/a", timeout_ms=1e-4, use_cache=False)

    def test_stats_endpoint_groups(self, client):
        stats = client.stats()
        assert set(stats) == {"cache", "scatter", "prepared", "faults", "write"}
        assert "shards_failed" in stats["faults"]

    def test_unknown_route_is_typed(self, served):
        with pytest.raises(ValidationError):
            Client(port=served.port)._request("GET", "/nope")

    def test_refused_connection_is_transient(self):
        with pytest.raises(TransientWireError):
            Client(port=1, timeout=2).health()

    def test_async_client(self, served, oracle):
        import asyncio

        async def exercise():
            remote = AsyncClient(port=served.port)
            result = await remote.query("a|b")
            health = await remote.health()
            stats = await remote.stats()
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
        try:
            blocker = threading.Thread(
                target=lambda: Client(port=handle.port).query("a"), daemon=True
            )
            blocker.start()
            assert entered.wait(timeout=10)
            with pytest.raises(TransientWireError, match="capacity"):
                Client(port=handle.port).query("a")
        finally:
            release.set()
            blocker.join(timeout=10)
            handle.stop()
            db.query = original
            db.close()


class TestCliServe:
    def test_parser_accepts_serve(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--workers", "2", "--port", "0", "--queue-limit", "4"]
        )
        assert args.workers == 2 and args.queue_limit == 4
        assert args.handler is not None
