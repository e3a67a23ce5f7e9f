"""Serving-stack hammer: HTTP clients against the multi-process engine.

Measures what the embedded-engine benchmarks cannot: the full
request path — HTTP parse, coordinator scatter over worker-process
RPC, gather, result frame — under concurrent client load.  Reports
throughput (``qps``) and tail latency (``p99_ms``); both are
informational columns (no ``speedup`` gate — the serving stack adds
IPC cost by construction, the regression tracker just records it).
A timed request is a *full* read: ``RemoteResult.pairs`` is a lazy view
over the frame's id columns, so the client builds the whole
``frozenset`` of name pairs inside the timed region.

Correctness is pinned the same way the transparency tests pin the
sharded engine: every response must carry exactly the pairs an
in-process ``shards=1`` oracle computes for that query.

Run directly to print a table and export ``BENCH_serve.json``::

    PYTHONPATH=src python benchmarks/bench_serve.py          # full
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke  # small

or under pytest (smoke hammer plus the kill-a-worker acceptance)::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -q
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.api import GraphDatabase, ServiceConfig
from repro.bench.export import write_json
from repro.bench.workloads import SCALES, service_batch_queries
from repro.client import Client
from repro.errors import ReproError
from repro.graph.generators import advogato_like
from repro.serve import CoordinatorDatabase
from repro.serve.server import serve_in_thread

#: (scale, shard workers, client threads, queries per thread).
FULL_CONFIG = ("bench", 4, 8, 40)
SMOKE_CONFIG = ("small", 2, 4, 15)


@dataclass(frozen=True, slots=True)
class ServeRow:
    """One hammer run against the HTTP front door."""

    scale: str
    shard_workers: int
    client_threads: int
    requests: int
    errors: int
    seconds: float
    qps: float
    mean_ms: float
    p99_ms: float


def _percentile(samples: list[float], fraction: float) -> float:
    ranked = sorted(samples)
    return ranked[min(len(ranked) - 1, int(fraction * (len(ranked) - 1) + 0.5))]


def _build(scale: str, workers: int):
    nodes, edges = SCALES[scale]
    graph = advogato_like(nodes=nodes, edges=edges, seed=7)
    oracle = GraphDatabase(graph, config=ServiceConfig(k=2, shards=1))
    database = CoordinatorDatabase(
        graph,
        config=ServiceConfig(k=2, shards=workers, max_inflight=workers * 4),
    )
    return oracle, database


def hammer(
    scale: str = SMOKE_CONFIG[0],
    shard_workers: int = SMOKE_CONFIG[1],
    client_threads: int = SMOKE_CONFIG[2],
    per_thread: int = SMOKE_CONFIG[3],
) -> ServeRow:
    """Run the multi-threaded client hammer; answers checked per request."""
    oracle, database = _build(scale, shard_workers)
    queries = service_batch_queries(per_thread)
    expected = {
        query: oracle.query(query, use_cache=False).pairs
        for query in set(queries)
    }
    handle = serve_in_thread(database)
    latencies: list[list[float]] = [[] for _ in range(client_threads)]
    failures: list[int] = [0] * client_threads

    def run_client(slot: int) -> None:
        client = Client(port=handle.port)
        for query in queries:
            started = time.perf_counter()
            try:
                answer = frozenset(client.query(query, use_cache=False).pairs)
            except ReproError:
                failures[slot] += 1
                continue
            latencies[slot].append(time.perf_counter() - started)
            assert answer == expected[query], query

    try:
        threads = [
            threading.Thread(target=run_client, args=(slot,), daemon=True)
            for slot in range(client_threads)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
    finally:
        handle.stop()
        database.close()
        oracle.close()

    samples = [sample for bucket in latencies for sample in bucket]
    requests = len(samples)
    return ServeRow(
        scale=scale,
        shard_workers=shard_workers,
        client_threads=client_threads,
        requests=requests,
        errors=sum(failures),
        seconds=elapsed,
        qps=requests / elapsed if elapsed else 0.0,
        mean_ms=(sum(samples) / requests * 1000.0) if requests else 0.0,
        p99_ms=_percentile(samples, 0.99) * 1000.0 if samples else 0.0,
    )


def export_rows(
    rows: list[ServeRow], path: str | Path = "BENCH_serve.json"
) -> Path:
    write_json(rows, path, experiment="serve-http-hammer")
    return Path(path)


# -- pytest entry points -------------------------------------------------------


def test_smoke_hammer_exports(tmp_path):
    """Smoke hammer: every answer oracle-exact, no errors, export round-trips."""
    row = hammer()
    assert row.errors == 0
    assert row.requests == SMOKE_CONFIG[2] * SMOKE_CONFIG[3]
    assert row.qps > 0 and row.p99_ms > 0
    path = export_rows([row], tmp_path / "BENCH_serve.json")
    from repro.bench.export import read_json

    payload = read_json(path)
    assert payload["experiment"] == "serve-http-hammer"
    assert {"qps", "p99_ms"} <= set(payload["rows"][0])


def test_kill_worker_mid_hammer_stays_typed_or_exact():
    """Acceptance: killing a shard worker during the hammer yields only
    typed errors or exact degraded subsets — never a wrong answer."""
    oracle, database = _build("small", 2)
    queries = service_batch_queries(10)
    expected = {
        query: oracle.query(query, use_cache=False).pairs
        for query in set(queries)
    }
    handle = serve_in_thread(database, supervise_interval=0.1)
    outcomes: list[str] = []
    lock = threading.Lock()

    def run_client() -> None:
        client = Client(port=handle.port)
        for query in queries:
            try:
                result = client.query(query, degraded=True, use_cache=False)
            except ReproError:
                with lock:
                    outcomes.append("typed-error")
                continue
            if result.partial:
                assert result.pairs <= expected[query], query
                assert result.shards_failed >= 1
                with lock:
                    outcomes.append("degraded-subset")
            else:
                assert result.pairs == expected[query], query
                with lock:
                    outcomes.append("exact")

    try:
        threads = [
            threading.Thread(target=run_client, daemon=True) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        # Murder one worker while the hammer is running; supervision
        # restarts it, so late requests go back to exact.
        time.sleep(0.05)
        database._index.handles[0].kill()
        for thread in threads:
            thread.join()
    finally:
        handle.stop()
        database.close()
        oracle.close()

    assert outcomes and all(
        outcome in ("exact", "degraded-subset", "typed-error")
        for outcome in outcomes
    )
    assert "exact" in outcomes


def main() -> None:
    smoke = "--smoke" in sys.argv[1:]
    scale, workers, threads, per_thread = SMOKE_CONFIG if smoke else FULL_CONFIG
    row = hammer(scale, workers, threads, per_thread)
    print(
        f"{'scale':<8}{'workers':>8}{'clients':>8}{'requests':>9}"
        f"{'errors':>7}{'qps':>9}{'mean ms':>9}{'p99 ms':>9}"
    )
    print(
        f"{row.scale:<8}{row.shard_workers:>8}{row.client_threads:>8}"
        f"{row.requests:>9}{row.errors:>7}{row.qps:>9.1f}"
        f"{row.mean_ms:>9.2f}{row.p99_ms:>9.2f}"
    )
    path = export_rows([row])
    print(f"\nwrote {path.resolve()}")


if __name__ == "__main__":
    main()
