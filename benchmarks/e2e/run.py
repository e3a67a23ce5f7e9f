"""The end-to-end benchmark: four workloads, checked answers, named metrics.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --seed N [--trace] [--smoke] --out FILE

One run is one workload with one seed in one process: generate the
inputs, compute the expected answers with the ``rpq/semantics`` oracle,
set the system up, warm up with one query cycle, measure for
``--seconds``, check every answer outside the timed interval, then set
the system up several more times (``setup_s`` is the median).
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` measures half the time untraced and half with the
wrappers of :mod:`tracing` installed and reports the per-layer metrics.
The last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``.  Without ``--workload`` the command
runs itself once per workload, so that no run's memory is another's.

README.md in this directory explains every workload and metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import itertools
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SOURCE))

import workloads as inputs  # noqa: E402  (needs HERE on the path)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    metric["name"]: metric["unit"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]
}

#: The index locality every deployment is built with (the paper's k).
K = 2
#: Set-ups per run; ``setup_s`` is their median.  Cheap set-ups repeat
#: until they have filled ``SETUP_MIN_SECONDS``, because a 40 ms set-up
#: timed five times does not repeat to within a tenth.
SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 25
#: Trace runs only: repeated queries timed for ``api.cache_hit_ms``, and
#: ``apply()`` calls timed after the reads where the mix has no writes
#: (the ``shards=1`` rebuild against the ``shards=2`` patch).
CACHE_HIT_PROBES = 100
WRITE_PROBES = 5
#: Reads behind every ``p95_ms``, so that at least 15 lie beyond it.
MIN_READS = 300


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    out_degree: int
    pool: tuple[str, ...]
    cycle_length: int
    served: bool
    shards: int
    clients: int
    use_cache: bool
    #: Reads each client issues between two ``apply()`` calls; 0 = none.
    reads_per_write: int


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "embedded_joins", 1000, 8, inputs.JOIN_POOL, 80,
            served=False, shards=1, clients=1, use_cache=False,
            reads_per_write=0,
        ),
        Workload(
            "embedded_closure", 200, 6, inputs.CLOSURE_POOL, 48,
            served=False, shards=1, clients=1, use_cache=False,
            reads_per_write=0,
        ),
        Workload(
            "served_reads", 1000, 8, inputs.JOIN_POOL, 80,
            served=True, shards=2, clients=2, use_cache=False,
            reads_per_write=0,
        ),
        Workload(
            "sharded_read_write", 1000, 8, inputs.JOIN_POOL, 80,
            served=False, shards=2, clients=2, use_cache=True,
            reads_per_write=9,
        ),
    )
}  # fmt: skip


# -- deployments ------------------------------------------------------------------
#
# A deployment is the system set up one way.  ``clients`` are what the
# load threads call: ``GraphDatabase`` and ``repro.client.Client`` take
# the same ``query(text, use_cache=)`` and ``apply(mutations)`` calls and
# both answer with ``.pairs`` and ``.version``.


class Embedded:
    """An in-process ``GraphDatabase`` (the callers share the one object)."""

    #: Seconds until workers and server answer ``/health`` (trace runs): none.
    launch_seconds = 0.0

    def __init__(self, workload: Workload, graph_file: Path, log_path: Path | None):
        from repro import GraphDatabase
        from repro.config import ServiceConfig

        config = ServiceConfig(k=K, shards=workload.shards, mutation_log_path=log_path)
        self.database = GraphDatabase.from_file(graph_file, config=config)
        self.clients = [self.database] * workload.clients

    def stats(self) -> dict:
        return dataclasses.asdict(self.database.stats())

    def version(self) -> int:
        return self.database.graph.version

    def entries_per_edge(self) -> float:
        return self.database.index.entry_count / self.database.graph.edge_count

    def peak_rss_mb(self) -> float:
        """This process: the engine, and the harness that drives it."""
        return _peak_rss_mb(os.getpid())

    def close(self) -> None:
        self.database.close()


class ServedProcess:
    """``python -m repro serve`` as a subprocess — what users deploy."""

    def __init__(self, workload: Workload, graph_file: Path, work: Path):
        from repro.client import Client

        self.workload, self.graph_file = workload, graph_file
        self._log = open(work / "serve.stderr", "w+")
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SOURCE), environment.get("PYTHONPATH")])
        )
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--graph", str(graph_file), "-k", str(K),
                "--workers", str(workload.shards), "--port", "0",
            ],  # fmt: skip
            env=environment,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
            start_new_session=True,
        )
        try:
            port = self._await_port()
            self.clients = [Client(port=port) for _ in range(workload.clients)]
            self.clients[0].health()
        except BaseException:
            self.close()
            raise

    def _await_port(self, timeout: float = 120.0) -> int:
        """The port from the server's "serving ... http://host:port" line."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self._log.seek(0)
            match = re.search(r"http://[^:\s]+:(\d+)\s", self._log.read())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self._log.seek(0)
        raise RuntimeError(f"server did not come up: {self._log.read()[-2000:]}")

    def stats(self) -> dict:
        return self.clients[0].stats()

    def version(self) -> int:
        return self.clients[0].health()["version"]

    def entries_per_edge(self) -> float:
        # The HTTP surface does not expose the index size; the same graph
        # at the same shard count in this process has the same entries.
        twin = Embedded(self.workload, self.graph_file, None)
        try:
            return twin.entries_per_edge()
        finally:
            twin.close()

    def peak_rss_mb(self) -> float:
        pid = self.process.pid
        children = Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
        return sum(_peak_rss_mb(int(each)) for each in [pid, *children])

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)  # workers that outlived it
        except ProcessLookupError:
            pass
        self.process.wait()
        self._log.close()


class ServedInThread:
    """The same front door hosted here, so coordinator-side spans are visible."""

    def __init__(self, workload: Workload, graph_file: Path):
        from repro.client import Client
        from repro.config import ServiceConfig
        from repro.serve import CoordinatorDatabase
        from repro.serve.server import serve_in_thread

        started = time.perf_counter()
        config = ServiceConfig(k=K, shards=workload.shards)
        self.database = CoordinatorDatabase.from_file(graph_file, config=config)
        self.thread = serve_in_thread(self.database)
        self.clients = [Client(port=self.thread.port) for _ in range(workload.clients)]
        self.clients[0].health()
        self.launch_seconds = time.perf_counter() - started

    stats = ServedProcess.stats
    version = ServedProcess.version

    def close(self) -> None:
        self.thread.stop()
        self.database.close()


def _peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- the correctness gate -----------------------------------------------------------


def digest(pairs) -> tuple[int, str]:
    """An answer as (cardinality, hash), so expected answers cost no memory."""
    lines = sorted(f"{source}\t{target}" for source, target in pairs)
    text = "\n".join(lines).encode("utf-8")
    return len(lines), hashlib.blake2b(text, digest_size=16).hexdigest()


def oracle(edges, pool) -> dict[str, tuple[int, str]]:
    """Expected answer digests from the reference evaluator."""
    from repro.graph.graph import Graph
    from repro.rpq.semantics import eval_query

    graph = Graph.from_edges(edges)
    return {query: digest(eval_query(graph, query)) for query in pool}


class Read(NamedTuple):
    index: int  # position in the shared read sequence
    query: str
    end: float
    seconds: float
    size: int
    version: int


class Write(NamedTuple):
    batch: list
    end: float
    seconds: float
    result: object  # the ApplyResult


@dataclass
class Samples:
    """What the load threads recorded; checked after the clock stops."""

    started: float = 0.0
    finished: float = 0.0
    reads: list[Read] = field(default_factory=list)
    writes: list[Write] = field(default_factory=list)
    #: Typed errors and refusals, as text.
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.reads) + len(self.writes) + len(self.errors)


class Turns:
    """The one read sequence the clients share: the cycle, over and over.

    Clients draw the next query from here, so together they issue the
    cycle in order whatever their relative speed.  Once the deadline has
    passed and ``minimum`` reads are out, the sequence ends at the next
    cycle boundary: every run measures whole cycles — the same mix
    however fast the program is — and per-query counts repeat exactly.
    """

    def __init__(self, cycle, clients: int, deadline: float, minimum: int):
        self._cycle, self._clients, self._deadline = cycle, clients, deadline
        self._minimum = minimum
        self._counter = itertools.count()
        self._stop_at: int | None = None
        self._lock = threading.Lock()

    def next_query(self) -> tuple[int, str] | None:
        index = next(self._counter)
        if (
            self._stop_at is None
            and index >= self._minimum
            and time.perf_counter() >= self._deadline
        ):
            with self._lock:
                if self._stop_at is None:
                    # Peers may already hold the next few indexes; the
                    # boundary is chosen beyond them so none is skipped.
                    length = len(self._cycle)
                    self._stop_at = -(-(index + self._clients) // length) * length
        if self._stop_at is not None and index >= self._stop_at:
            return None
        return index, self._cycle[index % len(self._cycle)]


def _load_thread(client, turns, use_cache, reads_per_write, batches, samples):
    """One closed-loop client: the next call starts when the last returned."""
    from repro.errors import ReproError
    from repro.write.mutation import Mutation

    clock = time.perf_counter
    issued = 0
    while True:
        issued += 1
        batch = None
        if reads_per_write and issued % (reads_per_write + 1) == 0:
            batch = next(batches, None)
        try:
            if batch is not None:
                mutations = [Mutation(*mutation) for mutation in batch]
                start = clock()
                result = client.apply(mutations)
                end = clock()
                samples.writes.append(Write(batch, end, end - start, result))
            else:
                turn = turns.next_query()
                if turn is None:
                    return
                start = clock()
                result = client.query(turn[1], use_cache=use_cache)
                end = clock()
                samples.reads.append(
                    Read(*turn, end, end - start, len(result.pairs), result.version)
                )
        except ReproError as error:
            samples.errors.append(f"{type(error).__name__}: {error}")


def measure(workload, deployment, cycle, batches, seconds, minimum=0) -> Samples:
    """Every client, closed loop, for ``seconds`` and at least ``minimum``
    reads, and on to the cycle's end."""
    per_client = [Samples() for _ in deployment.clients]
    crashes: list[BaseException] = []

    def guarded(*arguments):
        try:
            _load_thread(*arguments)
        except BaseException as error:  # re-raised on the main thread below
            crashes.append(error)

    merged = Samples(started=time.perf_counter())
    turns = Turns(cycle, len(deployment.clients), merged.started + seconds, minimum)
    threads = [
        threading.Thread(
            target=guarded,
            args=(
                client,
                turns,
                workload.use_cache,
                workload.reads_per_write,
                batches,
                samples,
            ),
        )
        for client, samples in zip(deployment.clients, per_client)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if crashes:
        raise crashes[0]
    merged.finished = time.perf_counter()
    for samples in per_client:
        merged.reads += samples.reads
        merged.writes += samples.writes
        merged.errors += samples.errors
    return merged


def percentile(values: list[float], share: float) -> float:
    """The value ``share`` of the way through the sorted ``values``; 0 if none."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def load_statistics(samples: Samples) -> tuple[float, float, float]:
    """``(ops/s, p50 seconds, p95 seconds)`` over every operation of the run.

    Operations are the reads and writes that completed, the time runs
    from the start of the load to the last completion, and the
    percentiles are over all timed reads: a stall that hits one read in
    thirty is in the p95, and one that stops the clients is in the rate.
    """
    operations = len(samples.reads) + len(samples.writes)
    seconds = [read.seconds for read in samples.reads]
    return (
        operations / (samples.finished - samples.started),
        percentile(seconds, 0.5),
        percentile(seconds, 0.95),
    )


def cycle_rows(samples: Samples, length: int) -> list[tuple[float, float]]:
    """``(seconds, median read seconds)`` of every whole cycle, in order.

    A diagnostic kept in the report: every cycle is the same queries, so
    a slow spell of the host inside a run shows as a run of slow rows.
    """
    cycles: dict[int, list[Read]] = defaultdict(list)
    for read in samples.reads:
        cycles[read.index // length].append(read)
    rows = []
    previous = samples.started
    for number in sorted(cycles):
        reads = cycles[number]
        finished = max(read.end for read in reads)
        rows.append(
            (finished - previous, percentile([read.seconds for read in reads], 0.5))
        )
        previous = finished
    return rows


class Gate:
    """Counts every way an operation can be wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(note)

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)

    def answer(self, query: str, result, expected, version: int | None) -> None:
        """Full set equality (by digest) plus the consistency token."""
        ok = digest(result.pairs) == expected[query] and (
            version is None or result.version == version
        )
        self.check(ok, f"wrong answer for {query!r}")

    def samples(self, samples: Samples, expected, version: int, moving: bool) -> None:
        """Repeats: cardinality and version.

        With writes in the mix (``moving``) the version only has a floor
        and the answers are checked against the final graph once quiesced.
        """
        self.attempted += samples.attempted
        for error in samples.errors:
            self.fail(error)
        for read in samples.reads:
            if read.version < version or not moving and (
                read.version != version or read.size != expected[read.query][0]
            ):
                self.fail(
                    f"{read.query!r}: {read.size} pairs at version {read.version}"
                )
        for write in samples.writes:
            if write.result.applied != len(write.batch):
                self.fail(f"apply changed {write.result.applied} of {len(write.batch)}")


# -- one run ----------------------------------------------------------------------


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def _final_edges(edges, writes) -> set:
    final = set(edges)
    for write in writes:
        for kind, *triple in write.batch:
            (final.add if kind == "add" else final.discard)(tuple(triple))
    return final


def _check_against(gate, client, edges, pool) -> None:
    """Every query of ``pool`` against the oracle on ``edges`` (system quiesced)."""
    expected = oracle(sorted(edges), pool)
    for query in pool:
        gate.answer(query, client.query(query, use_cache=False), expected, None)


def _check_durable(gate, workload, graph_file, log_path, final, writes) -> None:
    """A fresh database on the original edges and the WAL holds every ack."""
    reopened = Embedded(workload, graph_file, log_path)
    try:
        held = set(reopened.database.graph.edges())
        lost = sum(
            any(
                (tuple(triple) in held) != (kind == "add")
                for kind, *triple in write.batch
            )
            for write in writes
        )
        if lost:
            gate.fail(f"{lost} acknowledged batches lost", lost)
        gate.check(held == final, "reopened graph differs from the final graph")
        gate.check(
            reopened.stats()["write"]["replayed"] == len(writes),
            "WAL replay count differs from the acknowledged batches",
        )
        _check_against(gate, reopened.database, final, workload.pool)
    finally:
        reopened.close()


def set_up(workload, graph_file, work, number, tracer):
    """One timed set-up, the ``number``-th of the run.

    Timed from the edge list on disk to the answer to the pool's first
    query.  Returns ``(deployment, that answer, seconds, WAL path)``.
    """
    from tracing import SETUP_LAYERS

    log_path = None
    if workload.reads_per_write:
        log_path = work / f"mutations-{number}.log"
    if tracer:
        tracer.install(SETUP_LAYERS)
    started = time.perf_counter()
    try:
        if not workload.served:
            deployment = Embedded(workload, graph_file, log_path)
        elif tracer:
            deployment = ServedInThread(workload, graph_file)
        else:
            deployment = ServedProcess(workload, graph_file, work)
        try:
            answer = deployment.clients[0].query(
                workload.pool[0], use_cache=workload.use_cache
            )
        except BaseException:
            deployment.close()
            raise
        seconds = time.perf_counter() - started
    finally:
        if tracer:
            tracer.uninstall()
    return deployment, answer, seconds, log_path


def repeat_set_ups(workload, graph_file, work, first_seconds, verify) -> list[float]:
    """The seconds of every set-up of the run: the first, then the repeats.

    The repeats come after the load, each closed as soon as its first
    answer is checked, so the process's peak memory is that of one
    deployment under load and not of what five left behind.
    """
    times = [first_seconds]
    while len(times) < SETUP_REPEATS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        gc.collect()
        deployment, answer, seconds, _ = set_up(
            workload, graph_file, work, len(times), None
        )
        try:
            verify(deployment, answer)
        finally:
            deployment.close()
        times.append(seconds)
    return times


def timed_applies(client, batches, count) -> Samples:
    """``count`` ``apply()`` calls one after another, each timed."""
    from repro.write.mutation import Mutation

    samples = Samples()
    for _ in range(count):
        batch = next(batches)
        started = time.perf_counter()
        result = client.apply([Mutation(*mutation) for mutation in batch])
        end = time.perf_counter()
        samples.writes.append(Write(batch, end, end - started, result))
    return samples


def timed_cache_hits(gate, client, query, count) -> float:
    """Median milliseconds of a repeated query answered from the result cache."""
    client.query(query, use_cache=True)
    seconds = []
    for _ in range(count):
        started = time.perf_counter()
        hit = client.query(query, use_cache=True)
        seconds.append(time.perf_counter() - started)
        gate.check(hit.cached, "repeated query was not served from the cache")
    return _median_ms(seconds)


def _delta(before: dict, after: dict, group: str, *keys: str) -> dict:
    return {key: after[group][key] - before[group][key] for key in keys}


def run_workload(
    workload: Workload, seed: int, seconds: float, traced: bool, smoke: bool, work: Path
) -> dict:
    """One run: the result line's keys plus ``workload, info, layers, spans``."""
    from tracing import Tracer

    edges = inputs.trust_graph(workload.nodes, workload.out_degree, seed)
    graph_file = work / "graph.tsv"
    inputs.write_edge_list(edges, graph_file)
    cycle = inputs.query_cycle(workload.pool, workload.cycle_length)
    batches = iter(inputs.mutation_batches(edges, min(2000, len(edges)), seed))
    expected = oracle(edges, workload.pool)
    gate = Gate()
    tracer = Tracer() if traced else None
    spans = {"setup": [], "load": [], "probe": []}
    moving = bool(workload.reads_per_write)

    def verify_first(deployment, answer):
        gate.answer(workload.pool[0], answer, expected, deployment.version())

    deployment, answer, setup_seconds, log_path = set_up(
        workload, graph_file, work, 0, tracer
    )
    try:
        verify_first(deployment, answer)
        if tracer:
            spans["setup"] = tracer.take()
        launch_seconds = deployment.launch_seconds if traced else 0.0
        version = deployment.version()
        entries_per_edge = 0.0 if traced else deployment.entries_per_edge()
        client = deployment.clients[0]

        # Warm-up: one full cycle, discarded, every answer fully checked.
        for query in cycle:
            answer = client.query(query, use_cache=workload.use_cache)
            gate.answer(query, answer, expected, version)

        # The measured interval; with tracing, half plain and half traced.
        stats_before = deployment.stats()
        # An untraced run is what p95_ms is read from, so it goes on until
        # there are MIN_READS behind it however slow the program is.
        if traced or smoke:
            plain = measure(workload, deployment, cycle, batches, seconds / 2)
        else:
            plain = measure(workload, deployment, cycle, batches, seconds, MIN_READS)
        gate.samples(plain, expected, version, moving)
        loaded = plain
        if tracer:
            stats_before = deployment.stats()
            tracer.install()
            loaded = measure(workload, deployment, cycle, batches, seconds / 2)
            tracer.uninstall()
            spans["load"] = tracer.take()
            gate.samples(loaded, expected, version, moving)
        stats_after = deployment.stats()
        peak_rss_mb = 0.0 if traced else deployment.peak_rss_mb()
        cache_hit_ms = 0.0
        writes = plain.writes + (loaded.writes if tracer else [])
        traced_writes = loaded.writes

        if traced:
            cache_hit_ms = timed_cache_hits(
                gate, client, workload.pool[0], 10 if smoke else CACHE_HIT_PROBES
            )
        if moving:
            # Quiesced: the final graph against the oracle, then durability.
            final = _final_edges(edges, writes)
            _check_against(gate, client, final, workload.pool)
            deployment.close()
            deployment = None
            _check_durable(gate, workload, graph_file, log_path, final, writes)
        elif traced:
            # For the layer table only: apply() where the mix has no writes.
            tracer.install()
            probe = timed_applies(client, batches, 2 if smoke else WRITE_PROBES)
            tracer.uninstall()
            spans["probe"] = tracer.take()
            gate.samples(probe, expected, version, True)
            writes = traced_writes = probe.writes
            _check_against(gate, client, _final_edges(edges, writes), workload.pool[:1])
    finally:
        if deployment is not None:
            deployment.close()
    setup_times = [setup_seconds]
    if not (traced or smoke):
        setup_times = repeat_set_ups(
            workload, graph_file, work, setup_seconds, verify_first
        )

    cache = _delta(stats_before, stats_after, "cache", "hits", "misses")
    write_seconds = [write.seconds for write in writes]
    info = {
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "nodes": workload.nodes,
        "edges": len(edges),
        "pool": len(workload.pool),
        "cycle": len(cycle),
        "clients": workload.clients,
        "setups": len(setup_times),
        "read_samples": len(plain.reads),
        "write_samples": len(writes),
        "write_p50_ms": percentile(write_seconds, 0.5) * 1000.0,
        "write_p95_ms": percentile(write_seconds, 0.95) * 1000.0,
        "cache_hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "cycles": cycle_rows(plain, len(cycle)),
        "failures": gate.notes,
    }
    if traced:
        metrics, accounting = layer_metrics(
            tracer.layers, spans, plain, loaded,
            sum(len(write.batch) for write in writes), traced_writes,
            stats_before, stats_after, log_path,
        )  # fmt: skip
        info.update(accounting)
        metrics["serve.worker_launch_ms"] = launch_seconds * 1000.0
        metrics["api.cache_hit_ms"] = cache_hit_ms
        metrics["write.apply_p50_ms"] = info["write_p50_ms"]
        metrics["write.apply_p95_ms"] = info["write_p95_ms"]
    else:
        ops_per_s, p50, p95 = load_statistics(plain)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": ops_per_s,
            "p50_ms": p50 * 1000.0,
            "p95_ms": p95 * 1000.0,
            "peak_rss_mb": peak_rss_mb,
            "index_entries_per_edge": entries_per_edge,
        }
        info["index_entries"] = round(entries_per_edge * len(edges))
    return {
        "workload": workload.name,
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
        },
        "info": info,
        "layers": tracer.layers if tracer else {},
        "spans": spans,
    }


def layer_metrics(
    layers, spans, plain, loaded, logged_mutations, traced_writes,
    stats_before, stats_after, log_path,
) -> tuple[dict, dict]:  # fmt: skip
    """The per-layer table: mean self milliseconds per operation, and counts.

    Read layers are per traced read, write layers per traced ``apply()``
    (those in the mix, or the probes), set-up layers per set-up.
    ``plain`` and ``loaded`` are the load without and with tracing.
    Beside the table, the accounting that shows it is complete: the
    layers' self times per read against the latency the callers observed.
    """
    from tracing import READ_ROOTS, SETUP_ROOTS, WRITE_ROOTS, operations

    setup = operations(spans["setup"], layers, SETUP_ROOTS)
    reads = operations(spans["load"], layers, READ_ROOTS)
    applies = operations(spans["load"] + spans["probe"], layers, WRITE_ROOTS)
    scans = ("PathIndex.scan", "PathIndex.scan_swapped")
    shard_scans = (
        "ShardedGraph.shard_scan", "ShardedGraph.shard_scan_swapped",
        "RpcShardedGraph.shard_scan", "RpcShardedGraph.shard_scan_swapped",
    )  # fmt: skip
    kernels = (
        "relation.merge_join", "relation.hash_join", "relation.union",
        "relation.dedup_sort", "relation.union_into",
    )  # fmt: skip
    names = {span.id: span.name for span in reads.spans}
    # A closure kernel calling another is one closure; a shard scan that
    # reached its worker more than once retried.
    closure_calls = sum(
        1
        for span in reads.spans
        if layers[span.name] == "csr"
        and layers.get(names.get(span.parent)) != "csr"
    )
    rpc_scans = [
        span.parent
        for span in reads.named("WorkerStub.scan")
        if names.get(span.parent) in shard_scans
    ]
    rpc_retries = len(rpc_scans) - len(set(rpc_scans))
    cache = _delta(stats_before, stats_after, "cache", "hits", "misses")
    scatter = _delta(
        stats_before, stats_after, "scatter", "shards_scanned", "shards_pruned"
    )
    committed = _delta(stats_before, stats_after, "write", "groups", "coalesced")
    statistics_seconds = setup.self_seconds.get("statistics", 0.0)
    untraced_p50 = load_statistics(plain)[1]
    traced_p50 = load_statistics(loaded)[1]
    read_count = max(1, reads.count)
    answer_rows = max(1.0, reads.total(*READ_ROOTS))
    groups = max(1, len(traced_writes))
    metrics = {
        "rpq.parse_ms": reads.per_op_ms("rpq.parse"),
        "rpq.normalize_ms": reads.per_op_ms("rpq.normalize"),
        "rpq.disjuncts_per_query": reads.total("rewrite.normalize") / read_count,
        "planner.plan_ms": reads.per_op_ms("planner"),
        "executor.self_ms": reads.per_op_ms("executor"),
        "pathindex.scan_ms": reads.per_op_ms("pathindex"),
        "pathindex.scans_per_query": reads.per_op(*scans),
        "pathindex.rows_scanned_per_result": (
            reads.total(*scans, "WorkerStub.scan") / answer_rows
        ),
        "relation.join_ms": reads.per_op_ms("relation.join"),
        "relation.union_ms": reads.per_op_ms("relation.union"),
        "relation.rows_out_per_result": reads.total(*kernels) / answer_rows,
        "csr.closure_ms": reads.per_op_ms("csr"),
        "csr.closure_calls_per_query": closure_calls / read_count,
        "api.decode_ms": reads.per_op_ms("api.decode"),
        "api.self_ms": reads.per_op_ms("api"),
        "api.cache_hit_ratio": (
            cache["hits"] / max(1, cache["hits"] + cache["misses"])
        ),
        "concurrency.read_wait_ms": reads.per_op_ms("concurrency.read"),
        "concurrency.write_wait_ms": applies.per_op_ms("concurrency.write"),
        "sharding.scatter_self_ms": reads.per_op_ms("sharding.scatter"),
        "sharding.gather_ms": reads.per_op_ms("sharding.gather"),
        "sharding.shards_scanned_per_query": (
            scatter["shards_scanned"] / max(1, len(loaded.reads) - cache["hits"])
        ),
        "sharding.shards_pruned_share": scatter["shards_pruned"]
        / max(1, scatter["shards_scanned"] + scatter["shards_pruned"]),
        "serve.client_ms": reads.per_op_ms("serve.client"),
        "serve.frontdoor_ms": reads.per_op_ms("serve.frontdoor"),
        "serve.rpc_ms": reads.per_op_ms("serve.rpc"),
        "serve.rpc_calls_per_query": reads.per_op("WorkerStub._call"),
        "serve.rpc_bytes_per_query": reads.total("WorkerStub._call") / read_count,
        "serve.rpc_retries_per_query": rpc_retries / read_count,
        "protocol.decode_ms": reads.per_op_ms("protocol"),
        "write.log_ms": applies.per_op_ms("write.log"),
        "write.log_bytes_per_mutation": (
            os.path.getsize(log_path) / max(1, logged_mutations) if log_path else 0.0
        ),
        "write.flushes_per_group": len(applies.named("MutationLog.flush")) / groups,
        "write.stage_ms": applies.per_op_ms("write.stage"),
        "write.patch_ms": applies.per_op_ms("write.patch", "serve.rpc"),
        "write.statistics_ms": applies.per_op_ms("statistics"),
        "write.patched_shards_per_group": (
            sum(len(write.result.patched_shards) for write in traced_writes) / groups
        ),
        "write.rebuild_share": (
            sum(write.result.mode != "patch" for write in traced_writes) / groups
        ),
        "write.coalesced_per_group": (
            committed["coalesced"] / max(1, committed["groups"])
        ),
        "builder.build_ms": (setup.wall_seconds - statistics_seconds) * 1000.0,
        "histogram.build_ms": statistics_seconds * 1000.0,
        "trace.overhead_share": (
            (traced_p50 - untraced_p50) / untraced_p50 if untraced_p50 else 0.0
        ),
    }
    accounting = {
        "traced_read_samples": reads.count,
        "traced_read_wall_ms": reads.wall_seconds * 1000.0 / read_count,
        "traced_read_layers_ms": (
            sum(reads.self_seconds.values()) * 1000.0 / read_count
        ),
    }
    return metrics, accounting


# -- command line -----------------------------------------------------------------


def _print_run(run: dict) -> None:
    info = run["info"]
    label = " [smoke]" if info["smoke"] else ""
    print(
        f"== {run['workload']}{label}  seed={info['seed']}  "
        f"{info['nodes']} nodes / {info['edges']} edges  "
        f"pool={info['pool']} cycle={info['cycle']} clients={info['clients']}"
    )
    for name, metric in run["metrics"].items():
        note = f"  (over {info['read_samples']} reads)" if name == "p95_ms" else ""
        print(f"  {name:36s} {metric['value']:14.4f} {metric['unit']}{note}")
    writes = ""
    if info["write_samples"]:
        writes = (
            f", {info['write_samples']} writes (p50 {info['write_p50_ms']:.1f} ms, "
            f"p95 {info['write_p95_ms']:.1f} ms)"
        )
    print(
        f"  samples: {info['read_samples']} reads{writes}; "
        f"cache hit ratio {info['cache_hit_ratio']:.3f}; "
        f"attempted {run['attempted']}, failed {run['failed']}"
    )
    if "traced_read_wall_ms" in info:
        print(
            f"  traced reads: {info['traced_read_samples']}, "
            f"{info['traced_read_wall_ms']:.4f} ms each as the callers saw them, "
            f"{info['traced_read_layers_ms']:.4f} ms as the sum of the layers"
        )
    for note in info["failures"]:
        print(f"  FAILED: {note}")


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and every child on one CPU.

    On the two-CPU sandbox the host has slow spells, minutes long, that
    cost threads and processes which wake each other across CPUs up to
    half their speed, and one CPU's worth of them far less (README,
    *Repeatability*).  The last CPU is the one the rest of the machine
    uses least.  What is measured is the program's work per operation;
    a gain that needs a second core does not show.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _append_to_report(out: Path, run: dict, trace: dict | None) -> None:
    """Add the run to the report file, and its spans to trace.json beside it."""
    report = {"benchmark": "e2e", "runs": []}
    if out.exists():
        report = json.loads(out.read_text())
    report["runs"].append(run)
    out.write_text(json.dumps(report, indent=1))
    if trace is not None:
        trace_file = out.with_name("trace.json")
        traces = json.loads(trace_file.read_text()) if trace_file.exists() else {}
        traces[run["workload"]] = trace
        trace_file.write_text(json.dumps(traces))


def run_every_workload(arguments) -> int:
    """This command once per workload, each in a process of its own."""
    summaries = {}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(arguments.seed), "--seconds", str(arguments.seconds),
            "--trace", str(arguments.trace),
        ]  # fmt: skip
        if arguments.smoke:
            command.append("--smoke")
        if arguments.out is not None:
            command += ["--out", str(arguments.out)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.splitlines()
        if completed.returncode not in (0, 1) or not lines:
            return completed.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        summaries[name] = json.loads(lines[-1])
    summary = {
        "correct": all(each["correct"] for each in summaries.values()),
        "attempted": sum(each["attempted"] for each in summaries.values()),
        "failed": sum(each["failed"] for each in summaries.values()),
        "metrics": {
            f"{workload}.{name}": metric
            for workload, each in summaries.items()
            for name, metric in each["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), default=None, help="default: all"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--smoke", action="store_true", help="one cycle per workload")
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="report file (JSON); runs are appended, so a loop builds a run set",
    )
    arguments = parser.parse_args(argv)
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2
    if arguments.workload is None:
        return run_every_workload(arguments)
    pin_to_one_cpu()
    # A shell that starts this in the background leaves SIGINT ignored, and
    # the server would inherit that; Ctrl-C is how it is asked to stop.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    work = ROOT / ".bench_work" / f"{arguments.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = run_workload(
            WORKLOADS[arguments.workload], arguments.seed,
            0.0 if arguments.smoke else arguments.seconds,  # 0: one cycle
            bool(arguments.trace), arguments.smoke, work,
        )  # fmt: skip
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it
    trace = {"layers": run.pop("layers"), "spans": run.pop("spans")}
    _print_run(run)
    if arguments.out is not None:
        _append_to_report(arguments.out, run, trace if arguments.trace else None)
    summary = {key: run[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
