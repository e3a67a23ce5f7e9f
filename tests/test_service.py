"""Tests for the concurrent query service layer.

Covers the :class:`repro.concurrency.ReadWriteLock` primitive, the
thread-safety of :class:`repro.api.GraphDatabase` (the multi-threaded
hammer test: N threads interleaving ``query`` with single-edge
``apply`` adds and removes while every served answer must match the
single-threaded oracle for the graph version it carries), the
``query_batch`` API with its batch-wide scan memo, and the
frozen-relation assertion.

The hammer's thread count is read from ``REPRO_STRESS_THREADS``
(default 4) so CI can dial the stress level explicitly.
"""

from __future__ import annotations

import os
import random
import sys
import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import relation as rel
from repro.api import GraphDatabase
from repro.concurrency import BoundedLRU, ReadWriteLock
from repro.config import ServiceConfig
from repro.engine.operators import ScanMemo
from repro.engine.plan import IdentityPlan
from repro.errors import ExecutionError, ReproError
from repro.graph.examples import FIGURE1_EDGES, figure1_graph
from repro.relation import Order, Relation
from repro.rpq.semantics import eval_query
from repro.write import Mutation, delta

from tests.strategies import rpq_asts

STRESS_THREADS = int(os.environ.get("REPRO_STRESS_THREADS", "4"))


@contextmanager
def forced_path(pure_python: bool):
    """Route kernels through one implementation path for the duration."""
    old_flag, old_min = rel._FORCE_PURE_PYTHON, rel._VECTOR_MIN
    rel._FORCE_PURE_PYTHON = pure_python
    if not pure_python:
        rel._VECTOR_MIN = 0
    try:
        yield
    finally:
        rel._FORCE_PURE_PYTHON, rel._VECTOR_MIN = old_flag, old_min


BOTH_PATHS = pytest.mark.parametrize(
    "pure_python", [False, True], ids=["vectorized", "scalar"]
)


def _run_threads(targets) -> list[BaseException]:
    """Run one thread per target, collecting exceptions instead of dying."""
    errors: list[BaseException] = []
    errors_lock = threading.Lock()

    def wrap(target):
        def runner():
            try:
                target()
            except BaseException as exc:  # noqa: BLE001 - test harness
                with errors_lock:
                    errors.append(exc)
        return runner

    threads = [threading.Thread(target=wrap(t)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


# -- ReadWriteLock -------------------------------------------------------------


class TestReadWriteLock:
    def test_readers_run_concurrently(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read_locked():
                inside.wait()  # both readers must be inside at once

        assert _run_threads([reader, reader]) == []

    def test_writer_excludes_readers_and_writers(self):
        lock = ReadWriteLock()
        active = []
        seen = []

        def writer(tag):
            def run():
                with lock.write_locked():
                    active.append(tag)
                    assert len(active) == 1, "two writers active at once"
                    active.remove(tag)
                    seen.append(tag)
            return run

        assert _run_threads([writer(i) for i in range(8)]) == []
        assert sorted(seen) == list(range(8))

    def test_writer_preference_over_new_readers(self):
        lock = ReadWriteLock()
        order = []
        reader_in = threading.Event()
        writer_waiting = threading.Event()

        def first_reader():
            with lock.read_locked():
                reader_in.set()
                # Hold until the writer is provably queued.
                assert writer_waiting.wait(timeout=5)

        def writer():
            assert reader_in.wait(timeout=5)
            with lock.write_locked():
                order.append("writer")

        def late_reader():
            assert writer_waiting.wait(timeout=5)
            with lock.read_locked():
                order.append("late_reader")

        threads = [
            threading.Thread(target=first_reader),
            threading.Thread(target=writer),
            threading.Thread(target=late_reader),
        ]
        for thread in threads:
            thread.start()
        assert reader_in.wait(timeout=5)
        while not lock._writers_waiting:  # writer queued behind reader
            pass
        writer_waiting.set()
        for thread in threads:
            thread.join()
        # The queued writer beat the reader that arrived after it.
        assert order == ["writer", "late_reader"]


# -- BoundedLRU ------------------------------------------------------------------


class TestBoundedLRU:
    CALLS = ("get", "put", "clear")

    @settings(max_examples=300, deadline=None)
    @given(
        max_entries=st.integers(0, 4),
        max_weight=st.integers(0, 8),
        operations=st.lists(
            st.tuples(st.sampled_from(CALLS), st.integers(0, 5), st.integers(0, 6))
        ),
    )
    def test_matches_a_dict_and_list_model(self, max_entries, max_weight, operations):
        cache = BoundedLRU(max_entries, max_weight)
        order, held = [], {}  # keys, least recently used first; key -> weight
        hits = misses = 0
        for operation, key, weight in operations:
            if operation == "clear":
                cache.clear()
                order, held, touched = [], {}, False
            elif operation == "get":
                touched = key in held
                assert cache.get(key) == ((key, held[key]) if touched else None)
                hits, misses = hits + touched, misses + (not touched)
            else:
                cache.put(key, (key, weight), weight)
                touched = weight <= max_weight  # a heavier value is refused
                if touched:
                    held[key] = weight
            if touched:
                order = [other for other in order if other != key] + [key]
            while len(order) > max_entries or sum(held.values()) > max_weight:
                del held[order.pop(0)]
            assert list(cache._data) == order and len(cache) <= max_entries
            assert cache.weight == sum(held.values()) <= max_weight
            assert (cache.hits, cache.misses) == (hits, misses)

    def test_caps_hold_under_four_threads(self):
        cache, found = BoundedLRU(max_entries=8, max_weight=20), []

        def hammer(rng: random.Random) -> None:
            for _ in range(3000):
                key = rng.randrange(16)
                if rng.random() < 0.5:
                    cache.put(key, key, rng.randrange(7))
                else:
                    found.append(cache.get(key))
                with cache._lock:
                    held = sum(weight for _, weight in cache._data.values())
                    assert len(cache._data) <= 8 and cache.weight == held <= 20

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            seeded = [random.Random(seed) for seed in range(4)]
            assert _run_threads([lambda rng=rng: hammer(rng) for rng in seeded]) == []
        finally:
            sys.setswitchinterval(interval)
        assert cache.hits + cache.misses == len(found)
        assert set(found) <= {None, *range(16)}


# -- frozen relations and the scan memo ----------------------------------------


class TestFrozenRelations:
    def test_freeze_then_mutate_fails_loudly(self):
        relation = Relation.from_pairs([(1, 2), (3, 4)], Order.BY_SRC)
        assert not relation.frozen
        relation.freeze()
        assert relation.frozen
        relation.check_frozen()  # intact: no error
        relation.src.append(9)  # the realistic corruption: a shared append
        with pytest.raises(ExecutionError, match="frozen relation mutated"):
            relation.check_frozen()

    def test_memo_freezes_stored_relations_and_checks_on_hit(self):
        memo = ScanMemo()
        plan = IdentityPlan()
        relation = Relation.from_pairs([(0, 0)], Order.BY_SRC)
        memo.store(plan, relation)
        assert relation.frozen
        assert memo.lookup(plan) is relation
        relation.src.append(7)
        with pytest.raises(ExecutionError):
            memo.lookup(plan)


# -- every read entry point is a reader ----------------------------------------


class TestNavigationReadsHoldTheReadLock:
    """``query_from`` / ``query_pair`` / ``witness`` read the graph and
    the index like ``query()`` does, so a writer must exclude them too."""

    @pytest.mark.parametrize(
        "call, expected",
        [
            (
                lambda db: db.query_from("sue", "knows/worksFor"),
                lambda graph: {
                    b for a, b in eval_query(graph, "knows/worksFor") if a == "sue"
                },
            ),
            (
                lambda db: db.query_pair("kim", "sue", "supervisor/^worksFor"),
                lambda graph: ("kim", "sue")
                in eval_query(graph, "supervisor/^worksFor"),
            ),
            (
                lambda db: db.witness("kim", "sue", "supervisor/^worksFor").length,
                lambda graph: 2,
            ),
        ],
        ids=["query_from", "query_pair", "witness"],
    )
    def test_blocked_by_a_writer_then_answers(self, call, expected):
        database = GraphDatabase.from_edges(FIGURE1_EDGES, k=2)
        answers = []
        reader = threading.Thread(target=lambda: answers.append(call(database)))
        with database._lock.write_locked():
            reader.start()
            reader.join(timeout=0.2)
            assert reader.is_alive() and not answers
        reader.join(timeout=5)
        assert not reader.is_alive()
        assert answers == [expected(database.graph)]


# -- the GraphDatabase mutation API --------------------------------------------


class TestServiceMutations:
    def test_add_edge_returns_version_and_serves_fresh_answers(self):
        database = GraphDatabase.from_edges(FIGURE1_EDGES, k=2)
        before = database.query("knows")
        result = database.apply(Mutation.add("ada", "knows", "kim"))
        version = result.version
        assert result.changed and version > before.version
        after = database.query("knows")
        assert after.version == version
        assert ("ada", "kim") in after.pairs
        assert set(after.pairs) == eval_query(database.graph, "knows")

    def test_duplicate_add_is_a_noop(self):
        database = GraphDatabase.from_edges(FIGURE1_EDGES, k=2)
        version = database.graph.version
        # The edge exists.
        assert not database.apply(Mutation.add("ada", "knows", "zoe")).changed
        assert database.graph.version == version

    def test_remove_edge_round_trip(self):
        database = GraphDatabase.from_edges(FIGURE1_EDGES, k=2)
        baseline = database.query("knows/worksFor").pairs
        assert database.apply(Mutation.remove("zoe", "worksFor", "ada")).changed
        mutated = database.query("knows/worksFor")
        assert set(mutated.pairs) == eval_query(
            database.graph, "knows/worksFor"
        )
        assert database.apply(Mutation.add("zoe", "worksFor", "ada")).changed
        assert database.query("knows/worksFor").pairs == baseline

    def test_remove_missing_edge_is_a_noop(self):
        database = GraphDatabase.from_edges(FIGURE1_EDGES, k=2)
        assert not database.apply(Mutation.remove("ada", "knows", "ada")).changed

    def test_failed_rebuild_fails_queries_cleanly_until_healed(
        self, monkeypatch
    ):
        """A rebuild that dies mid-mutation must not leave queries
        answering from pre-mutation state (or crashing on a half
        swapped index) — they raise PathIndexError until a rebuild
        succeeds."""
        from repro.errors import PathIndexError
        from repro.indexes.pathindex import PathIndex

        # A zero dirty-pair budget, so the mutation rebuilds; the
        # failure is injected into the one loader every shard is built
        # through.
        monkeypatch.setattr(delta, "MAX_DIRTY_PAIRS", 0)
        database = GraphDatabase.from_edges(FIGURE1_EDGES, config=ServiceConfig(k=2))
        original_build = PathIndex.from_relations

        def exploding_build(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(PathIndex, "from_relations", exploding_build)
        with pytest.raises(OSError):
            database.apply(Mutation.add("ada", "knows", "kim"))
        # The graph is mutated and the index cleared: queries retry the
        # rebuild (and fail loudly) rather than serving stale answers.
        with pytest.raises(OSError):
            database.query("knows", use_cache=False)
        # A reader that slipped past _ensure_built before the failure
        # gets the clean "unavailable" error, not an AttributeError.
        with pytest.raises(PathIndexError, match="index unavailable"):
            database._require_index()
        # Once building works again, the service self-heals.
        monkeypatch.setattr(PathIndex, "from_relations", original_build)
        fresh = database.query("knows", use_cache=False)
        assert set(fresh.pairs) == eval_query(database.graph, "knows")
        assert ("ada", "kim") in fresh.pairs  # the mutation is visible

    def test_failed_disk_rebuild_recovers_on_retry(self, tmp_path, monkeypatch):
        """An image write that fails inside a group fails the group
        loudly, and the next build writes every image again — the
        database is never wedged by the failed write."""
        from repro.indexes import pathindex

        database = GraphDatabase.from_edges(
            FIGURE1_EDGES,
            k=2,
            config=ServiceConfig(backend="disk", index_path=str(tmp_path / "index.db")),
        )
        original = pathindex._write_image

        def exploding(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(pathindex, "_write_image", exploding)
        with pytest.raises(OSError):
            database.apply(Mutation.add("ada", "knows", "kim"))
        monkeypatch.setattr(pathindex, "_write_image", original)
        database.build_index()  # must not be wedged by the failed write
        assert set(database.query("knows").pairs) == eval_query(
            database.graph, "knows"
        )
        database.close()

    @pytest.mark.parametrize("backend", ["memory", "disk", "compressed"])
    def test_mutation_rebuild_works_on_every_backend(self, backend, tmp_path):
        """Adding and removing an edge leaves every backend's answers
        equal to the oracle, whether the group patched or rebuilt."""
        index_path = str(tmp_path / "index.db")  # read by disk only
        with GraphDatabase.from_edges(
            FIGURE1_EDGES,
            k=2,
            config=ServiceConfig(backend=backend, index_path=index_path),
        ) as database:
            assert database.apply(Mutation.add("ada", "knows", "kim")).changed
            assert set(database.query("knows").pairs) == eval_query(
                database.graph, "knows"
            )
            assert database.apply(Mutation.remove("ada", "knows", "kim")).changed
            assert set(database.query("knows").pairs) == eval_query(
                database.graph, "knows"
            )


# -- query_batch ---------------------------------------------------------------


class TestQueryBatch:
    QUERIES = [
        "knows",
        "knows/worksFor",
        "supervisor/^worksFor",
        "knows{1,3}",
        "knows",  # duplicate on purpose
        "(knows|worksFor)/knows",
    ]

    #: What one executed query adds to ``stats()`` besides cache traffic.
    EXECUTION_COUNTERS = (
        "scan_memo_hits",
        "scan_memo_misses",
        "shards_scanned",
        "shards_pruned",
        "disjuncts_pruned",
    )

    def test_matches_per_query_results_in_order(self):
        """A batch answers like a ``query()`` loop — and like a prepared
        run: the three surfaces share one path from execution to an
        accounted result, so they agree on the answer and move the
        engine counters by the same amounts, scattered or not."""
        for shards in (1, 4):
            database = GraphDatabase.from_edges(
                FIGURE1_EDGES, k=2, config=ServiceConfig(shards=shards)
            )

            def observed(run):
                before = database.stats().as_dict()
                result = run()
                after = database.stats().as_dict()
                moved = [after[key] - before[key] for key in self.EXECUTION_COUNTERS]
                return (result.pairs, result.method, result.version), moved

            batch = database.query_batch(self.QUERIES, use_cache=False)
            assert len(batch) == len(self.QUERIES)
            for text, result in zip(self.QUERIES, batch):
                single = observed(lambda: database.query(text, use_cache=False))
                assert result.query == text
                assert result.pairs == single[0][0]
                assert result.version == database.graph.version
                assert single == observed(
                    lambda: database.query_batch([text, text], use_cache=False)[0]
                )
                assert single == observed(database.prepare(text).bind().run)
                assert any(single[1]), text

    def test_duplicates_share_one_execution(self):
        database = GraphDatabase.from_edges(FIGURE1_EDGES, k=2)
        batch = database.query_batch(["knows"] * 5, use_cache=False)
        assert len({id(result) for result in batch}) == 1

    def test_batch_shares_scans_across_distinct_queries(self):
        """Two naive plans share their leading join subtree; with the
        batch-wide memo the second query gets it for free."""
        database = GraphDatabase.from_edges(FIGURE1_EDGES, k=2)
        before = database.stats().as_dict()
        database.query_batch(
            ["knows/worksFor", "knows/worksFor/knows"],
            method="naive",
            use_cache=False,
        )
        info = database.stats().as_dict()
        assert info["scan_memo_hits"] > before["scan_memo_hits"]

    def test_batch_results_land_in_the_query_cache(self):
        database = GraphDatabase.from_edges(FIGURE1_EDGES, k=2)
        database.query_batch(["knows", "worksFor"])
        assert database.query("knows").cached
        assert database.query("worksFor").cached

    def test_batch_serves_cached_answers(self):
        database = GraphDatabase.from_edges(FIGURE1_EDGES, k=2)
        primed = database.query("knows")
        batch = database.query_batch(["knows"])
        assert batch[0].cached
        assert batch[0].pairs == primed.pairs

    def test_workers_knob_is_gone_not_ignored(self):
        database = GraphDatabase.from_edges(FIGURE1_EDGES, k=2)
        with pytest.raises(TypeError):
            database.query_batch(self.QUERIES, workers=2)
        with pytest.raises(TypeError):
            ServiceConfig(shard_build_workers=2)
        with pytest.raises(TypeError):
            ServiceConfig(shard_query_workers=2)

    def test_fallback_queries_share_the_batch_memo(self):
        """Unbounded stars take the hybrid fallback; the starred base
        repeats across the batch and must be computed once."""
        database = GraphDatabase.from_edges(FIGURE1_EDGES, k=2)
        queries = ["(knows|worksFor)*", "(knows|worksFor)*/supervisor"]
        batch = database.query_batch(queries, max_disjuncts=4, use_cache=False)
        for text, result in zip(queries, batch):
            assert result.report is not None and result.report.used_fallback
            assert set(result.pairs) == eval_query(database.graph, text)

    def test_empty_batch(self):
        database = GraphDatabase.from_edges(FIGURE1_EDGES, k=2)
        assert database.query_batch([]) == []

    def test_empty_batch_still_validates_the_method(self):
        database = GraphDatabase.from_edges(FIGURE1_EDGES, k=2)
        with pytest.raises(ReproError) as single:
            database.query("knows", method="nope")
        with pytest.raises(type(single.value)):
            database.query_batch([], method="nope")

    @BOTH_PATHS
    @settings(max_examples=15, deadline=None)
    @given(nodes=st.lists(rpq_asts(allow_star=True), min_size=1, max_size=4))
    def test_batch_pins_to_query_property(self, pure_python, nodes):
        """Property: query_batch == a query() loop on hypothesis-drawn
        query mixes, on both the numpy and pure-Python kernel paths."""
        with forced_path(pure_python):
            database = GraphDatabase(figure1_graph(), k=2)
            batch = database.query_batch(nodes, max_disjuncts=6)
            for node, result in zip(nodes, batch):
                single = database.query(node, max_disjuncts=6, use_cache=False)
                assert result.pairs == single.pairs, str(node)


# -- the multi-threaded hammer -------------------------------------------------


class TestConcurrentHammer:
    """N threads interleave queries with single-edge ``apply`` writes.

    Every answer must match the single-threaded oracle for the graph
    version it was served under — no torn LRU entries, no answers
    computed against one index and keyed under another version.
    """

    #: Mutators toggle only these extra edges (labels stay alive — the
    #: base graph keeps other edges of every label), one disjoint slice
    #: per mutator so each thread knows which of its edges are present.
    EXTRA_EDGES = (
        ("ada", "knows", "kim"),
        ("sue", "knows", "ada"),
        ("kim", "worksFor", "acme"),
        ("zoe", "knows", "liz"),
        ("liz", "worksFor", "acme"),
        ("jan", "knows", "zoe"),
    )
    QUERIES = (
        "knows",
        "knows/worksFor",
        "supervisor/^worksFor",
        "(knows|worksFor){1,2}",
    )

    def test_hammer_serves_only_oracle_answers(self):
        database = GraphDatabase.from_edges(
            FIGURE1_EDGES, k=2, config=ServiceConfig(query_cache_size=8)
        )
        initial_version = database.graph.version
        op_log: list[tuple[int, str, tuple[str, str, str]]] = []
        log_lock = threading.Lock()
        answers: list[tuple[str, int, frozenset]] = []
        answers_lock = threading.Lock()

        def mutator(slice_edges, seed):
            def run():
                rng = random.Random(seed)
                present: set = set()
                for _ in range(10):
                    edge = rng.choice(slice_edges)
                    if edge in present:
                        result = database.apply(Mutation.remove(*edge))
                        operation = "remove"
                        present.discard(edge)
                    else:
                        result = database.apply(Mutation.add(*edge))
                        operation = "add"
                        present.add(edge)
                    assert result.changed
                    version = result.version
                    with log_lock:
                        op_log.append((version, operation, edge))
            return run

        def querier(seed):
            def run():
                rng = random.Random(seed)
                local = []
                for _ in range(20):
                    text = rng.choice(self.QUERIES)
                    result = database.query(
                        text, use_cache=rng.random() < 0.7
                    )
                    local.append((text, result.version, result.pairs))
                with answers_lock:
                    answers.extend(local)
            return run

        mutator_count = 2
        slices = [self.EXTRA_EDGES[0::2], self.EXTRA_EDGES[1::2]]
        targets = [
            mutator(slices[i], seed=100 + i) for i in range(mutator_count)
        ] + [querier(seed=i) for i in range(STRESS_THREADS)]
        errors = _run_threads(targets)
        assert errors == [], errors

        # Reconstruct the exact edge set at every served version.  The
        # write lock serializes mutations, so version order is
        # application order; queries can only observe versions at the
        # boundaries of completed mutations.
        states: dict[int, frozenset] = {}
        current = set(FIGURE1_EDGES)
        states[initial_version] = frozenset(current)
        for version, operation, edge in sorted(op_log):
            if operation == "add":
                current.add(edge)
            else:
                current.discard(edge)
            states[version] = frozenset(current)

        assert answers, "no answers recorded"
        oracle_cache: dict[tuple, set] = {}
        from repro.graph.graph import Graph

        for text, version, pairs in answers:
            assert version in states, (
                f"answer served under unknown version {version}"
            )
            key = (version, text)
            if key not in oracle_cache:
                graph = Graph.from_edges(sorted(states[version]))
                oracle_cache[key] = eval_query(graph, text)
            assert set(pairs) == oracle_cache[key], (
                f"{text!r} at version {version} diverged from the oracle"
            )

    def test_concurrent_readers_on_the_disk_backend(self, tmp_path):
        """Concurrent readers of a disk-backed database each get the
        oracle's answer."""
        database = GraphDatabase.from_edges(
            FIGURE1_EDGES,
            k=2,
            config=ServiceConfig(backend="disk", index_path=str(tmp_path / "index.db")),
        )
        expected = {
            text: eval_query(database.graph, text) for text in self.QUERIES
        }

        def querier(seed):
            def run():
                rng = random.Random(seed)
                for _ in range(15):
                    text = rng.choice(self.QUERIES)
                    result = database.query(text, use_cache=False)
                    assert set(result.pairs) == expected[text], text
            return run

        errors = _run_threads([querier(i) for i in range(STRESS_THREADS)])
        assert errors == [], errors
        database.close()

    def test_concurrent_batches_and_mutations(self):
        """query_batch from several caller threads (the only concurrency
        a scan memo ever sees: each call owns its memo) under concurrent
        mutation: every batch is served against one consistent version."""
        database = GraphDatabase.from_edges(
            FIGURE1_EDGES, k=2, config=ServiceConfig(query_cache_size=8)
        )
        collected: list[list] = []
        collected_lock = threading.Lock()

        def mutator():
            for _ in range(6):
                assert database.apply(Mutation.add("ada", "knows", "kim")).changed
                assert database.apply(Mutation.remove("ada", "knows", "kim")).changed

        def batcher(seed):
            def run():
                rng = random.Random(seed)
                for _ in range(5):
                    batch = database.query_batch(
                        ["knows", "knows/worksFor", "knows"],
                        use_cache=rng.random() < 0.5,
                    )
                    with collected_lock:
                        collected.append(batch)
            return run

        errors = _run_threads(
            [mutator] + [batcher(i) for i in range(STRESS_THREADS)]
        )
        assert errors == [], errors
        for batch in collected:
            versions = {result.version for result in batch}
            assert len(versions) == 1, "batch spanned graph versions"
            assert batch[0].pairs == batch[2].pairs  # duplicate query
