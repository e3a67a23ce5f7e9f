"""The write path: unified ``apply()``, group commit, WAL replay, patching.

The contracts under test, in the order the module covers them:

* **value types** — ``Mutation`` / ``MutationBatch`` / ``ApplyResult``
  validate eagerly and round-trip their wire forms;
* **group commit** — with no coalescing window, the batches that queue
  while a leader commits go out together as the next group;
* **exactness** — any interleaving of ``apply()`` batches against the
  delta-patching engine, at one shard or many, answers exactly like
  the ``rpq/semantics`` reference evaluator over a graph kept in step
  (the hypothesis property), including under concurrent writers;
* **the selectivity denominator** — ``|paths_k(G)|`` is maintained
  from each group's endpoints, never recounted per group, and stays
  exactly what a count from scratch gives, and the histogram exactly
  a freshly built database's (hypothesis property over in-process
  patching, the ball-rebuild fallback and the coordinator); a failed
  absorb discards the maintained sizes with the index;
* **durability** — the mutation log survives torn tails, a crash
  injected at the ``mutlog.flush`` seam fails the group with nothing
  applied, and reopening the log replays exactly the acknowledged
  batches (never a double-apply);
* **the serve stack** — the coordinator absorbs commit groups as patch
  broadcasts, restarts workers by journal replay (zero full-graph
  transfers), and the HTTP ``/apply`` route + clients + CLI speak the
  same one wire shape.
"""

from __future__ import annotations

import copy
import gc
import io
import random
import sys
import threading
import warnings
from contextlib import contextmanager

import pytest
from concurrent.futures import BrokenExecutor
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.api import GraphDatabase
from repro.client import Client
from repro.config import ServiceConfig
from repro.errors import ShardUnavailableError, ValidationError
from repro.faults import FaultPlan, FaultRule, armed, disarmed
from repro.graph import stats as graph_stats
from repro.graph.graph import Graph
from repro.graph.stats import count_paths_k
from repro.indexes.builder import enumerate_label_paths
from repro.indexes.pathindex import PathIndex
from repro.rpq.semantics import eval_query
from repro.serve import CoordinatorDatabase
from repro.serve.coordinator import WorkerStub
from repro.serve.server import serve_in_thread
from repro.write import ApplyResult, Mutation, MutationBatch, MutationLog, delta
from repro.write.commit import GroupCommitter

QUERIES = ("a/b", "b/a", "a/b/c", "(a|b)/c")


def _edges(seed: int, nodes: int = 40, count: int = 160):
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(nodes)]
    return [
        (rng.choice(names), rng.choice("abc"), rng.choice(names))
        for _ in range(count)
    ]


def _mutations(seed: int, count: int, nodes: int = 40):
    """A reproducible mix of adds and removes over the ``_edges`` names."""
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(nodes)]
    return [
        (
            Mutation.add if rng.random() < 0.7 else Mutation.remove
        )(rng.choice(names), rng.choice("abc"), rng.choice(names))
        for _ in range(count)
    ]


# -- value types ---------------------------------------------------------------


class TestMutationTypes:
    def test_validation_is_eager(self):
        with pytest.raises(ValidationError):
            Mutation("upsert", "a", "b", "c")
        with pytest.raises(ValidationError):
            Mutation.add("", "b", "c")
        with pytest.raises(ValidationError):
            Mutation.add("a", "b/c", "d")

    def test_wire_round_trip(self):
        batch = MutationBatch.of(
            Mutation.add("a", "x", "b"), Mutation.remove("b", "y", "a")
        )
        assert MutationBatch.from_wire(batch.as_wire()) == batch
        assert MutationBatch.from_json_bytes(batch.as_json_bytes()) == batch

    def test_coerce_accepts_all_three_shapes(self):
        one = Mutation.add("a", "x", "b")
        assert list(MutationBatch.coerce(one)) == [one]
        assert list(MutationBatch.coerce([one, one])) == [one, one]
        batch = MutationBatch.of(one)
        assert MutationBatch.coerce(batch) is batch

    def test_apply_result_round_trip(self):
        result = ApplyResult(
            applied=2, noops=1, version=9, mode="patch", patched_shards=(0, 2)
        )
        assert ApplyResult.from_wire(result.as_wire()) == result
        assert result.changed
        assert not ApplyResult(0, 3, 9, "noop").changed


# -- group commit --------------------------------------------------------------


class TestGroupCommitter:
    def test_batches_queued_behind_a_leader_commit_as_one_group(self):
        """No window: the first batch commits alone, and every batch that
        queued while it committed goes out together as the next group."""
        submitters = 6
        started, release = threading.Event(), threading.Event()
        groups: list[list[str]] = []

        def commit(batches):
            groups.append([batch.mutations[0].source for batch in batches])
            if len(groups) == 1:
                started.set()
                assert release.wait(10)
            return [
                ApplyResult(applied=1, noops=0, version=int(name[1:]), mode="noop")
                for name in groups[-1]
            ]

        committer = GroupCommitter(commit)
        results: dict[int, ApplyResult] = {}

        def submit(number: int) -> None:
            batch = MutationBatch.of(Mutation.add(f"n{number}", "a", "m"))
            results[number] = committer.submit(batch)

        threads = [threading.Thread(target=submit, args=(0,))]
        threads[0].start()
        assert started.wait(10)
        threads += [
            threading.Thread(target=submit, args=(number,))
            for number in range(1, submitters)
        ]
        for thread in threads[1:]:
            thread.start()
        with committer._cond:
            assert committer._cond.wait_for(
                lambda: len(committer._queue) == submitters - 1, timeout=10
            )
        release.set()
        for thread in threads:
            thread.join(10)
        assert [len(group) for group in groups] == [1, submitters - 1]
        assert committer.groups == 2
        assert committer.coalesced == submitters - 2
        versions = {number: result.version for number, result in results.items()}
        assert versions == {number: number for number in range(submitters)}


# -- engine exactness ----------------------------------------------------------


class _Oracle:
    """The reference evaluator over a graph kept in step with the database.

    No index at all — ``rpq/semantics`` walks the graph — which is what
    makes it a ground truth for every way an index absorbs a group.
    """

    def __init__(self, edges):
        self.graph = Graph.from_edges(edges)

    def apply(self, batch):
        for mutation in MutationBatch.coerce(batch):
            mutation.apply_to(self.graph)

    def answer(self, query):
        return frozenset(eval_query(self.graph, query))

    def answers(self):
        return {query: self.answer(query) for query in QUERIES}


class TestApplyEngine:
    def test_patched_groups_match_rebuilt_oracle(self):
        edges = _edges(11)
        db = GraphDatabase.from_edges(edges, config=ServiceConfig(k=2, shards=4))
        oracle = _Oracle(edges)
        try:
            modes = set()
            for start in range(0, 24, 6):
                batch = MutationBatch.of(*_mutations(start, 6))
                result = db.apply(batch)
                oracle.apply(batch)
                modes.add(result.mode)
                for query, want in oracle.answers().items():
                    assert db.query(query, use_cache=False).pairs == want
            assert "patch" in modes, f"no group was delta-patched: {modes}"
            assert db.stats().write.patched > 0
        finally:
            db.close()

    def test_new_label_falls_back_to_rebuild(self):
        db = GraphDatabase.from_edges(_edges(3), config=ServiceConfig(k=2, shards=4))
        try:
            result = db.apply(Mutation.add("n0", "zzz", "n1"))
            assert result.mode == "rebuild"
            assert db.query("zzz").pairs
        finally:
            db.close()

    def test_pure_noop_group_touches_nothing(self):
        edges = _edges(4)
        db = GraphDatabase.from_edges(edges, config=ServiceConfig(k=2, shards=2))
        try:
            version = db.graph.version
            result = db.apply(Mutation.add(*edges[0]))
            assert result.mode == "noop" and not result.changed
            assert result.noops == 1 and db.graph.version == version
        finally:
            db.close()

    def test_concurrent_writers_coalesce_and_stay_exact(self):
        edges = _edges(6)
        db = GraphDatabase.from_edges(edges, config=ServiceConfig(k=2, shards=4))
        oracle = _Oracle(edges)
        # Adds only: insertions commute and are idempotent, so the
        # final graph is interleaving-independent.
        mutations = [
            m for m in _mutations(99, 48) if m.kind == "add"
        ][:32]
        errors = []

        def writer(chunk):
            try:
                for mutation in chunk:
                    db.apply(mutation)
            except BaseException as error:  # surfaced after join
                errors.append(error)

        try:
            threads = [
                threading.Thread(target=writer, args=(mutations[i::8],))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            oracle.apply(mutations)  # order-independent: adds/removes commute
            stats = db.stats().write
            assert stats.groups + stats.patched + stats.rebuilt > 0
            for query, want in oracle.answers().items():
                assert db.query(query, use_cache=False).pairs == want
        finally:
            db.close()

    def test_rebalance_preserves_answers(self):
        edges = _edges(7)
        db = GraphDatabase.from_edges(edges, config=ServiceConfig(k=2, shards=4))
        oracle = _Oracle(edges)
        try:
            moved = db.rebalance(skew_threshold=0.1, candidates=4)
            assert isinstance(moved, bool)
            for query, want in oracle.answers().items():
                assert db.query(query, use_cache=False).pairs == want
        finally:
            db.close()


class TestOneShardAbsorbs:
    """``shards=1`` takes the same write path as any other count."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        ("backend", "mode"),
        [("memory", "patch"), ("disk", "rebuild"), ("compressed", "rebuild")],
    )
    def test_mode_and_answers_by_backend(self, backend, mode, k, tmp_path):
        index_path = tmp_path / "index.db"
        extra = {"index_path": str(index_path)} if backend == "disk" else {}
        edges = _edges(31, nodes=20, count=60)
        config = ServiceConfig(k=k, shards=1, backend=backend, **extra)
        db = GraphDatabase.from_edges(edges, config=config)
        oracle = _Oracle(edges)
        try:
            modes = set()
            for seed in range(3):
                batch = MutationBatch.of(*_mutations(seed, 4, nodes=20))
                result = db.apply(batch)
                oracle.apply(batch)
                modes.add(result.mode)
                for query, want in oracle.answers().items():
                    assert db.query(query, use_cache=False).pairs == want
            assert modes - {"noop"} == {mode}
            write = db.stats().write
            assert (write.patched > 0) == (mode == "patch")
            assert (write.rebuilt > 0) == (mode == "rebuild")
            if backend == "disk":
                # One shard is still a shard: its file carries the suffix.
                assert not index_path.exists()
                assert index_path.with_name("index.db.shard0").exists()
        finally:
            db.close()

    def test_one_worker_coordinator_takes_the_plain_executor(self):
        edges = _edges(33)
        db = CoordinatorDatabase.from_edges(
            edges, config=ServiceConfig(k=2, shards=1)
        )
        oracle = _Oracle(edges)
        try:
            assert db.index.shard_count == 1
            batch = MutationBatch.of(*_mutations(34, 6))
            assert db.apply(batch).mode == "patch"
            oracle.apply(batch)
            for query in (*QUERIES, "(a|b)*/c"):
                result = db.query(query, use_cache=False)
                assert result.pairs == oracle.answer(query)
                # One shard does not scatter: no slice was ever counted.
                assert result.report.shards_scanned == 0
            assert db.stats().scatter.shards_scanned == 0
            # ...and still retries a scan the wire dropped (a kept slice
            # makes no RPC, so the slices go first).
            db.cache_clear()
            plan = FaultPlan([FaultRule("rpc.send", "transient", times=1)])
            with armed(plan):
                result = db.query("a/b", use_cache=False)
            assert plan.fired == 1 and result.pairs == oracle.answer("a/b")
        finally:
            db.close()


@st.composite
def batch_plans(draw):
    """A starting edge list plus batches of mutations over few names."""
    names = [f"n{i}" for i in range(6)]
    edge = st.tuples(
        st.sampled_from(names), st.sampled_from("ab"), st.sampled_from(names)
    )
    start = draw(st.lists(edge, min_size=2, max_size=12))
    batches = draw(
        st.lists(
            st.lists(
                st.tuples(st.booleans(), edge), min_size=1, max_size=4
            ),
            min_size=1,
            max_size=3,
        )
    )
    return start, batches


class TestInterleavingProperty:
    @settings(max_examples=20, deadline=None)
    @given(plan=batch_plans(), shards=st.sampled_from([1, 2, 3]))
    def test_any_batch_sequence_matches_oracle(self, plan, shards):
        start, batches = plan
        db = GraphDatabase.from_edges(
            start, config=ServiceConfig(k=2, shards=shards)
        )
        oracle = _Oracle(start)
        try:
            for spec in batches:
                batch = MutationBatch.of(
                    *(
                        (Mutation.add if add else Mutation.remove)(*edge)
                        for add, edge in spec
                    )
                )
                db.apply(batch)
                oracle.apply(batch)
                for query in ("a/b", "b/a", "a/a"):
                    assert db.query(query, use_cache=False).pairs == oracle.answer(
                        query
                    )
        finally:
            db.close()


# -- |paths_k(G)| maintained across commit groups ------------------------------

#: How the sharded index absorbs a group: delta patches in process, the
#: ball rebuild every group overflows into, or the worker broadcast.
ABSORBERS = ("patch", "fallback", "coordinator")


@contextmanager
def _opened(absorber: str, edges, k: int, shards: int):
    """A database over ``edges`` absorbing groups ``absorber``'s way."""
    cls = CoordinatorDatabase if absorber == "coordinator" else GraphDatabase
    with pytest.MonkeyPatch.context() as patch:
        if absorber == "fallback":
            # A zero dirty-pair budget: every group overflows into the rebuild.
            patch.setattr(delta, "MAX_DIRTY_PAIRS", 0)
        db = cls.from_edges(edges, config=ServiceConfig(k=k, shards=shards))
        try:
            yield db
        finally:
            db.close()


def _commit(db: GraphDatabase, group) -> None:
    """One commit group of one or more batches, as the committer runs it."""
    db._commit_group(
        [
            MutationBatch.of(
                *(
                    (Mutation.add if add else Mutation.remove)(*edge)
                    for add, edge in batch
                )
            )
            for batch in group
        ]
    )


def _assert_statistics_fresh(db: GraphDatabase, k: int, shards: int) -> None:
    """The maintained statistics equal ones taken from scratch right now:
    those of a database freshly built on the same graph."""
    graph = db.graph
    total = count_paths_k(graph, k)
    assert db.index.total_paths_k() == total
    config = ServiceConfig(k=k, shards=shards)
    fresh = GraphDatabase(copy.deepcopy(graph), config=config)
    try:
        exact, histogram = db.exact_statistics, db.histogram
        assert exact.total_paths_k == fresh.exact_statistics.total_paths_k == total
        assert db.index.counts_by_path() == fresh.index.counts_by_path()
        for path in enumerate_label_paths(graph.labels(), k):
            want = fresh.exact_statistics.selectivity(path)
            assert exact.selectivity(path) == want
            assert histogram.selectivity(path) == fresh.histogram.selectivity(path)
        for shard in range(shards):
            mine = db.index.shard_statistics(shard)
            theirs = fresh.index.shard_statistics(shard)
            assert mine.counts == theirs.counts
            assert mine.total_paths_k == theirs.total_paths_k == total
    finally:
        fresh.close()


@st.composite
def group_plans(draw):
    """Starting edges plus commit groups (lists of batches) over few names.

    Mutations draw from more names and labels than the start does, so
    adds create nodes and (rarely) a label; the small spaces make
    no-ops, self-loops and an edge added and removed inside one group
    common.
    """
    names = [f"n{i}" for i in range(6)]
    start_edge = st.tuples(
        st.sampled_from(names), st.sampled_from("ab"), st.sampled_from(names)
    )
    wider = st.sampled_from(names + ["m0", "m1"])
    edge = st.tuples(wider, st.sampled_from("aabbc"), wider)
    batch = st.lists(st.tuples(st.booleans(), edge), min_size=1, max_size=4)
    start = draw(st.lists(start_edge, min_size=2, max_size=12))
    groups = draw(
        st.lists(st.lists(batch, min_size=1, max_size=2), min_size=1, max_size=3)
    )
    return start, groups


class TestMaintainedPathsK:
    @pytest.mark.parametrize("absorber", ABSORBERS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    @settings(max_examples=10, deadline=None)
    @given(plan=group_plans(), shards=st.sampled_from([1, 2, 4]))
    def test_total_stays_exact_after_every_group(self, absorber, k, plan, shards):
        start, groups = plan
        with _opened(absorber, start, k, shards) as db:
            for group in groups:
                _commit(db, group)
                _assert_statistics_fresh(db, k, shards)

    @pytest.mark.parametrize("absorber", ABSORBERS)
    def test_named_corner_cases_in_one_group(self, absorber):
        start = [("n0", "a", "n1"), ("n1", "b", "n2"), ("n2", "a", "n3")]
        group = [
            [
                (True, ("n3", "a", "fresh0")),  # creates a node
                (True, ("n0", "a", "n1")),  # no-op add
                (False, ("n4", "b", "n5")),  # no-op remove, unknown nodes
                (True, ("n1", "a", "n1")),  # self-loop
            ],
            [
                (True, ("fresh1", "b", "fresh2")),  # an island of new nodes
                (True, ("n2", "b", "n0")),
                (False, ("n2", "b", "n0")),  # ...added and removed again
                (False, ("n1", "b", "n2")),  # cuts the original chain
            ],
        ]
        for k in (1, 2, 3):
            for shards in (1, 4):
                with _opened(absorber, start, k, shards) as db:
                    _commit(db, group)
                    _assert_statistics_fresh(db, k, shards)

    def test_full_count_runs_once_per_index_instance(self, monkeypatch):
        """Local groups never recount the graph; only a new instance does."""
        from repro import sharding
        from repro.indexes import histogram, statistics

        full_counts: list[int] = []
        real_sizes = graph_stats.paths_k_sizes

        def counting_sizes(graph, k, around=None):
            if around is None:
                full_counts.append(graph.version)
            return real_sizes(graph, k, around)

        def no_count(graph, k):
            raise AssertionError("count_paths_k called by the sharded engine")

        monkeypatch.setattr(sharding, "paths_k_sizes", counting_sizes)
        for module in (statistics, histogram):
            monkeypatch.setattr(module, "count_paths_k", no_count)

        db = GraphDatabase.from_edges(
            _edges(13, nodes=200, count=600),
            config=ServiceConfig(k=2, shards=4),
        )
        try:
            first = db.index
            assert len(full_counts) == 1
            for mutation in _mutations(14, 12, nodes=200):
                db.apply(mutation)
            assert db.index is first
            assert len(full_counts) == 1  # twelve groups, no recount
            assert db.stats().write.patched > 0

            db.apply(Mutation.add("n0", "brand_new_label", "n1"))
            assert db.index is not first  # alphabet change: new instance
            assert len(full_counts) == 2
            assert db.index.total_paths_k() == sum(
                real_sizes(db.graph, 2).values()
            )
        finally:
            db.close()

    def test_one_edge_apply_recounts_a_neighbourhood(self):
        for shards in (1, 2):
            db = GraphDatabase.from_edges(
                _edges(21, nodes=200, count=300),
                config=ServiceConfig(k=2, shards=shards),
            )
            try:
                nodes = db.graph.node_count
                assert db.stats().write.recounted_sources == nodes  # the build
                result = db.apply(Mutation.add("n0", "a", "n1"))
                assert result.mode == "patch"
                assert db.stats().write.patched == 1
                recounted = db.stats().write.recounted_sources - nodes
                assert 2 <= recounted < nodes
                assert db.stats().as_dict()["recounted_sources"] == nodes + recounted
                assert db.index.total_paths_k() == count_paths_k(db.graph, 2)
            finally:
                db.close()


class TestFailedAbsorbDropsMaintainedSizes:
    """A failure between graph mutation and refresh: sizes go with the index.

    The graph has moved but the per-source sizes have not; the only
    safe continuation is the one the API layer takes — discard the
    index, and let the next build count from scratch.
    """

    def _db(self):
        return GraphDatabase.from_edges(
            _edges(17, nodes=60, count=90),
            config=ServiceConfig(k=2, shards=4),
        )

    def _assert_recovers(self, db, doomed_index) -> None:
        assert db._index is None and db._exact_statistics is None
        built_before = db.stats().write.recounted_sources
        rebuilt = db.index  # lazy rebuild
        assert rebuilt is not doomed_index
        assert (
            db.stats().write.recounted_sources - built_before
            == db.graph.node_count
        )
        assert rebuilt.total_paths_k() == count_paths_k(db.graph, 2)
        assert db.exact_statistics.total_paths_k == rebuilt.total_paths_k()

    def test_fault_at_shard_build_during_ball_rebuild(self, monkeypatch):
        # A zero dirty-pair budget: the group takes the ball rebuild.
        monkeypatch.setattr(delta, "MAX_DIRTY_PAIRS", 0)
        with disarmed():
            db = self._db()
            doomed = db.index
        try:
            # A ball that leaves at least one shard out, so the group
            # takes rebuild_shards rather than a whole new index.
            mutation = next(
                candidate
                for candidate in _mutations(18, 200, nodes=60)
                if candidate.kind == "add"
                and db.graph.has_node(candidate.source)
                and db.graph.has_node(candidate.target)
                and not db.graph.has_edge(
                    candidate.source, candidate.label, candidate.target
                )
                and len(
                    doomed.shards_touching(
                        (
                            db.graph.node_id(candidate.source),
                            db.graph.node_id(candidate.target),
                        )
                    )
                )
                < 4
            )
            version = db.graph.version
            plan = FaultPlan([FaultRule("shard.build", "transient")])
            with armed(plan):
                with pytest.raises(ShardUnavailableError):
                    db.apply(mutation)
            assert plan.fired > 0
            assert db.graph.version > version  # the graph did move
            with disarmed():
                self._assert_recovers(db, doomed)
        finally:
            db.close()

    def test_failure_in_the_patch_step(self, monkeypatch):
        with disarmed():
            db = self._db()
            doomed = db.index
            try:

                def torn_patch(self, path, adds, removes):
                    raise OSError("shard tree gone mid-patch")

                with monkeypatch.context() as patched:
                    patched.setattr(PathIndex, "patch", torn_patch)
                    with pytest.raises(OSError):
                        db.apply(Mutation.add("n0", "a", "n1"))
                assert db.graph.has_edge("n0", "a", "n1")
                self._assert_recovers(db, doomed)
            finally:
                db.close()


# -- the mutation log ----------------------------------------------------------


class TestMutationLog:
    """Raw log contracts; disarmed — unlike the engine's commit group,
    direct ``append``/``flush`` calls carry no retry envelope, so a
    process-wide chaos plan (CI's ``REPRO_FAULTS``) would fail them
    by design rather than reveal anything."""

    @pytest.fixture(autouse=True)
    def _no_chaos(self):
        with disarmed():
            yield

    def test_append_flush_replay(self, tmp_path):
        path = tmp_path / "wal.log"
        with MutationLog(path) as log:
            log.append(MutationBatch.of(Mutation.add("a", "x", "b")))
            log.append(MutationBatch.of(Mutation.remove("a", "x", "b")))
            log.flush()
            assert log.last_seq == 2
            replayed = list(log.replay())
        assert [seq for seq, _ in replayed] == [1, 2]
        assert list(replayed[0][1])[0] == Mutation.add("a", "x", "b")

    def test_unflushed_records_are_not_durable(self, tmp_path):
        path = tmp_path / "wal.log"
        with MutationLog(path) as log:
            log.append(MutationBatch.of(Mutation.add("a", "x", "b")))
            log.flush()
            log.append(MutationBatch.of(Mutation.add("b", "x", "c")))
            assert log.last_seq == 1
            assert len(list(log.replay())) == 1

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        path = tmp_path / "wal.log"
        with MutationLog(path) as log:
            log.append(MutationBatch.of(Mutation.add("a", "x", "b")))
            log.append(MutationBatch.of(Mutation.add("b", "x", "c")))
            log.flush()
        with open(path, "ab") as handle:
            handle.write(b"\x00\x07garbage-torn-tail")
        with MutationLog(path) as log:
            assert log.recovered_records == 2
            assert log.truncated_bytes > 0
            assert log.last_seq == 2
            log.append(MutationBatch.of(Mutation.add("c", "x", "a")))
            log.flush()
            assert [seq for seq, _ in log.replay()] == [1, 2, 3]


class TestWalEngine:
    def _config(self, tmp_path, **extra):
        return ServiceConfig(
            k=2,
            shards=2,
            mutation_log_path=str(tmp_path / "wal.log"),
            **extra,
        )

    def test_reopen_replays_log(self, tmp_path):
        edges = _edges(8)
        db = GraphDatabase.from_edges(edges, config=self._config(tmp_path))
        db.apply(MutationBatch.of(*_mutations(1, 4)))
        db.apply(MutationBatch.of(*_mutations(2, 4)))
        want = {q: db.query(q, use_cache=False).pairs for q in QUERIES}
        version = db.graph.version
        db.close()

        revived = GraphDatabase.from_edges(edges, config=self._config(tmp_path))
        try:
            stats = revived.stats()
            assert stats.write.replayed == 2
            assert stats.write.log_records == 2
            # Replay is by whole batches, exactly once: the edge
            # multiset matches, so no mutation was double-applied.
            assert revived.graph.version == version
            for query, pairs in want.items():
                assert revived.query(query, use_cache=False).pairs == pairs
        finally:
            revived.close()

    def test_crash_at_flush_fails_group_cleanly(self, tmp_path):
        edges = _edges(9)
        config = self._config(tmp_path)
        db = GraphDatabase.from_edges(edges, config=config)
        try:
            survivor = MutationBatch.of(*_mutations(3, 3))
            db.apply(survivor)
            before = {q: db.query(q, use_cache=False).pairs for q in QUERIES}
            version = db.graph.version

            plan = FaultPlan([FaultRule("mutlog.flush", "crash", times=1)])
            doomed = MutationBatch.of(*_mutations(4, 3))
            with armed(plan):
                with pytest.raises(BrokenExecutor):
                    db.apply(doomed)
            assert plan.fired == 1

            # Nothing applied, nothing acknowledged, answers unchanged.
            assert db.graph.version == version
            assert db.stats().write.log_records == 1
            for query, pairs in before.items():
                assert db.query(query, use_cache=False).pairs == pairs

            # Re-submitting the same batch after the fault is safe.
            assert db.apply(doomed).changed
        finally:
            db.close()

        # And a reopen replays exactly the two acknowledged batches.
        revived = GraphDatabase.from_edges(edges, config=self._config(tmp_path))
        try:
            assert revived.stats().write.replayed == 2
        finally:
            revived.close()

    @pytest.mark.parametrize(
        "engine, backend",
        [(GraphDatabase, "disk"), (CoordinatorDatabase, "compressed")],
        ids=["disk-without-a-path", "fleet-not-memory-backed"],
    )
    def test_failed_first_build_releases_the_log(self, tmp_path, engine, backend):
        """Regression: the log is opened before the first build, and a
        constructor that raises hands nobody an object to ``close()``."""
        config = self._config(tmp_path, backend=backend)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ValidationError):
                engine.from_edges(_edges(8), config=config)
            gc.collect()
        assert not [str(warning.message) for warning in caught]

    def test_close_releases_the_log_when_the_index_close_raises(
        self, tmp_path, monkeypatch
    ):
        db = GraphDatabase.from_edges(_edges(8), config=self._config(tmp_path))

        def broken_close():
            raise OSError("close() raced the handle")

        monkeypatch.setattr(db.index, "close", broken_close)
        with pytest.raises(OSError):
            db.close()
        assert db._mutation_log._handle.closed


# -- the coordinator -----------------------------------------------------------


@pytest.fixture(scope="module")
def write_coordinator():
    db = CoordinatorDatabase.from_edges(
        _edges(5), config=ServiceConfig(k=2, shards=3)
    )
    yield db
    db.close()


@pytest.fixture(scope="module")
def write_oracle():
    return _Oracle(_edges(5))


class TestCoordinatorWritePath:
    def test_apply_broadcasts_patches(self, write_coordinator, write_oracle):
        batch = MutationBatch.of(
            Mutation.add("n1", "a", "n2"), Mutation.add("n2", "b", "n3")
        )
        result = write_coordinator.apply(batch)
        write_oracle.apply(batch)
        assert result.mode == "patch" and result.patched_shards
        for query in QUERIES:
            want = write_oracle.answer(query)
            assert write_coordinator.query(query, use_cache=False).pairs == want

    def test_restart_resyncs_by_replay_not_transfer(
        self, write_coordinator, write_oracle
    ):
        mutations = _mutations(42, 5)
        for mutation in mutations:
            write_coordinator.apply(mutation)
            write_oracle.apply(mutation)
        index = write_coordinator._index

        index.handles[1].kill()
        index.handles[1].process.join(5)
        assert write_coordinator.ensure_workers() == [1]
        write_coordinator.cache_clear()

        assert index.replayed_mutations > 0
        assert index.full_graph_transfers == 0
        for query in QUERIES:
            want = write_oracle.answer(query)
            assert write_coordinator.query(query, use_cache=False).pairs == want

        # The restarted worker keeps taking writes.
        result = write_coordinator.apply(Mutation.add("n3", "c", "n4"))
        assert result.changed
        write_oracle.apply(Mutation.add("n3", "c", "n4"))
        want = write_oracle.answer("a/c")
        assert write_coordinator.query("a/c", use_cache=False).pairs == want

    def test_statistics_refresh_reads_each_catalog_once(
        self, write_coordinator, write_oracle, monkeypatch
    ):
        """The merged catalog and the per-shard statistics of one
        refresh share one ``counts`` call per worker."""
        asked: list[int] = []
        original = WorkerStub._call

        def counting(stub, op, *args, **params):
            if op == "counts":
                asked.append(stub.handle.shard)
            return original(stub, op, *args, **params)

        monkeypatch.setattr(WorkerStub, "_call", counting)
        shards = list(range(write_coordinator.index.shard_count))
        write_coordinator.build_index()
        assert sorted(asked) == shards
        asked.clear()
        mutation = Mutation.add("n0", "a", "n4")
        assert write_coordinator.apply(mutation).changed
        write_oracle.apply(mutation)
        assert sorted(asked) == shards


# -- HTTP, clients, CLI --------------------------------------------------------


class TestHttpApply:
    @pytest.fixture(scope="class")
    def served(self):
        config = ServiceConfig(k=2, shards=2, port=0)
        db = GraphDatabase.from_edges(_edges(12), config=config)
        handle = serve_in_thread(db, config)
        client = Client(port=handle.port)
        yield db, client
        client.close()
        handle.stop()
        db.close()

    def test_apply_round_trip(self, served):
        db, client = served
        result = client.apply(
            [Mutation.add("n1", "a", "n2"), Mutation.add("n2", "b", "n3")]
        )
        assert isinstance(result, ApplyResult)
        assert result.version == db.graph.version

    def test_mutate_route_is_gone(self, served):
        db, client = served
        version = db.graph.version
        body = {"kind": "add", "source": "n6", "label": "a", "target": "n7"}
        with pytest.raises(ValidationError, match="no route"):
            client._request("POST", "/mutate", body)
        assert db.graph.version == version


class TestCliMutate:
    def test_mutate_reads_stdin_delta(self, monkeypatch, capsys):
        monkeypatch.setattr(
            sys,
            "stdin",
            io.StringIO("# delta\nadd x a y\n+ y b z\nremove x a y\n"),
        )
        assert cli.main(["mutate", "--synthetic", "small"]) == 0
        err = capsys.readouterr().err
        assert "applied 3" in err and "version" in err

    def test_mutate_rejects_bad_lines(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("frobnicate x a y\n"))
        assert cli.main(["mutate", "--synthetic", "small"]) == 2
        assert "kind must be" in capsys.readouterr().err
