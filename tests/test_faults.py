"""Fault injection, deadlines, retries, and degraded answers.

The headline properties (hypothesis):

* under ANY generated fault plan, every query either raises a *typed*
  :class:`~repro.errors.ReproError` or returns exactly the unsharded
  disarmed oracle answer — chaos never produces a silently wrong
  answer, and (on a fake clock) never hangs;
* degraded answers are always subsets of the oracle and a result that
  lost pairs is always flagged ``partial``.

Around them, unit tests pin the deterministic pieces: the
``REPRO_FAULTS`` grammar, backoff arithmetic, deadline behavior,
times-capped replayability, crash-safe index writes, and artifact
store eviction.
"""

from __future__ import annotations

import functools
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import prepared as prepared_module
from repro.engine.prepared import PlanArtifactStore
from repro.errors import (
    QueryTimeoutError,
    ReproError,
    ShardUnavailableError,
    StorageError,
    TransientStorageError,
    ValidationError,
)
from repro.faults import (
    CORRUPT_POINTS,
    CRASH_POINTS,
    INJECTION_POINTS,
    Deadline,
    FakeClock,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    armed,
    disarmed,
    plan_from_env,
    retry_call,
)
from repro.graph.examples import FIGURE1_EDGES
from repro.graph.generators import advogato_like
from repro.indexes.pathindex import PathIndex
from repro.sharding import ShardedGraph

from repro.api import GraphDatabase, ServiceConfig  # isort: skip

#: Small fixed graph: cheap enough to index per hypothesis example,
#: rich enough that every shard of a 4-way split holds real paths.
GRAPH = advogato_like(nodes=24, edges=70, seed=5)

#: Queries covering scan, join, inverse, union, and Kleene closure —
#: each engine path the resilience machinery is threaded through.
QUERIES = (
    "master/journeyer",
    "^master/journeyer",
    "master|apprentice/observer",
    "master*",
)


@functools.lru_cache(maxsize=None)
def oracle(query: str) -> frozenset:
    """The disarmed, unsharded ground-truth answer."""
    with disarmed():
        db = GraphDatabase(GRAPH, k=2, config=ServiceConfig(shards=1))
        return db.query(query, use_cache=False).pairs


def build_db(shards: int) -> GraphDatabase:
    """A sharded database over the fixed graph."""
    return GraphDatabase(GRAPH, k=2, config=ServiceConfig(shards=shards))


# -- hypothesis strategies -----------------------------------------------------


@st.composite
def fault_rules(draw) -> FaultRule:
    point = draw(st.sampled_from(INJECTION_POINTS))
    kinds = ["transient", "latency"]
    if point in CRASH_POINTS:
        kinds.append("crash")
    if point in CORRUPT_POINTS:
        kinds.append("corrupt")
    return FaultRule(
        point=point,
        kind=draw(st.sampled_from(kinds)),
        rate=draw(st.sampled_from([0.0, 0.3, 1.0])),
        times=draw(st.sampled_from([None, 1, 2])),
        delay_ms=draw(st.sampled_from([0.0, 5.0, 50.0])),
        shard=draw(st.sampled_from([None, 0, 1])),
    )


fault_plans = st.builds(
    lambda rules, seed: FaultPlan(rules, seed=seed, clock=FakeClock()),
    st.lists(fault_rules(), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2**16),
)


# -- the headline properties ---------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(plan=fault_plans, shards=st.sampled_from([1, 2, 4]))
def test_chaos_is_typed_or_exact(plan: FaultPlan, shards: int) -> None:
    """Typed error or the oracle answer — never a silent wrong answer.

    Build AND queries run under the armed plan, so build-time faults
    (pool crashes, per-shard transients) are exercised too.  The fake
    clock turns latency faults and retry backoff into bookkeeping, so
    the property also shows no plan can hang the engine.
    """
    with armed(plan):
        try:
            db = build_db(shards)
            for query in QUERIES:
                result = db.query(query, use_cache=False)
                assert result.pairs == oracle(query)
                assert result.report is not None and not result.report.partial
        except ReproError:
            pass  # typed, named failure: an allowed outcome


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    shards=st.sampled_from([2, 4]),
    down=st.integers(min_value=0, max_value=3),
)
def test_degraded_is_flagged_subset(seed: int, shards: int, down: int) -> None:
    """With one shard permanently down, degraded answers are flagged subsets."""
    down %= shards
    plan = FaultPlan(
        [FaultRule("shard.scan", "transient", shard=down)],
        seed=seed,
        clock=FakeClock(),
    )
    with disarmed():
        db = build_db(shards)
    with armed(plan):
        for query in QUERIES:
            result = db.query(query, degraded=True, use_cache=False)
            truth = oracle(query)
            assert result.pairs <= truth
            report = result.report
            assert report is not None
            assert report.partial == (report.shards_failed > 0)
            if result.pairs != truth:
                assert report.partial
        assert plan.fired > 0, "the downed shard was never even scanned"


def test_strict_mode_raises_on_downed_shard() -> None:
    """Without the degraded opt-in, a downed shard is a typed failure."""
    plan = FaultPlan(
        [FaultRule("shard.scan", "transient")], clock=FakeClock()
    )
    with disarmed():
        db = build_db(2)
    with armed(plan):
        with pytest.raises(ShardUnavailableError) as info:
            db.query("master/journeyer", use_cache=False)
    assert info.value.shard is not None


def test_transient_faults_recover_via_retry() -> None:
    """Every slice fails exactly once; retries recover the exact answer."""
    clock = FakeClock()
    plan = FaultPlan(
        [FaultRule("shard.scan", "transient", times=1)], clock=clock
    )
    with disarmed():
        db = build_db(4)
    with armed(plan):
        result = db.query("master/journeyer", use_cache=False)
    assert result.pairs == oracle("master/journeyer")
    assert plan.fired > 0
    assert clock.sleeps, "recovery must have gone through backoff sleeps"


def test_build_raises_shard_unavailable_when_permanent(monkeypatch) -> None:
    """The one build path at any shard count, one shard included: the
    error names the doomed shard and no earlier shard is left open."""
    built: list[PathIndex] = []
    closed: list[PathIndex] = []
    shard_index = ShardedGraph._shard_index.__func__

    def recording(cls, *args):
        built.append(shard_index(cls, *args))
        return built[-1]

    monkeypatch.setattr(ShardedGraph, "_shard_index", classmethod(recording))
    monkeypatch.setattr(PathIndex, "close", lambda index: closed.append(index))
    for shards, doomed in ((4, 2), (2, 1), (1, 0)):
        del built[:], closed[:]
        plan = FaultPlan(
            [FaultRule("shard.build", "transient", shard=doomed)],
            clock=FakeClock(),
        )
        with armed(plan):
            with pytest.raises(ShardUnavailableError) as info:
                build_db(shards)
        assert info.value.shard == doomed
        assert plan.fired > 1  # retried before giving up
        assert len(built) == doomed and closed == built


# -- deadlines and timeouts ----------------------------------------------------


def test_deadline_validates_and_expires() -> None:
    clock = FakeClock()
    with pytest.raises(ValidationError):
        Deadline(0.0, clock=clock)
    deadline = Deadline(100.0, clock=clock)
    assert not deadline.expired()
    deadline.check()  # within budget: no raise
    clock.advance(0.2)
    assert deadline.expired()
    with pytest.raises(QueryTimeoutError):
        deadline.check()


def test_query_timeout_is_typed_and_prompt() -> None:
    """An absurdly small budget fails fast with the typed error."""
    with disarmed():
        db = build_db(2)
        with pytest.raises(QueryTimeoutError):
            db.query("master/journeyer", timeout_ms=1e-6, use_cache=False)


def test_latency_faults_trip_the_deadline() -> None:
    """Injected shard latency on a fake clock exceeds a virtual deadline."""
    plan = FaultPlan(
        [FaultRule("shard.scan", "latency", delay_ms=50.0)],
        clock=FakeClock(),
    )
    with disarmed():
        db = build_db(4)
    with armed(plan):
        with pytest.raises(QueryTimeoutError):
            db.query("master/journeyer", timeout_ms=10.0, use_cache=False)


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize(
    "timeout_ms", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0]
)
def test_only_a_finite_positive_timeout_is_a_deadline(shards, timeout_ms) -> None:
    """NaN passes a ``<= 0`` test and infinity never expires: both
    would answer with no bound at all, so both are refused up front."""
    db = GraphDatabase.from_edges(
        FIGURE1_EDGES, k=2, config=ServiceConfig(shards=shards)
    )
    with pytest.raises(ValidationError, match="finite"):
        db.query("supervisor/^worksFor", timeout_ms=timeout_ms, use_cache=False)
    db.close()


def test_timeout_rejected_for_baselines() -> None:
    with disarmed():
        db = build_db(1)
        with pytest.raises(ValidationError):
            db.query("master", method="reference", timeout_ms=100.0)
        with pytest.raises(ValidationError):
            db.query("master", method="automaton", degraded=True)


# -- retry policy --------------------------------------------------------------


def test_retry_policy_backoff_caps() -> None:
    policy = RetryPolicy(
        attempts=6, base_delay_ms=10.0, cap_delay_ms=50.0, multiplier=2.0
    )
    assert [policy.delay_ms(i) for i in range(5)] == [10, 20, 40, 50, 50]
    with pytest.raises(ValidationError):
        RetryPolicy(attempts=0)
    with pytest.raises(ValidationError):
        RetryPolicy(multiplier=0.5)


def test_retry_call_recovers_and_records_backoff() -> None:
    clock = FakeClock()
    failures = iter([True, True, False])

    def flaky() -> str:
        if next(failures):
            raise TransientStorageError("flap")
        return "ok"

    with armed(FaultPlan([], clock=clock)):
        assert retry_call(flaky) == "ok"
    assert clock.sleeps == [0.01, 0.02]


def test_retry_call_propagates_permanent_errors_immediately() -> None:
    calls = 0

    def permanent() -> None:
        nonlocal calls
        calls += 1
        raise StorageError("torn page")

    with armed(FaultPlan([], clock=FakeClock())):
        with pytest.raises(StorageError):
            retry_call(permanent)
    assert calls == 1  # permanent errors are not retried


def test_retry_call_exhausts_then_raises() -> None:
    clock = FakeClock()

    def always() -> None:
        raise TransientStorageError("down")

    with armed(FaultPlan([], clock=clock)):
        with pytest.raises(TransientStorageError):
            retry_call(always, policy=RetryPolicy(attempts=3))
    assert len(clock.sleeps) == 2


def test_retry_call_respects_deadline() -> None:
    clock = FakeClock()

    def always() -> None:
        raise TransientStorageError("down")

    with armed(FaultPlan([], clock=clock)):
        deadline = Deadline(1000.0, clock=clock)
        clock.advance(2.0)
        with pytest.raises(QueryTimeoutError):
            retry_call(always, deadline=deadline)


# -- plan determinism ----------------------------------------------------------

def test_plan_replays_exactly_after_reset() -> None:
    rules = [FaultRule("shard.scan", "transient", rate=0.5, times=2)]

    def run(plan: FaultPlan) -> tuple[int, int]:
        successes = errors = 0
        for shard in range(8):
            try:
                plan.fire("shard.scan", None, {"shard": shard})
                successes += 1
            except TransientStorageError:
                errors += 1
        return successes, errors

    plan = FaultPlan(rules, seed=99, clock=FakeClock())
    first = run(plan)
    plan.reset()
    assert run(plan) == first
    assert first[1] > 0


def test_times_caps_per_context() -> None:
    plan = FaultPlan(
        [FaultRule("shard.scan", "transient", times=1)], clock=FakeClock()
    )
    for shard in range(2):
        with pytest.raises(TransientStorageError):
            plan.fire("shard.scan", None, {"shard": shard})
        plan.fire("shard.scan", None, {"shard": shard})  # capped: no raise
    assert plan.fired == 2


# -- REPRO_FAULTS grammar ------------------------------------------------------


def test_plan_from_env_full_grammar() -> None:
    plan = plan_from_env(
        "seed=7;shard.scan=transient@0.5,times=1,shard=2;"
        "gather.merge=latency,delay_ms=5"
    )
    assert plan is not None and plan.seed == 7
    first, second = plan.rules
    assert (first.point, first.kind, first.rate) == ("shard.scan", "transient", 0.5)
    assert (first.times, first.shard) == (1, 2)
    assert (second.point, second.kind, second.delay_ms) == (
        "gather.merge",
        "latency",
        5.0,
    )


def test_plan_from_env_empty_means_disarmed() -> None:
    assert plan_from_env("") is None
    assert plan_from_env("   ") is None


@pytest.mark.parametrize(
    "spec",
    [
        "garbage",
        "shard.scan=explode",
        "nowhere=transient",
        "shard.scan=transient@lots",
        "shard.scan=transient,times=0",
        "shard.scan=transient,color=red",
        "shard.scan=crash,shard",
        "gather.merge=crash",
        "shard.scan=corrupt",
        "seed=3",
    ],
)
def test_plan_from_env_rejects_garbage(spec: str) -> None:
    with pytest.raises(ValidationError):
        plan_from_env(spec)


# -- disk backend: corruption and crash-safe writes ----------------------------


def test_disk_corruption_is_a_typed_error(tmp_path) -> None:
    """A corrupted page surfaces as StorageError, never a wrong answer."""
    with disarmed():
        db = GraphDatabase(
            GRAPH,
            k=2,
            config=ServiceConfig(backend="disk", index_path=tmp_path / "g.idx"),
        )
    plan = FaultPlan(
        [FaultRule("storage.read_page", "corrupt")], clock=FakeClock()
    )
    # The first query faults in index pages from disk; every one comes
    # back torn.  The guaranteed-detectable corruption (the node type
    # byte's high bit) must surface as a typed StorageError.
    with armed(plan):
        with pytest.raises(StorageError):
            db.query("master/journeyer", use_cache=False)
    assert plan.fired > 0
    # Disarmed and re-opened, the on-disk index itself is unharmed.
    with disarmed():
        healthy = GraphDatabase(
            GRAPH,
            k=2,
            config=ServiceConfig(backend="disk", index_path=tmp_path / "g.idx"),
        )
        result = healthy.query("master/journeyer", use_cache=False)
    assert result.pairs == oracle("master/journeyer")


def test_bulk_load_failure_preserves_previous_index(tmp_path) -> None:
    """A build that dies mid-write leaves the old index fully readable."""
    with disarmed():
        path = tmp_path / "index.db"
        index = PathIndex.build(GRAPH, k=1, backend="disk", path=path)
        before = index.entry_count
        assert before > 0

        def exploding():
            yield 0, array("q", [1]), array("q", [2])
            raise RuntimeError("power loss")

        with pytest.raises(RuntimeError):
            index._backend.load(exploding())
        assert not path.with_name(path.name + ".build").exists()
        assert index.entry_count == before  # old tree still serves


def test_save_catalog_is_atomic(tmp_path) -> None:
    with disarmed():
        index_path = tmp_path / "index.db"
        catalog = tmp_path / "catalog.json"
        index = PathIndex.build(GRAPH, k=1, backend="disk", path=index_path)
        index.save_catalog(catalog)
        assert catalog.exists()
        assert not catalog.with_name(catalog.name + ".tmp").exists()
        reopened = PathIndex.open_disk(GRAPH, index_path, catalog)
        assert reopened.counts_by_path() == index.counts_by_path()


# -- plan-artifact store: fail-open loads and bounded growth -------------------


def test_artifact_store_fails_open_under_faults(tmp_path) -> None:
    store = PlanArtifactStore(tmp_path / "plans.json")
    with disarmed():
        store.open("fp")
        store.store("key", {"plan": 1})
    plan = FaultPlan(
        [FaultRule("prepared.artifact_load", "transient")], clock=FakeClock()
    )
    with armed(plan):
        assert store.load("key") is None  # degrade to re-planning
        assert store.open("fp") == 0  # unreadable file adopts nothing
    assert plan.fired == 2


def test_artifact_store_evicts_oldest(tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(prepared_module, "ARTIFACT_STORE_MAX", 3)
    store = PlanArtifactStore(tmp_path / "plans.json")
    with disarmed():
        store.open("fp")
        for number in range(5):
            store.store(f"key{number}", {"plan": number})
        assert store.entry_count() == 3
        assert store.load("key0") is None and store.load("key1") is None
        assert store.load("key4") == {"plan": 4}
        # Re-storing refreshes age: key2 survives the next insertion.
        store.store("key2", {"plan": 22})
        store.store("key5", {"plan": 5})
        assert store.load("key2") == {"plan": 22}
        assert store.load("key3") is None
        # A reopen adopts at most the cap from disk.
        fresh = PlanArtifactStore(tmp_path / "plans.json")
        assert fresh.open("fp") <= 3


# -- degraded answers through the service layer --------------------------------


def test_degraded_counters_surface_in_cache_info() -> None:
    plan = FaultPlan(
        [FaultRule("shard.scan", "transient", shard=0)], clock=FakeClock()
    )
    with disarmed():
        db = build_db(2)
    with armed(plan):
        result = db.query("master/journeyer", degraded=True, use_cache=False)
    assert result.report is not None and result.report.partial
    assert db.stats().as_dict()["shards_failed"] > 0


def test_partial_answers_are_never_cached() -> None:
    plan = FaultPlan(
        [FaultRule("shard.scan", "transient", shard=0)], clock=FakeClock()
    )
    with disarmed():
        db = build_db(2)
    with armed(plan):
        degraded = db.query("master/journeyer", degraded=True)
        assert degraded.report is not None and degraded.report.partial
    with disarmed():
        healed = db.query("master/journeyer")
    assert not healed.cached, "a partial answer must not be served from cache"
    assert healed.pairs == oracle("master/journeyer")
