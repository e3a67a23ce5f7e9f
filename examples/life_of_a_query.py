"""The life of a regular path query — the paper's demo walkthrough.

Section 6 of the paper demonstrates "the life of a regular path query,
from its submission to our system, through parsing and optimization, to
execution".  This script narrates exactly that pipeline for the
Section 4 worked example  R = knows . (knows . worksFor){2,4} . worksFor.

The final stages show the same query as a *prepared template*
(`prepare` / `bind` / `run`: plan once, sweep the repetition bound),
and what happens when things go wrong: a deadline that expires
mid-query, a shard that keeps failing, and the degraded (subset)
answer the engine can still give.

The later stages serve the same engine as a multi-process service:
forked shard workers behind an HTTP front door, queried through the
`repro.client` API — including what a killed worker looks like from
the outside (a degraded subset, then supervision restores exactness).

The final stage is the write path: one `apply()` entry point takes a
batch of edge mutations through the group-committed write-ahead log
and per-shard delta patching, and a "crashed" engine reopened on the
same log replays itself back to exactly the acknowledged state.

Run:  python examples/life_of_a_query.py
"""

import tempfile
import time
from pathlib import Path

from repro import Client, GraphDatabase, ServiceConfig
from repro.engine.executor import evaluate_ast
from repro.errors import QueryTimeoutError, ShardUnavailableError
from repro.faults import FaultPlan, FaultRule, armed
from repro.engine.plan import render
from repro.engine.planner import Planner, Strategy
from repro.graph.examples import FIGURE1_EDGES
from repro.rpq.parser import parse, tokenize
from repro.rpq.rewrite import bound_star, push_inverse

QUERY = "knows/(knows/worksFor){2,4}/worksFor"


def main() -> None:
    db = GraphDatabase.from_edges(FIGURE1_EDGES, k=3)
    graph = db.graph

    print("=" * 72)
    print("1. SUBMISSION")
    print("=" * 72)
    print("query text:", QUERY)
    print()

    print("=" * 72)
    print("2. PARSING")
    print("=" * 72)
    tokens = tokenize(QUERY)
    print("tokens:", " ".join(token.text for token in tokens))
    node = parse(QUERY)
    print("AST (unparsed):", node)
    print()

    print("=" * 72)
    print("3. REWRITING (Section 4, steps 1-2)")
    print("=" * 72)
    prepared = bound_star(push_inverse(node), bound=graph.node_count - 1)
    print("inverse on labels only, recursion bounded by n(G):", prepared)
    normal = db.normal_form(QUERY)
    print("normal form (union of label paths):")
    for path in normal.paths:
        print(f"  {path}    (length {len(path)})")
    print()

    print("=" * 72)
    print("4. PLANNING (Section 4, step 3)")
    print("=" * 72)
    for strategy in (Strategy.SEMI_NAIVE, Strategy.MIN_SUPPORT, Strategy.MIN_JOIN):
        planner = Planner(db.k, db.histogram, graph, strategy)
        costed = planner.plan(normal)
        print(f"--- {strategy.value} "
              f"(est. cost {costed.cost:.1f}, est. rows {costed.cardinality:.1f})")
        print(render(costed.plan))
        print()

    print("=" * 72)
    print("5. EXECUTION")
    print("=" * 72)
    for strategy in Strategy:
        report = evaluate_ast(node, db.index, graph, db.histogram, strategy)
        print(
            f"{strategy.value:<12} {len(report.pairs):>4} pairs   "
            f"plan {report.planning_seconds * 1000:6.2f} ms   "
            f"exec {report.execution_seconds * 1000:6.2f} ms"
        )
    answer = db.query(QUERY)
    print()
    print("answer:", sorted(answer.pairs))
    print()

    print("=" * 72)
    print("6. PREPARED TEMPLATES (plan once, bind many)")
    print("=" * 72)
    template = "knows/(knows/worksFor){2,$n}/worksFor"
    print("template:", template)
    statement = db.prepare(template)
    for n in (2, 3, 4):
        result = statement.bind(n=n).run()
        print(f"  n={n}: {len(result.pairs):>3} pairs "
              f"({result.seconds * 1000:.2f} ms)")
    assert statement.bind(n=4).run().pairs == answer.pairs
    info = db.stats().as_dict()
    print(f"plans computed: {info['plans_computed']}, "
          f"plan-cache hits: {info['prepared_hits']}")
    anchored = db.prepare("from($v): knows{1,$n}")
    sue = anchored.run(v="sue", n=2)
    print(f"anchored 'from($v): knows{{1,$n}}' at v=sue, n=2: "
          f"{sorted(sue.pairs)}")
    print()

    print("=" * 72)
    print("7. WHEN THINGS GO WRONG (deadlines & degraded answers)")
    print("=" * 72)
    sharded = GraphDatabase.from_edges(
        FIGURE1_EDGES, k=3, config=ServiceConfig(shards=2)
    )
    demo = "knows{1,3}"
    full = sharded.query(demo, use_cache=False)
    print(f"query {demo!r} on shards=2: {len(full.pairs)} pairs")
    try:
        sharded.query(demo, timeout_ms=1e-6, use_cache=False)
    except QueryTimeoutError as exc:
        print(f"timeout_ms=1e-6  -> {type(exc).__name__}: {exc}")
    # Arm a fault plan under which shard 0's scans *always* fail: the
    # retries exhaust, so strict queries surface a typed error while
    # degraded queries drop the dead slice and still answer.
    outage = FaultPlan([FaultRule("shard.scan", "transient", shard=0)], seed=3)
    with armed(outage):
        try:
            sharded.query(demo, use_cache=False)
        except ShardUnavailableError as exc:
            print(f"strict query     -> {type(exc).__name__} "
                  f"(shard {exc.shard} down)")
        partial = sharded.query(demo, degraded=True, use_cache=False)
    print(f"degraded query   -> {len(partial.pairs)} of "
          f"{len(full.pairs)} pairs, "
          f"partial={partial.report.partial}, "
          f"shards_failed={partial.report.shards_failed}")
    assert partial.report.partial
    assert set(partial.pairs) <= set(full.pairs)
    print("a degraded answer is a labelled SUBSET of the true answer —")
    print("every operator is monotone, so a dropped slice can only")
    print("remove pairs, never invent them")
    sharded.close()
    print()

    print("=" * 72)
    print("8. SERVING (worker processes behind an HTTP front door)")
    print("=" * 72)
    from repro.serve import CoordinatorDatabase
    from repro.serve.server import serve_in_thread

    database = CoordinatorDatabase.from_edges(
        FIGURE1_EDGES, config=ServiceConfig(k=3, shards=2)
    )
    handle = serve_in_thread(database, supervise_interval=0.1)
    client = Client(port=handle.port)
    try:
        health = client.health()
        print(f"serving on port {handle.port}: "
              f"{health['shards']} shard workers, backend "
              f"{health['backend']}")
        remote = client.query(demo)
        assert remote.pairs == frozenset(full.pairs)
        print(f"remote query     -> {demo!r}: {len(remote.pairs)} pairs, "
              f"identical to the embedded answer")
        # Kill a worker process outright — harsher than stage 8's fault
        # plan, but the contract is the same: typed error or labelled
        # subset, never a silently wrong answer.
        database._index.handles[0].kill()
        # The coordinator's kept slices would still answer exactly;
        # drop them so the next read has to ask the dead worker.
        database.cache_clear()
        partial = client.query(demo, degraded=True, use_cache=False)
        if partial.partial:
            print(f"worker killed    -> degraded answer "
                  f"{len(partial.pairs)} of {len(full.pairs)} pairs "
                  f"(shards_failed={partial.shards_failed})")
            assert partial.pairs <= frozenset(full.pairs)
        # Supervision notices the corpse and forks a replacement; poll
        # until the answer is exact again.
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            revived = client.query(demo, degraded=True, use_cache=False)
            if not revived.partial:
                break
            time.sleep(0.1)
        assert revived.pairs == frozenset(full.pairs)
        print("supervision      -> worker restarted, answers exact again")
    finally:
        handle.stop()
        database.close()
    print()

    print("=" * 72)
    print("9. THE WRITE PATH (one apply(), a WAL, delta patches)")
    print("=" * 72)
    from repro import Mutation, MutationBatch

    with tempfile.TemporaryDirectory() as scratch:
        config = ServiceConfig(
            k=3, shards=2, mutation_log_path=str(Path(scratch) / "wal.log")
        )
        store = GraphDatabase.from_edges(FIGURE1_EDGES, config=config)
        before = len(store.query(demo, use_cache=False).pairs)
        batch = MutationBatch.of(
            Mutation.add("sue", "knows", "bob"),
            Mutation.add("bob", "knows", "ann"),
            Mutation.remove("sue", "knows", "bob"),
        )
        result = store.apply(batch)
        print(f"apply(3 mutations) -> applied={result.applied} "
              f"noops={result.noops} mode={result.mode!r} "
              f"patched_shards={list(result.patched_shards)}")
        after = store.query(demo, use_cache=False).pairs
        print(f"answer moved: {before} -> {len(after)} pairs "
              f"(visible the moment apply() returns)")
        write = store.stats().write
        print(f"write stats  : groups={write.groups} "
              f"patched={write.patched} log_records={write.log_records}")
        store.close()

        # "Crash" and reopen on the same log: the journal suffix
        # replays and the answer is exactly where we left it.
        revived = GraphDatabase.from_edges(FIGURE1_EDGES, config=config)
        replayed = revived.stats().write.replayed
        assert revived.query(demo, use_cache=False).pairs == after
        print(f"after reopen : {replayed} batch(es) replayed from the "
              f"log, answers identical — no mutation lost, none doubled")
        revived.close()


if __name__ == "__main__":
    main()
