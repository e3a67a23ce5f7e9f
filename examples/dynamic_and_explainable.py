"""Extensions beyond the demo paper: updates, witnesses, compression.

Three features the paper leaves as future work or delegates to the
companion study, shown working together:

1. **Incremental index maintenance** — edges are inserted and deleted
   while ``I_{G,k}`` stays consistent (no rebuild);
2. **Witness extraction** — every answer pair can be justified by a
   concrete shortest path;
3. **Compressed index backend** — delta+varint postings, with the
   measured compression ratio.

Run:  python examples/dynamic_and_explainable.py
"""

from repro.api import GraphDatabase
from repro.config import ServiceConfig
from repro.graph.examples import FIGURE1_EDGES, figure1_graph
from repro.graph.graph import LabelPath
from repro.indexes.compressed import compression_ratio
from repro.indexes.pathindex import PathIndex
from repro.write import Mutation


def incremental_updates() -> None:
    print("=" * 64)
    print("1. INCREMENTAL INDEX MAINTENANCE")
    print("=" * 64)
    db = GraphDatabase(figure1_graph(), config=ServiceConfig(k=2, shards=1))
    index = db.index
    path = LabelPath.of("knows", "worksFor")
    print(f"initially: |{path}| = {index.count(path)} pairs, "
          f"{index.entry_count} total entries")

    print("\ninsert liz -knows-> zoe  (new 2-paths through the edge appear)")
    result = db.apply(Mutation.add("liz", "knows", "zoe"))
    print(f"now:       |{path}| = {index.count(path)} pairs, "
          f"{index.entry_count} total entries  (mode={result.mode})")

    print("\ndelete it again")
    result = db.apply(Mutation.remove("liz", "knows", "zoe"))
    print(f"back to:   |{path}| = {index.count(path)} pairs, "
          f"{index.entry_count} total entries  (mode={result.mode})")

    fresh = PathIndex.build(db.graph, 2)
    consistent = db.index is index and all(
        index.scan(p) == fresh.scan(p) for p in fresh.paths()
    )
    print(f"\nconsistency vs full rebuild: {'OK' if consistent else 'BROKEN'}")
    print()


def witnesses() -> None:
    print("=" * 64)
    print("2. WITNESS EXTRACTION")
    print("=" * 64)
    db = GraphDatabase.from_edges(FIGURE1_EDGES, k=2)
    query = "knows/knows/worksFor"
    result = db.query(query)
    print(f"{query}: {len(result)} answer pairs")
    for source, target in sorted(result.pairs)[:4]:
        witness = db.witness(source, target, query)
        print(f"  ({source}, {target}) because  {witness}")
    print()


def compression() -> None:
    print("=" * 64)
    print("3. COMPRESSED INDEX BACKEND")
    print("=" * 64)
    from repro.graph.generators import advogato_like

    graph = advogato_like(nodes=300, edges=2000, seed=5)
    compressed = PathIndex.build(graph, k=2, backend="compressed")
    ratio = compression_ratio(compressed._backend)
    raw_bytes = 24 * compressed.entry_count
    actual = compressed._backend.byte_size()
    print(f"entries:          {compressed.entry_count}")
    print(f"raw 3x int64:     {raw_bytes / 1024:.0f} KiB")
    print(f"delta+varint:     {actual / 1024:.0f} KiB "
          f"({ratio:.1%} of raw)")

    db = GraphDatabase(graph, k=2, config=ServiceConfig(backend="compressed"))
    result = db.query("master/journeyer")
    print(f"query through compressed index: master/journeyer -> "
          f"{len(result)} pairs in {result.seconds * 1000:.2f} ms")


if __name__ == "__main__":
    incremental_updates()
    witnesses()
    compression()
