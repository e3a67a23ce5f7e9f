"""Building, persisting and re-opening a disk-backed k-path index.

The paper's prototype stores ``I_{G,k}`` in PostgreSQL tables backed by
B+trees.  Here the disk backend is the memory backend's per-path sorted
columns plus one image file (magic number, version, catalog, columns,
CRC32); this example shows the full persistence cycle:

1. build the index and write its image,
2. re-open the image in a fresh session and answer queries.

Run:  python examples/disk_index_persistence.py
"""

import tempfile
from pathlib import Path

from repro.graph.generators import advogato_like
from repro.graph.graph import LabelPath
from repro.indexes.pathindex import PathIndex


def main() -> None:
    graph = advogato_like(nodes=250, edges=1500, seed=13)
    workdir = Path(tempfile.mkdtemp(prefix="rpq_index_"))
    index_path = workdir / "advogato_k2.db"

    print(f"building disk index at {index_path} ...")
    index = PathIndex.build(graph, k=2, backend="disk", path=index_path)
    entries = index.entry_count
    paths = index.path_count
    size = index_path.stat().st_size
    print(f"  {entries} entries over {paths} label paths")
    print(f"  image: {size / 1024:.0f} KiB, {size / entries:.1f} bytes per entry")
    print()

    print("re-opening in a fresh session ...")
    with PathIndex.open_disk(graph, index_path) as reopened:
        sample = LabelPath.of("master", "journeyer")
        pairs = reopened.scan(sample)
        print(f"  scan({sample}) -> {len(pairs)} pairs")

        some_source = pairs[0][0] if pairs else 0
        targets = reopened.scan_from(sample, some_source)
        print(f"  scan_from({sample}, node {some_source}) -> "
              f"{len(targets)} targets")

        swapped = reopened.scan_swapped(sample)
        print(f"  scan_swapped({sample}) -> {len(swapped)} pairs "
              f"(target-sorted, for merge joins)")


if __name__ == "__main__":
    main()
