"""Print the paper's tables on the synthetic Advogato stand-in.

One run regenerates every empirical artifact the benchmarks assert:

* ``figure2`` — Figure 2's panels of per-query run-times (8 queries x
  4 strategies x each k) and the Section 5 trends they must show;
* ``compare-datalog`` — the Section 6 Datalog comparison (per-query
  speedups and their geomean);
* ``compare-automaton`` — the same comparison against the automaton
  (graph x NFA product search) baseline;
* ``index-build`` — index size and build time vs k;
* ``histogram`` — bucket count vs estimation error and minSupport time.

Run from the repository root::

    PYTHONPATH=src python benchmarks/paper_experiments.py    # every table, bench scale
    PYTHONPATH=src python benchmarks/paper_experiments.py --scale small
    PYTHONPATH=src python benchmarks/paper_experiments.py figure2 --ks 1 3 --chart

``--scale`` names a size in :data:`repro.graph.generators.SCALES`
(``full`` is the real Advogato's).  The experiments are
:mod:`repro_bench.harness`; ``bench_*.py`` beside this file assert the
same tables' shapes under pytest.
"""

from __future__ import annotations

import argparse

from repro.graph.generators import SCALES
from repro_bench.harness import (
    run_comparison,
    run_figure2,
    run_histogram_ablation,
    run_index_build,
)
from repro_bench.plots import figure2_charts
from repro_bench.reporting import (
    figure2_trends,
    format_comparison,
    format_figure2,
    format_histogram,
    format_index_build,
)
from repro_bench.workloads import PreparedWorkload, advogato_workload


def _figure2(prepared: PreparedWorkload, args: argparse.Namespace) -> str:
    measurements = run_figure2(prepared, ks=tuple(args.ks), repeats=args.repeats)
    lines = [format_figure2(measurements)]
    if args.chart:
        lines.append(figure2_charts(measurements))
    for claim, holds in figure2_trends(measurements).items():
        lines.append(f"trend {claim}: {'holds' if holds else 'VIOLATED'}")
    return "\n".join(lines)


def _comparison(baseline: str):
    def table(prepared: PreparedWorkload, args: argparse.Namespace) -> str:
        rows = run_comparison(prepared, baseline, k=args.k, repeats=args.repeats)
        return format_comparison(rows, baseline)

    return table


def _index_build(prepared: PreparedWorkload, args: argparse.Namespace) -> str:
    return format_index_build(run_index_build(prepared.graph, ks=tuple(args.ks)))


def _histogram(prepared: PreparedWorkload, args: argparse.Namespace) -> str:
    rows = run_histogram_ablation(prepared, k=args.k, repeats=args.repeats)
    return format_histogram(rows)


#: Table name -> (heading, function printing it), in print order.
TABLES = {
    "figure2": ("Figure 2 — query execution times", _figure2),
    "compare-datalog": ("Section 6 — vs Datalog", _comparison("Datalog")),
    "compare-automaton": ("Section 6 — vs the automaton", _comparison("automaton")),
    "index-build": ("Index build — size and time vs k", _index_build),
    "histogram": ("Histogram ablation — buckets vs error", _histogram),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tables", nargs="*", help=f"from {list(TABLES)} (default: all)")
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench")
    parser.add_argument("--ks", type=int, nargs="+", default=[1, 2, 3],
                        help="index localities of Figure 2 and the build table")
    parser.add_argument("-k", type=int, default=3,
                        help="index locality of the comparisons and the histogram")
    parser.add_argument("--repeats", type=int, default=3, help="timed runs per cell")
    parser.add_argument("--chart", action="store_true", help="add Figure 2 bar charts")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    unknown = [name for name in args.tables if name not in TABLES]
    if unknown:
        parser.error(f"unknown tables {unknown}; choose from {list(TABLES)}")
    prepared = advogato_workload(scale=args.scale, ks=())
    graph = prepared.graph
    print(
        f"# Advogato-like workload, scale={args.scale!r}: {graph.node_count} "
        f"nodes, {graph.edge_count} edges, labels {list(graph.labels())}"
    )
    for name in args.tables or TABLES:
        heading, table = TABLES[name]
        print(f"\n## {heading}")
        print(table(prepared, args))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
