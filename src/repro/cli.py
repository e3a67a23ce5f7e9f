"""Command-line interface: ``repro-rpq`` / ``python -m repro``.

Subcommands serve a database: the life of a query the demo walks
through (load, inspect, explain, run), writes, the HTTP service and
the invariant checker:

    repro-rpq stats --synthetic bench
    repro-rpq query --synthetic bench -k 2 "master/journeyer"
    repro-rpq explain --synthetic bench -k 3 --method minjoin "master/journeyer"
    repro-rpq prepared --synthetic small 'master{1,$n}' n=1 n=2
    repro-rpq mutate --synthetic bench < delta.txt
    repro-rpq serve --synthetic bench --workers 2
    repro-rpq lint src/

The paper's tables (Figure 2, the Section 6 comparisons, index build,
histogram ablation) are printed by ``benchmarks/paper_experiments.py``.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import GraphDatabase
from repro.errors import ReproError
from repro.graph.generators import SCALES, advogato_like
from repro.graph.stats import summarize


def _load_database(args: argparse.Namespace, k: int | None = None) -> GraphDatabase:
    k = k if k is not None else args.k
    if args.graph is not None:
        return GraphDatabase.from_file(args.graph, k=k)
    nodes, edges = SCALES[args.synthetic]
    graph = advogato_like(nodes=nodes, edges=edges, seed=args.seed)
    return GraphDatabase(graph, k=k)


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--graph", help="graph file (.tsv/.json/.csv)")
    source.add_argument(
        "--synthetic",
        choices=sorted(SCALES),
        default="bench",
        help="use a seeded Advogato-like synthetic graph (default: bench)",
    )
    parser.add_argument("--seed", type=int, default=7, help="generator seed")
    parser.add_argument("-k", type=int, default=2, help="index locality k")


def _cmd_stats(args: argparse.Namespace) -> int:
    database = _load_database(args)
    print(summarize(database.graph).format())
    index = database.index
    print(f"index:  k={index.k} paths={index.path_count} entries={index.entry_count}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    database = _load_database(args)
    result = database.query(
        args.query,
        method=args.method,
        timeout_ms=args.timeout_ms,
        degraded=args.degraded,
    )
    for source, target in sorted(result.pairs):
        print(f"{source}\t{target}")
    partial = ", PARTIAL" if result.report is not None and result.report.partial else ""
    print(
        f"# {len(result.pairs)} pairs in {result.seconds * 1000.0:.2f} ms "
        f"({result.method}, k={database.k}{partial})",
        file=sys.stderr,
    )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    database = _load_database(args)
    print(database.explain(args.query, method=args.method))
    return 0


def _parse_binding(text: str) -> dict[str, int | str]:
    """One ``name=value[,name=value...]`` binding; ints stay ints."""
    binding: dict[str, int | str] = {}
    for part in text.split(","):
        name, separator, value = part.partition("=")
        if not separator or not name:
            raise ReproError(
                f"binding {part!r} must look like name=value "
                f"(e.g. n=3 or v=alice,n=2)"
            )
        binding[name.strip()] = (
            int(value) if value.strip().lstrip("-").isdigit() else value.strip()
        )
    return binding


def _cmd_prepared(args: argparse.Namespace) -> int:
    database = _load_database(args)
    statement = database.prepare(args.template, method=args.method)
    for text in args.bindings:
        binding = _parse_binding(text)
        result = statement.bind(**binding).run()
        print(
            f"{text}: {len(result.pairs)} pairs in "
            f"{result.seconds * 1000.0:.2f} ms  ({result.query})"
        )
    info = database.stats().as_dict()
    print(
        f"# plans computed {info['plans_computed']}, cache hits "
        f"{info['prepared_hits']}",
        file=sys.stderr,
    )
    return 0


def _parse_mutation_line(line: str, number: int):
    """One ``add|remove|+|- source label target`` line -> Mutation."""
    from repro.write import Mutation

    parts = line.split()
    if len(parts) != 4:
        raise ReproError(
            f"line {number}: expected 'add|remove source label target', "
            f"got {line!r}"
        )
    kind, source, label, target = parts
    if kind in ("add", "+"):
        return Mutation.add(source, label, target)
    if kind in ("remove", "-"):
        return Mutation.remove(source, label, target)
    raise ReproError(f"line {number}: kind must be add/remove/+/-, got {kind!r}")


def _cmd_mutate(args: argparse.Namespace) -> int:
    """Apply an edge-list delta from stdin as one mutation batch."""
    from repro.write import MutationBatch

    mutations = []
    for number, line in enumerate(sys.stdin, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        mutations.append(_parse_mutation_line(line, number))
    batch = MutationBatch.of(*mutations)
    if args.port is not None:
        from repro.client import Client

        result = Client(host=args.host, port=args.port).apply(batch)
    else:
        database = _load_database(args)
        result = database.apply(batch)
    print(
        f"# applied {result.applied}, no-ops {result.noops}, "
        f"version {result.version}, mode {result.mode}"
        + (
            f", patched shards {list(result.patched_shards)}"
            if result.patched_shards
            else ""
        ),
        file=sys.stderr,
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the repo's own invariant analyzer (see repro.analysis).

    Exits non-zero on findings outside the committed baseline, so it
    works as a pre-commit gate exactly like the CI job.
    """
    from repro.analysis.__main__ import main as analysis_main

    argv = list(args.paths)
    argv += ["--baseline", args.baseline]
    if args.no_baseline:
        argv.append("--no-baseline")
    if args.report is not None:
        argv += ["--report", args.report]
    return analysis_main(argv)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-process query service until interrupted."""
    from repro.api import ServiceConfig
    from repro.serve import CoordinatorDatabase
    from repro.serve.server import serve_forever

    config = ServiceConfig(
        k=args.k,
        shards=args.workers,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        queue_limit=args.queue_limit,
    )
    if args.graph is not None:
        database = CoordinatorDatabase.from_file(args.graph, config=config)
    else:
        nodes, edges = SCALES[args.synthetic]
        graph = advogato_like(nodes=nodes, edges=edges, seed=args.seed)
        database = CoordinatorDatabase(graph, config=config)

    try:
        serve_forever(database, config)
    except KeyboardInterrupt:
        pass
    finally:
        database.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-rpq",
        description="RPQ evaluation with k-path indexes (EDBT 2016 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    stats = commands.add_parser("stats", help="graph and index statistics")
    _add_graph_arguments(stats)
    stats.set_defaults(handler=_cmd_stats)

    query = commands.add_parser("query", help="run one RPQ")
    _add_graph_arguments(query)
    query.add_argument("query", help="RPQ text, e.g. 'master/journeyer'")
    query.add_argument("--method", default="minsupport")
    query.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        help="fail with a typed timeout error past this deadline",
    )
    query.add_argument(
        "--degraded",
        action="store_true",
        help="accept a partial answer if a shard is down (sharded engine)",
    )
    query.set_defaults(handler=_cmd_query)

    explain = commands.add_parser("explain", help="show the physical plan")
    _add_graph_arguments(explain)
    explain.add_argument("query")
    explain.add_argument("--method", default="minsupport")
    explain.set_defaults(handler=_cmd_explain)

    prepared = commands.add_parser(
        "prepared", help="prepare a template once, run many bindings"
    )
    _add_graph_arguments(prepared)
    prepared.add_argument(
        "template",
        help="RPQ template, e.g. 'from($v): knows{1,$n}/worksFor'",
    )
    prepared.add_argument(
        "bindings",
        nargs="+",
        help="one binding per argument: 'n=2' or 'v=alice,n=3'",
    )
    prepared.add_argument("--method", default="minsupport")
    prepared.set_defaults(handler=_cmd_prepared)

    mutate = commands.add_parser(
        "mutate", help="apply an edge-list delta from stdin as one batch"
    )
    _add_graph_arguments(mutate)
    mutate.add_argument(
        "--host", default="127.0.0.1", help="server host (with --port)"
    )
    mutate.add_argument(
        "--port",
        type=int,
        default=None,
        help="send the batch to a running server instead of a local graph",
    )
    mutate.set_defaults(handler=_cmd_mutate)

    lint = commands.add_parser(
        "lint", help="check the engine's concurrency/resilience invariants"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    lint.add_argument(
        "--baseline",
        default="analysis-baseline.json",
        help="justified-suppressions file (default: analysis-baseline.json)",
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring the baseline",
    )
    lint.add_argument(
        "--report", default=None, help="write the JSON findings report here"
    )
    lint.set_defaults(handler=_cmd_lint)

    serve = commands.add_parser(
        "serve", help="run the multi-process HTTP query service"
    )
    _add_graph_arguments(serve)
    serve.add_argument(
        "--workers", type=int, default=4, help="shard worker processes"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642, help="listen port (0 = ephemeral)"
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="queries executing concurrently before new ones queue",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help="queued queries before the server sheds load with 503",
    )
    serve.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
