"""Rendering experiment rows as the paper's tables and panels."""

from __future__ import annotations

from statistics import geometric_mean

from repro_bench.harness import ComparisonRow, HistogramRow, IndexBuildRow, Measurement


def _format_ms(seconds: float) -> str:
    return f"{seconds * 1000.0:9.2f}"


def format_figure2(measurements: list[Measurement]) -> str:
    """The three Figure-2 panels: per-query run-times (ms) by method."""
    ks = sorted({m.k for m in measurements})
    methods = list(dict.fromkeys(m.method for m in measurements))
    queries = list(dict.fromkeys(m.query for m in measurements))
    by_key = {(m.query, m.method, m.k): m for m in measurements}
    lines: list[str] = []
    for k in ks:
        lines.append(f"Figure 2, panel k={k} — query execution times (ms)")
        header = "query  " + "".join(f"{method:>12}" for method in methods)
        lines.append(header)
        lines.append("-" * len(header))
        for query in queries:
            cells = []
            for method in methods:
                measurement = by_key.get((query, method, k))
                cells.append(
                    _format_ms(measurement.seconds).rjust(12)
                    if measurement
                    else " " * 12
                )
            lines.append(f"{query:<7}" + "".join(cells))
        lines.append("")
    return "\n".join(lines)


def format_comparison(rows: list[ComparisonRow], baseline_name: str) -> str:
    """Per-query speedups of the path index over one baseline."""
    lines = [
        f"minSupport (path index) vs {baseline_name} — per-query times",
        f"{'query':<7}{'index (ms)':>12}{baseline_name + ' (ms)':>16}{'speedup':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row.query:<7}{_format_ms(row.index_seconds):>12}"
            f"{_format_ms(row.baseline_seconds):>16}{row.speedup:>9.1f}x"
        )
    speedups = [row.speedup for row in rows if row.speedup != float("inf")]
    if speedups:
        lines.append(
            f"{'geomean':<7}{'':>12}{'':>16}{geometric_mean(speedups):>9.1f}x"
        )
    return "\n".join(lines)


def format_index_build(rows: list[IndexBuildRow]) -> str:
    """Index size / build-time table."""
    lines = [
        f"{'k':>3}{'backend':>10}{'build (s)':>12}{'entries':>12}{'paths':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row.k:>3}{row.backend:>10}{row.build_seconds:>12.3f}"
            f"{row.entries:>12}{row.paths:>8}"
        )
    return "\n".join(lines)


def format_histogram(rows: list[HistogramRow]) -> str:
    """Histogram ablation table."""
    lines = [
        f"{'buckets':>8}{'mean |err|':>12}{'workload (ms)':>15}",
    ]
    for row in rows:
        lines.append(
            f"{row.buckets:>8}{row.mean_absolute_error:>12.2f}"
            f"{row.minsupport_seconds * 1000.0:>15.2f}"
        )
    return "\n".join(lines)


def figure2_trends(measurements: list[Measurement]) -> dict[str, bool]:
    """The qualitative claims of Section 5 as booleans.

    * ``naive_worst`` — naive is the slowest method per (query, k) in
      aggregate;
    * ``histogram_helps`` — the paper's claim is that semi-naive "is
      generally outperformed by minSupport and minJoin": the better of
      the two histogram-guided strategies must not lose to semi-naive
      in aggregate (2% tolerance for timer noise);
    * ``k_improves`` — for non-naive methods, total time at max k is
      below total time at k=1.
    """
    methods = {m.method for m in measurements}
    totals = {
        method: sum(m.seconds for m in measurements if m.method == method)
        for method in methods
    }
    naive_worst = all(
        totals.get("naive", 0.0) >= total
        for method, total in totals.items()
        if method != "naive"
    )
    guided = min(
        totals.get("minsupport", float("inf")),
        totals.get("minjoin", float("inf")),
    )
    histogram_helps = guided <= totals.get("semi-naive", float("inf")) * 1.02
    ks = sorted({m.k for m in measurements})
    k_improves = True
    if len(ks) > 1:
        low_k, high_k = ks[0], ks[-1]
        for method in methods - {"naive"}:
            low_total = sum(
                m.seconds
                for m in measurements
                if m.method == method and m.k == low_k
            )
            high_total = sum(
                m.seconds
                for m in measurements
                if m.method == method and m.k == high_k
            )
            if high_total > low_total:
                k_improves = False
    return {
        "naive_worst": naive_worst,
        "histogram_helps": histogram_helps,
        "k_improves": k_improves,
    }
