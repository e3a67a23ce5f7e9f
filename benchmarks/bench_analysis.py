"""Analyzer wall-clock: the invariant checker must stay a cheap gate.

``repro lint`` runs in CI on every push and is meant to be a pre-commit
reflex locally, so its cost budget is "noticeably less than the test
suite": the full pass over ``src/`` — parse every module, link parents
and scopes, run all six rules — is gated at **<= 10 seconds**
(``GATE_SECONDS``).  The gate is deliberately loose (a cold CI runner
is ~5x slower than a laptop); the point is to catch an accidental
quadratic walk in a rule, not to benchmark the interpreter.

Run directly to print per-stage timings and export
``BENCH_analysis.json``::

    PYTHONPATH=src python benchmarks/bench_analysis.py

or under pytest (the wall-clock gate)::

    PYTHONPATH=src python -m pytest benchmarks/bench_analysis.py -q
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.analysis import analyze_paths, apply_baseline, load_baseline

REPO_ROOT = Path(__file__).resolve().parents[1]
#: Full analyzer pass over src/ must finish within this wall-clock.
GATE_SECONDS = 10.0


@dataclass(frozen=True, slots=True)
class AnalysisRow:
    """One timed analyzer pass."""

    operation: str  # "analyze-src" | "apply-baseline"
    seconds: float
    files: int
    findings: int


def timed_pass() -> list[AnalysisRow]:
    """Time the full pass over ``src/`` plus the baseline split."""
    files = len(list((REPO_ROOT / "src").rglob("*.py")))
    started = time.perf_counter()
    findings, errors = analyze_paths([REPO_ROOT / "src"], root=REPO_ROOT)
    analyze_seconds = time.perf_counter() - started
    assert errors == [], errors

    baseline = REPO_ROOT / "analysis-baseline.json"
    started = time.perf_counter()
    entries = load_baseline(baseline)
    new, stale = apply_baseline(findings, entries)
    baseline_seconds = time.perf_counter() - started
    assert new == [] and stale == [], "bench requires a clean tree"

    return [
        AnalysisRow("analyze-src", analyze_seconds, files, len(findings)),
        AnalysisRow("apply-baseline", baseline_seconds, files, len(findings)),
    ]


# -- pytest entry point --------------------------------------------------------


def test_analyzer_wall_clock_under_gate():
    """Acceptance: the full invariant pass over src/ stays under 10s."""
    rows = timed_pass()
    total = sum(row.seconds for row in rows)
    assert total <= GATE_SECONDS, (
        f"analyzer took {total:.2f}s over src/ (gate {GATE_SECONDS}s); "
        "a rule probably grew a quadratic walk"
    )


def main() -> None:
    rows = timed_pass()
    print(f"{'operation':<16}{'seconds':>10}{'files':>8}{'findings':>10}")
    for row in rows:
        print(
            f"{row.operation:<16}{row.seconds:>10.3f}"
            f"{row.files:>8}{row.findings:>10}"
        )
    from repro_bench.export import write_json

    path = Path("BENCH_analysis.json")
    write_json(rows, path, experiment="invariant-analysis")
    print(f"\nwrote {path.resolve()}")


if __name__ == "__main__":
    main()
