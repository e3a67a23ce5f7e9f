"""Compare two reports of ``run.py --out``: one row per (workload, metric).

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

Each side is summarised by the median of its runs and by its spread,
the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``, what the driver uses).
Against the metric's bound in ``BENCHMARK.json`` a row reads

* ``unresolved`` either side's spread is wider than the bound, so the
  runs cannot tell a change of that size from noise;
* ``worse``      the new median is worse than the base by more than the bound;
* ``better``     the new median is better by more than the bound;
* ``same``       otherwise.

Per-layer metrics have no bound and read ``-``.  Exits 1 if any row is
``worse``, if a bounded (workload, metric) of BASE is missing from NEW,
or if any run of NEW was incorrect or had failed operations: a gain
does not count when more operations fail.  Comparing two run sets of
one commit is the repeatability check: every row must read ``same``.
Make the two sets by alternating runs (A, B, B, A, ...), so that a slow
spell of the host falls on both.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
BOUNDED = {metric["name"]: metric for metric in SPEC["end_to_end"]}

Values = dict[tuple[str, str], list[float]]


def load(path: str) -> tuple[Values, list[str]]:
    """``(workload, metric) -> values`` and a note per run that failed."""
    values: Values = defaultdict(list)
    failures = []
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["failed"] or not run["correct"]:
            failures.append(
                f"{run['workload']} seed {run['info']['seed']}: "
                f"{run['failed']} of {run['attempted']} operations failed"
            )
        for name, metric in run["metrics"].items():
            values[run["workload"], name].append(metric["value"])
    return values, failures


def spread(values: list[float]) -> float:
    """Interquartile range over the median; 0 for fewer than two runs."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(median)


def verdict(name: str, base: list[float], new: list[float]) -> str:
    metric = BOUNDED.get(name)
    if metric is None:
        return "-"
    bound = metric["bound"]
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    base_median, new_median = statistics.median(base), statistics.median(new)
    change = (new_median - base_median) / base_median if base_median else 0.0
    if metric["better"] == "higher":
        change = -change
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base, _), (new, failures) = load(argv[0]), load(argv[1])
    print(
        f"{'workload':20s} {'metric':34s} {'base':>12s} {'new':>12s} "
        f"{'ratio':>7s} {'spread':>13s} {'bound':>6s}  verdict"
    )
    rejected = len(failures)
    for key in base:
        workload, name = key
        if key not in new:
            if name in BOUNDED:
                rejected += 1
                print(f"{workload:20s} {name:34s} missing from {argv[1]}")
            continue
        base_median = statistics.median(base[key])
        new_median = statistics.median(new[key])
        ratio = new_median / base_median if base_median else float("nan")
        outcome = verdict(name, base[key], new[key])
        rejected += outcome == "worse"
        bound = f"{BOUNDED[name]['bound']:.2f}" if name in BOUNDED else "-"
        print(
            f"{workload:20s} {name:34s} {base_median:12.4f} {new_median:12.4f} "
            f"{ratio:7.3f} {spread(base[key]):6.3f}/{spread(new[key]):6.3f} "
            f"{bound:>6s}  {outcome}"
        )
    for failure in failures:
        print(f"FAILED in {argv[1]}: {failure}")
    return 1 if rejected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
