"""Terminal plotting: grouped bar charts for the Figure-2 panels.

The paper's Figure 2 is three bar charts; matplotlib is not available
in the offline environment, so this renders the same panels as Unicode
bar charts.  Used by ``examples/figure2_experiment.py`` and the CLI.
"""

from __future__ import annotations

from repro_bench.harness import Measurement
from repro.errors import ValidationError

_BLOCKS = " ▏▎▍▌▋▊▉█"


def horizontal_bar(value: float, maximum: float, width: int = 40) -> str:
    """A fixed-width bar representing ``value / maximum``."""
    if width < 1:
        raise ValidationError(f"width must be >= 1, got {width}")
    if maximum <= 0:
        return " " * width
    fraction = max(0.0, min(value / maximum, 1.0))
    eighths = round(fraction * width * 8)
    full, remainder = divmod(eighths, 8)
    bar = "█" * full
    if remainder and full < width:
        bar += _BLOCKS[remainder]
    return bar.ljust(width)


def bar_chart(
    rows: list[tuple[str, float]],
    width: int = 40,
    unit: str = "ms",
) -> str:
    """A labeled horizontal bar chart from (label, value) rows."""
    if not rows:
        return "(no data)"
    label_width = max(len(label) for label, _ in rows)
    maximum = max(value for _, value in rows)
    lines = []
    for label, value in rows:
        bar = horizontal_bar(value, maximum, width)
        lines.append(f"{label:<{label_width}} │{bar}│ {value:8.2f} {unit}")
    return "\n".join(lines)


def figure2_panel_chart(
    measurements: list[Measurement], k: int, width: int = 36
) -> str:
    """One Figure-2 panel as a grouped bar chart (queries × methods)."""
    panel = [m for m in measurements if m.k == k]
    if not panel:
        return f"(no measurements for k={k})"
    methods = list(dict.fromkeys(m.method for m in panel))
    queries = list(dict.fromkeys(m.query for m in panel))
    by_key = {(m.query, m.method): m.seconds * 1000.0 for m in panel}
    maximum = max(by_key.values())
    lines = [f"Figure 2, panel k={k} (bar = run-time, ms)"]
    for query in queries:
        lines.append(query)
        for method in methods:
            value = by_key.get((query, method))
            if value is None:
                continue
            bar = horizontal_bar(value, maximum, width)
            lines.append(f"  {method:<11} │{bar}│ {value:8.2f}")
    return "\n".join(lines)


def figure2_charts(measurements: list[Measurement], width: int = 36) -> str:
    """All panels, mirroring the paper's three side-by-side charts."""
    ks = sorted({m.k for m in measurements})
    return "\n\n".join(
        figure2_panel_chart(measurements, k, width) for k in ks
    )
