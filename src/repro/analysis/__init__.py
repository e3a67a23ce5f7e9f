"""AST-based invariant checker for the repro engine's own contracts.

Run it as ``python -m repro.analysis src/`` or ``repro-rpq lint``.
See :mod:`repro.analysis.core` for the framework and
:mod:`repro.analysis.rules` for the seven invariants it enforces.
"""

from repro.analysis.core import (
    Finding,
    Module,
    Rule,
    analyze_paths,
    analyze_source,
    apply_baseline,
    default_rules,
    load_baseline,
)

__all__ = [
    "Finding",
    "Module",
    "Rule",
    "analyze_paths",
    "analyze_source",
    "apply_baseline",
    "default_rules",
    "load_baseline",
]
