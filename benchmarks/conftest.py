"""Shared fixtures for the pytest-benchmark suite.

The benchmarks reproduce the paper's experiments; ``paper_experiments.py``
beside this file prints every table in one run.  Graphs default to the
"small" synthetic Advogato scale so the whole suite runs in minutes of
pure-Python time; the harness functions in :mod:`repro_bench` accept
larger scales for paper-sized runs (``paper_experiments.py --scale full``).
"""

from __future__ import annotations

import pytest

from repro_bench.workloads import PreparedWorkload, advogato_workload


@pytest.fixture(scope="session")
def prepared_small() -> PreparedWorkload:
    """Advogato-like graph (120 nodes / 600 edges), k=1..3 indexed."""
    return advogato_workload(scale="small", ks=(1, 2, 3))


@pytest.fixture(scope="session")
def prepared_bench() -> PreparedWorkload:
    """Advogato-like graph (300 nodes / 1800 edges), k=1..2 indexed."""
    return advogato_workload(scale="bench", ks=(1, 2))
