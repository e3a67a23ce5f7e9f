"""Shared fixtures for the test suite.

The ``REPRO_DEFAULT_SHARDS`` knob (read by
:func:`repro.api.default_shard_count`) reroutes every database the
suite builds without an explicit ``shards=`` through the sharded
engine — CI's ``sharded-stress`` step runs the whole tier-1 suite
under ``REPRO_DEFAULT_SHARDS=4`` so the scatter-gather path is
exercised by every test, not just ``test_sharding.py``.  Tests that
deliberately poke unsharded internals pin ``shards=1`` at their call
site; oracles in transparency tests do the same.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro.api import GraphDatabase, default_shard_count
from repro.graph.examples import diamond, figure1_graph, two_triangles
from repro.graph.generators import advogato_like, erdos_renyi
from repro.graph.graph import Graph

# The comparison baselines and the experiment harness are the
# measurement package under benchmarks/ (``repro_bench``), which the
# tests of that code import from there.
sys.path.append(str(Path(__file__).resolve().parents[1] / "benchmarks"))


def pytest_report_header(config) -> str:
    """Make the sharded-stress mode visible in every pytest run header."""
    shards = default_shard_count()
    if shards > 1:
        return (
            f"repro: REPRO_DEFAULT_SHARDS={os.environ['REPRO_DEFAULT_SHARDS']}"
            f" — default-configured databases run the sharded engine"
        )
    return "repro: unsharded default engine (set REPRO_DEFAULT_SHARDS to stress)"


@pytest.fixture(scope="session")
def default_shards() -> int:
    """The shard count default-configured databases resolve to."""
    return default_shard_count()


@pytest.fixture(scope="session")
def figure1() -> Graph:
    """The paper's Figure-1 example graph (reconstruction)."""
    return figure1_graph()


@pytest.fixture(scope="session")
def figure1_db(figure1: Graph) -> GraphDatabase:
    """Figure-1 graph indexed at k=2."""
    return GraphDatabase(figure1, k=2)


@pytest.fixture(scope="session")
def figure1_db_k3(figure1: Graph) -> GraphDatabase:
    """Figure-1 graph indexed at k=3."""
    return GraphDatabase(figure1, k=3)


@pytest.fixture(scope="session")
def small_social() -> Graph:
    """A small Advogato-like graph for engine tests."""
    return advogato_like(nodes=60, edges=240, seed=11)


@pytest.fixture(scope="session")
def small_social_db(small_social: Graph) -> GraphDatabase:
    return GraphDatabase(small_social, k=2)


@pytest.fixture(scope="session")
def random_two_label() -> Graph:
    """A seeded two-label random graph."""
    return erdos_renyi(nodes=25, edges=80, labels=("a", "b"), seed=3)


@pytest.fixture()
def diamond_graph() -> Graph:
    return diamond()


@pytest.fixture()
def triangles_graph() -> Graph:
    return two_triangles()
