"""Rule ``fault-point``: I/O boundaries must route through the chaos seams.

The deterministic fault harness (:mod:`repro.faults`) only proves what
it can reach.  Eight injection points cover the engine's I/O
boundaries — pager reads, shard scans, shard builds, the gather merge,
the serve layer's RPC send/receive, and the mutation log's
append/flush — and the chaos CI job arms most of them.
New I/O that bypasses ``fire()``/``retry_call`` silently shrinks that
coverage, so this rule pins it down twice over:

* every known boundary function must contain a ``fire("<its point>")``
  call (directly or in a nested ``attempt()``) or a ``retry_call``;
* every ``fire(...)`` call site must pass a string literal that names
  one of :data:`repro.faults.INJECTION_POINTS` — a typo'd or computed
  point would arm nothing and fail silently.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.core import Finding, Module, Rule, call_name
from repro.faults import INJECTION_POINTS

#: ``(file suffix, qualname pattern, required injection point)``.
BOUNDARIES = (
    ("repro/storage/pager.py", r"Pager\.read_page$", "storage.read_page"),
    ("repro/sharding.py", r"\.shard_scan$", "shard.scan"),
    ("repro/sharding.py", r"\.shard_scan_swapped$", "shard.scan"),
    ("repro/sharding.py", r"\._serial_shard$", "shard.build"),
    ("repro/engine/operators.py", r"^execute_scattered$", "gather.merge"),
    ("repro/serve/coordinator.py", r"WorkerStub\._call$", "rpc.send"),
    ("repro/serve/coordinator.py", r"WorkerStub\._call$", "rpc.recv"),
    ("repro/serve/coordinator.py", r"RpcShardedGraph\.shard_scan$", "shard.scan"),
    ("repro/write/log.py", r"MutationLog\.append$", "mutlog.append"),
    ("repro/write/log.py", r"MutationLog\.flush$", "mutlog.flush"),
)


def _qualname(module: Module, function: ast.FunctionDef) -> str:
    scope = module.scope_of(function)
    return function.name if scope == "<module>" else f"{scope}.{function.name}"


def _fires_point(function: ast.FunctionDef, point: str) -> bool:
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name == "retry_call":
            return True
        if name == "fire" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and first.value == point:
                return True
    return False


class FaultPointRule(Rule):
    id = "fault-point"
    description = (
        "I/O boundary functions must pass through faults.fire()/"
        "retry_call, and fire() points must be literal members of "
        "INJECTION_POINTS"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        yield from self._check_boundaries(module)
        if not module.relpath.endswith("repro/faults.py"):
            yield from self._check_fire_literals(module)

    def _check_boundaries(self, module: Module) -> Iterator[Finding]:
        for node in module.walk():
            if not isinstance(node, ast.FunctionDef):
                continue
            qualname = _qualname(module, node)
            for suffix, pattern, point in BOUNDARIES:
                if not module.relpath.endswith(suffix):
                    continue
                if not re.search(pattern, qualname):
                    continue
                if not _fires_point(node, point):
                    yield self.finding(
                        module,
                        node,
                        f"I/O boundary {qualname} does not pass through "
                        f'fire("{point}") or retry_call — the chaos '
                        "harness cannot reach it",
                    )

    def _check_fire_literals(self, module: Module) -> Iterator[Finding]:
        for node in module.walk():
            if not isinstance(node, ast.Call) or call_name(node) != "fire":
                continue
            if not node.args:
                continue
            first = node.args[0]
            if not isinstance(first, ast.Constant) or not isinstance(first.value, str):
                yield self.finding(
                    module,
                    node,
                    "fire() must be called with a literal injection-point "
                    "string (a computed point cannot be audited)",
                )
            elif first.value not in INJECTION_POINTS:
                yield self.finding(
                    module,
                    node,
                    f'fire("{first.value}") names an unknown injection '
                    "point; known points: " + ", ".join(INJECTION_POINTS),
                )
