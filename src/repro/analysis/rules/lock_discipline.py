"""Rule ``lock-discipline``: GraphDatabase state stays inside lock sections.

:class:`repro.api.GraphDatabase` guards the index/statistics triple
with a writer-preferring :class:`repro.concurrency.ReadWriteLock` and
the answer cache with a separate ``_cache_lock``.  The
convention that makes this auditable is lexical: state is written
inside a ``with ...write_locked():`` (or ``with self._cache_lock:``)
block, or inside a method whose name ends in ``_locked`` — the
caller-already-holds-the-lock marker.  This rule enforces both halves:

* an assignment to guarded state outside any such section is flagged;
* a mutation call (``add_edge``, ``absorb_group``, ...) lexically
  inside a ``read_locked()`` section is flagged — readers share the
  lock, so mutating under one races every other reader.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Module, Rule, call_name

#: Classes whose state the RW-lock convention governs: the facade and
#: the subclass that runs it over a worker fleet.
TARGET_CLASSES = {"GraphDatabase", "CoordinatorDatabase"}

#: Attributes owned by the main RW lock (the index/statistics triple).
LOCK_STATE = {
    "graph",
    "_index",
    "_exact_statistics",
    "_histogram",
    "_statistics_epoch",
}

#: Attributes owned by ``_cache_lock``: the answer cache and the
#: version it was filled at.
CACHE_STATE = {"_query_cache", "_cache_version"}

#: Calls that mutate shared state and therefore must never appear
#: lexically inside a shared (read) section.
MUTATION_CALLS = {
    "add_edge",
    "remove_edge",
    "rebuild_shards",
    "patch_shards",
    "absorb_group",
}


def _self_attribute(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _lock_kinds(module: Module, node: ast.AST) -> set[str]:
    """Lock sections lexically enclosing ``node``: read/write/cache."""
    kinds: set[str] = set()
    for ancestor in module.ancestors(node):
        if not isinstance(ancestor, ast.With):
            continue
        for item in ancestor.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
                if expr.func.attr == "read_locked":
                    kinds.add("read")
                elif expr.func.attr == "write_locked":
                    kinds.add("write")
            if any(
                isinstance(part, ast.Attribute) and part.attr == "_cache_lock"
                for part in ast.walk(expr)
            ):
                kinds.add("cache")
    return kinds


class LockDisciplineRule(Rule):
    id = "lock-discipline"
    description = (
        "GraphDatabase state must be written under write_locked()/"
        "_cache_lock (or in a *_locked method), and nothing may mutate "
        "under a read lock"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        for class_def in module.walk():
            if not isinstance(class_def, ast.ClassDef):
                continue
            if class_def.name not in TARGET_CLASSES:
                continue
            for method in class_def.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                yield from self._check_method(module, method)

    def _check_method(
        self, module: Module, method: ast.FunctionDef
    ) -> Iterator[Finding]:
        holds_lock = method.name == "__init__" or method.name.endswith("_locked")
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                else:
                    targets = [node.target]
                for target in targets:
                    attribute = _self_attribute(target)
                    if attribute is None or holds_lock:
                        continue
                    kinds = _lock_kinds(module, node)
                    if attribute in LOCK_STATE and "write" not in kinds:
                        yield self.finding(
                            module,
                            node,
                            f"self.{attribute} written outside a "
                            "write_locked() section (and "
                            f"{method.name} is not a *_locked method)",
                        )
                    elif attribute in CACHE_STATE and not kinds & {"cache", "write"}:
                        yield self.finding(
                            module,
                            node,
                            f"cache state self.{attribute} written outside "
                            "a _cache_lock/write_locked section",
                        )
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if name in MUTATION_CALLS and "read" in _lock_kinds(module, node):
                    yield self.finding(
                        module,
                        node,
                        f"mutation call {name}() inside a read_locked() "
                        "section; readers share the lock, so this races "
                        "every concurrent query",
                    )
