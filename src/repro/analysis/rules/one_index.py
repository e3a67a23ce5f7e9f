"""Rule ``one-index``: no ``isinstance`` dispatch on the index type.

``GraphDatabase`` holds a :class:`~repro.sharding.ShardedGraph` at
every shard count, and the executor selects scatter-gather on
``shard_count`` alone.  A branch on ``isinstance(x, ShardedGraph)`` or
``isinstance(x, PathIndex)`` outside the two modules that define those
types is the old unsharded/sharded fork growing back, so it is flagged
whether the type is named directly, through a module, or inside a
tuple of types.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Module, Rule, call_name

#: The index types, and the modules allowed to test for them.
INDEX_TYPES = {"ShardedGraph", "PathIndex"}
DEFINING_MODULES = ("repro/sharding.py", "repro/indexes/pathindex.py")


def _type_names(node: ast.AST) -> Iterator[str]:
    if isinstance(node, ast.Tuple):
        for element in node.elts:
            yield from _type_names(element)
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr


class OneIndexRule(Rule):
    id = "one-index"
    description = (
        "no isinstance dispatch on ShardedGraph or PathIndex outside "
        "the modules defining them: one index representation"
    )

    def applies(self, relpath: str) -> bool:
        return super().applies(relpath) and not relpath.endswith(DEFINING_MODULES)

    def check(self, module: Module) -> Iterator[Finding]:
        for node in module.walk():
            if not (
                isinstance(node, ast.Call)
                and call_name(node) == "isinstance"
                and len(node.args) == 2
            ):
                continue
            for name in _type_names(node.args[1]):
                if name in INDEX_TYPES:
                    yield self.finding(
                        module,
                        node,
                        f"isinstance(..., {name}) branches on the index type; "
                        "select on index.shard_count instead",
                    )
