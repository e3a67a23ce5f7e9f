"""Rule ``one-schedule``: no worker pool inside the package.

Work inside one ``GraphDatabase`` process runs on the calling thread;
parallelism is process-per-shard serving (``repro serve --workers N``)
and the caller's own threads, and the front door gives each connection
one thread that runs its requests whole.  Every in-process pool the
package once had measured slower than the loop it replaced — the front
door's hop to an executor thread and back cost a served read ≈0.4 ms —
so a pool cannot grow back one call site at a time without a benchmark
row.  Any use of ``ThreadPoolExecutor``, ``ProcessPoolExecutor`` or
``run_in_executor`` (a name, an attribute or an import) is flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Module, Rule

#: What hands work to a pool of threads or processes.
POOLS = {"ThreadPoolExecutor", "ProcessPoolExecutor", "run_in_executor"}


def _used_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    return None


class OneScheduleRule(Rule):
    id = "one-schedule"
    description = (
        "no ThreadPoolExecutor, ProcessPoolExecutor or run_in_executor "
        "inside the package: work runs on the calling thread"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        for node in module.walk():
            name = _used_name(node)
            if name in POOLS:
                yield self.finding(
                    module,
                    node,
                    f"{name} hands work to a pool; run it on the calling "
                    "thread (parallelism is processes per shard and the "
                    "caller's own threads)",
                )
