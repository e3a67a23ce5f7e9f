"""Plan reuse: one plan cache per database, prepared statements over it.

A plan depends only on the query and the index's statistics, so a
repeated read need not pay the parse → rewrite → plan toll again:

* :class:`PlanCache` — the database's one plan cache, shared by
  ``query()``, ``query_batch()`` and prepared runs.
* :class:`PreparedStatement` — a parsed
  :class:`~repro.rpq.parser.Template` plus its plan settings.  A bound
  run is the ``query()`` of its substituted text.

Every read plans with :func:`~repro.engine.executor.prepare_ast`
through the one cache and runs with
:func:`~repro.engine.executor.execute_prepared` in one place,
``GraphDatabase._query_locked``, so prepared and ad-hoc execution can
never drift.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import replace
from typing import TYPE_CHECKING, Callable

from repro.concurrency import BoundedLRU
from repro.engine.executor import PreparedQuery
from repro.engine.planner import Strategy
from repro.errors import ValidationError
from repro.rpq.ast import Node, substitute_params
from repro.rpq.parser import MAX_REPEAT_BOUND, Template, parse_query
from repro.stats import PreparedStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports us)
    from repro.api import GraphDatabase, QueryResult

#: Cap on each of the plan cache's two maps (LRU eviction): parsed
#: texts, and plans.  Traffic over an unbounded set of texts keeps its
#: hottest queries planned and re-derives the rest.
PLAN_CACHE_MAX = 256


# -- the plan cache ------------------------------------------------------------


class PlanCache:
    """A database's one plan cache: text → AST, and AST → plan.

    Two :class:`~repro.concurrency.BoundedLRU` of ``PLAN_CACHE_MAX``
    entries.  :meth:`parse` memoises
    :func:`~repro.rpq.parser.parse_query`, which is pure, so an entry
    never goes stale (a text that raises is never stored).
    :meth:`plan` keys on ``(AST, strategy, use_exact_statistics,
    max_disjuncts)`` — not the anchor, which pins execution, so ``q``
    and ``from(x): q`` share a plan — and a lookup under another
    ``(graph version, statistics epoch)`` stamp re-plans.  A reused
    plan reports ``planning_seconds == 0.0``.
    """

    def __init__(self) -> None:
        self._texts = BoundedLRU(PLAN_CACHE_MAX)  # text -> (AST, anchor)
        # key -> ((graph version, statistics epoch), plan)
        self._plans = BoundedLRU(PLAN_CACHE_MAX)
        self._lock = threading.Lock()  # the counters, one lookup at a time
        self._counts: Counter[str] = Counter()  # PreparedStats field -> count

    def parse(self, text: str) -> tuple[Node, str | None]:
        """``parse_query(text)``, memoised."""
        return self._texts.fetch(text, lambda: parse_query(text))

    def plan(
        self,
        key: tuple,
        stamp: tuple[int, int],
        compute: Callable[[], PreparedQuery],
    ) -> PreparedQuery:
        """The plan for ``key`` under ``stamp``: cached, else ``compute()``."""
        with self._lock:
            entry = self._plans.get(key)
            if entry is not None and entry[0] == stamp:
                self._counts["hits"] += 1
                return entry[1]
            self._counts["misses"] += 1
            self._counts["invalidations"] += entry is not None
        prepared = compute()
        with self._lock:
            self._counts["plans_computed"] += 1
        self._plans.put(key, (stamp, replace(prepared, planning_seconds=0.0)))
        return prepared

    def stats(self) -> PreparedStats:
        """The counters."""
        with self._lock:
            return PreparedStats(**self._counts)

    def held(self) -> tuple[int, int]:
        """``(parsed texts, plans)`` the cache holds now."""
        return len(self._texts), len(self._plans)

    def clear(self) -> None:
        """Drop every parsed text and plan (the counters are kept)."""
        self._texts.clear()
        self._plans.clear()


# -- statements ----------------------------------------------------------------


class BoundStatement:
    """A statement with every placeholder resolved, ready to run.

    Substitution and validation happen eagerly at bind time, so a bad
    binding fails here — before any lock is taken or plan probed.
    """

    __slots__ = ("statement", "params", "node", "anchor", "text")

    def __init__(self, statement: "PreparedStatement", params: dict) -> None:
        template = statement.template
        self.statement = statement
        self.params = dict(params)
        bound_values = {
            name: params[name] for name in template.bound_params
        }
        self.node: Node = substitute_params(
            template.node, bound_values, max_bound=MAX_REPEAT_BOUND
        )
        if template.anchor_param is not None:
            anchor = params[template.anchor_param]
            if not isinstance(anchor, str):
                raise ValidationError(
                    f"anchor parameter ${template.anchor_param} must be a "
                    f"node name, got {anchor!r}"
                )
            self.anchor: str | None = anchor
        else:
            self.anchor = template.anchor_name
        self.text = (
            f"from({self.anchor}): {self.node}"
            if self.anchor is not None
            else str(self.node)
        )

    def run(self) -> "QueryResult":
        """The ``query()`` of the bound text, bypassing the answer cache.

        Planning is skipped whenever the database's plan cache holds
        this binding's plan for the snapshot's ``(version, statistics
        epoch)``; the anchor pins execution, not the plan, so every
        anchor value shares one plan.  The answer LRU is bypassed: the
        point of a prepared statement is that execution is the only
        repeated cost, so ``result.seconds`` measures it.
        """
        statement = self.statement
        return statement.database.query(
            Template(self.text, self.node, anchor_name=self.anchor),
            method=statement.strategy.value,
            use_exact_statistics=statement.use_exact_statistics,
            max_disjuncts=statement.max_disjuncts,
            use_cache=False,
        )

    def __repr__(self) -> str:
        return f"BoundStatement({self.text!r})"


class PreparedStatement:
    """A template prepared against one :class:`~repro.api.GraphDatabase`.

    Holds the template and its plan settings only: a run resolves its
    plan through the database's :class:`PlanCache`, so statements are
    cheap to make and to drop.
    """

    def __init__(
        self,
        database: "GraphDatabase",
        template: Template,
        strategy: Strategy,
        use_exact_statistics: bool,
        max_disjuncts: int,
    ) -> None:
        self.database = database
        self.template = template
        self.strategy = strategy
        self.use_exact_statistics = use_exact_statistics
        self.max_disjuncts = max_disjuncts

    # -- binding ---------------------------------------------------------

    def bind(self, **params) -> BoundStatement:
        """Resolve every placeholder; raises on a mismatched binding."""
        expected = self.template.params
        given = set(params)
        if given != expected:
            missing = sorted(expected - given)
            extra = sorted(given - expected)
            detail = []
            if missing:
                detail.append(f"missing {missing}")
            if extra:
                detail.append(f"unexpected {extra}")
            raise ValidationError(
                f"binding does not match template parameters "
                f"{sorted(expected)}: {', '.join(detail)}"
            )
        return BoundStatement(self, params)

    def run(self, **params) -> "QueryResult":
        """Shorthand for ``bind(**params).run()``."""
        return self.bind(**params).run()

    def __repr__(self) -> str:
        return (
            f"PreparedStatement({self.template.text!r}, "
            f"strategy={self.strategy.value})"
        )
