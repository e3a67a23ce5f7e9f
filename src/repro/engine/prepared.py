"""Plan reuse: one plan cache per database, prepared statements over it.

A plan depends only on the query and the index's statistics, so a
repeated read need not pay the parse → rewrite → plan toll again:

* :class:`PlanCache` — the database's one plan cache, shared by
  ``query()``, ``query_batch()`` and prepared runs.
* :class:`PreparedStatement` — a parsed
  :class:`~repro.rpq.parser.Template` plus its plan settings.
* :class:`PlanArtifactStore` — persists prepared plans as a versioned
  JSON artifact next to the disk backend's index file, keyed on a
  *content fingerprint* of everything a plan depends on (``k``,
  alphabet, node count, the exact path catalog).  A restarted service
  whose statistics fingerprint matches answers its first prepared
  query with zero planning calls; any mismatch — format version,
  fingerprint, or a corrupt file — fails open to re-planning.

Every read path plans with :func:`~repro.engine.executor.prepare_ast`
through the one cache and runs with
:func:`~repro.engine.executor.execute_prepared`, so prepared and
ad-hoc execution can never drift.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import Counter, OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.engine.cost import CostedPlan
from repro.engine.executor import PreparedQuery
from repro.engine.plan import (
    IdentityPlan,
    IndexScanPlan,
    JoinPlan,
    PlanNode,
    UnionPlan,
)
from repro.engine.planner import Strategy
from repro.errors import QueryTimeoutError, TransientError, ValidationError
from repro.faults import fire
from repro.graph.graph import LabelPath
from repro.rpq.ast import Node, substitute_params
from repro.rpq.parser import MAX_REPEAT_BOUND, Template, parse, parse_query
from repro.stats import PreparedStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports us)
    from repro.api import GraphDatabase, QueryResult

#: Schema version of the on-disk plan artifact; any mismatch discards
#: the whole file (fail open: the plans are re-derived, never trusted).
ARTIFACT_FORMAT = 1

#: Cap on each of the plan cache's two maps (LRU eviction): parsed
#: texts, and plans.  Traffic over an unbounded set of texts keeps its
#: hottest queries planned and re-derives the rest.
PLAN_CACHE_MAX = 256

#: Cap on persisted artifacts per fingerprint file.  Stores evict the
#: oldest entries past the cap, and because every store rewrites the
#: whole document, eviction doubles as compaction — the file's size is
#: bounded for the life of the deployment instead of growing with
#: every distinct (template, binding) ever prepared.
ARTIFACT_STORE_MAX = 512


# -- plan (de)serialization ----------------------------------------------------
#
# Plans are trees of four frozen dataclasses over LabelPath, which
# round-trips through its stable text encoding — JSON is enough, and
# keeps the artifact greppable when a plan decision needs auditing.


def _plan_to_obj(plan: PlanNode) -> dict:
    if isinstance(plan, IndexScanPlan):
        return {
            "op": "scan",
            "path": plan.path.encode(),
            "inverse": plan.via_inverse,
        }
    if isinstance(plan, JoinPlan):
        return {
            "op": "join",
            "algorithm": plan.algorithm,
            "left": _plan_to_obj(plan.left),
            "right": _plan_to_obj(plan.right),
        }
    if isinstance(plan, UnionPlan):
        return {"op": "union", "parts": [_plan_to_obj(p) for p in plan.parts]}
    if isinstance(plan, IdentityPlan):
        return {"op": "identity"}
    raise ValidationError(f"unserializable plan node {type(plan).__name__}")


def _plan_from_obj(obj: dict) -> PlanNode:
    op = obj["op"]
    if op == "scan":
        return IndexScanPlan(
            LabelPath.decode(obj["path"]), via_inverse=bool(obj["inverse"])
        )
    if op == "join":
        return JoinPlan(
            _plan_from_obj(obj["left"]),
            _plan_from_obj(obj["right"]),
            obj["algorithm"],
        )
    if op == "union":
        return UnionPlan(tuple(_plan_from_obj(p) for p in obj["parts"]))
    if op == "identity":
        return IdentityPlan()
    raise ValidationError(f"unknown plan op {op!r}")


def artifact_from_prepared(prepared: PreparedQuery) -> dict | None:
    """Serialize a planned query, or ``None`` when there is no plan.

    A ``costed=None`` prepared query (the disjunct budget blew and
    execution takes the hybrid fallback) has no plan tree to persist;
    such bindings are re-prepared per process, which is exactly the
    fail-open behavior the artifact cache promises.
    """
    if prepared.costed is None:
        return None
    return {
        "query": str(prepared.node),
        "strategy": prepared.strategy.value,
        "max_disjuncts": prepared.max_disjuncts,
        "plan": _plan_to_obj(prepared.costed.plan),
        "cost": prepared.costed.cost,
        "cardinality": prepared.costed.cardinality,
    }


def prepared_from_artifact(obj: dict) -> PreparedQuery | None:
    """Deserialize a plan artifact; any defect returns ``None``.

    Fail-open by contract: a stale schema, a hand-edited file, a path
    over labels the graph no longer has — all of it must degrade to
    re-planning, never to an exception on the query path.  (Answers
    stay correct even against a *wrong* plan only because artifacts
    are fingerprint-keyed; this guard is about robustness, not
    soundness.)
    """
    try:
        costed = CostedPlan(
            plan=_plan_from_obj(obj["plan"]),
            cardinality=float(obj["cardinality"]),
            cost=float(obj["cost"]),
        )
        return PreparedQuery(
            node=parse(obj["query"]),
            strategy=Strategy.parse(obj["strategy"]),
            max_disjuncts=int(obj["max_disjuncts"]),
            costed=costed,
            planning_seconds=0.0,
        )
    except (QueryTimeoutError, TransientError):
        # Fail-open covers *defects* (stale schema, corrupt JSON), not
        # the resilience taxonomy: a deadline or retryable fault must
        # reach the caller, never degrade into silent re-planning.
        raise
    except Exception:
        return None


# -- the persistent store ------------------------------------------------------


class PlanArtifactStore:
    """A write-through JSON store of plan artifacts next to the index.

    ``open(fingerprint)`` is called by the database after every
    (re)build with the content fingerprint of the fresh statistics:
    entries from a file whose format version and fingerprint both
    match are adopted; anything else is silently discarded.  Stores
    rewrite the whole file atomically (tmp + rename) — artifacts are a
    few KB of JSON, and a torn write must never be readable.

    With no path (memory backend) the store is inert: every probe
    misses, every write is dropped.
    """

    def __init__(self, path: str | Path | None) -> None:
        self._path = Path(path) if path is not None else None
        self._fingerprint: str | None = None
        self._entries: dict[str, dict] = {}
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self._path is not None

    @property
    def path(self) -> Path | None:
        return self._path

    def entry_count(self) -> int:
        with self._lock:
            return len(self._entries)

    def open(self, fingerprint: str) -> int:
        """Adopt on-disk artifacts valid under ``fingerprint``.

        Returns the number of entries adopted (0 on any mismatch or
        read failure — fail open).
        """
        with self._lock:
            self._fingerprint = fingerprint
            self._entries = {}
            if self._path is None:
                return 0
            try:
                fire("prepared.artifact_load", stage="open")
                obj = json.loads(self._path.read_text(encoding="utf-8"))
                if (
                    isinstance(obj, dict)
                    and obj.get("format") == ARTIFACT_FORMAT
                    and obj.get("fingerprint") == fingerprint
                    and isinstance(obj.get("entries"), dict)
                ):
                    self._entries = obj["entries"]
            except (OSError, ValueError, TransientError):
                pass
            # Adopt at most the cap: an oversized file from an older
            # build (or a hand-grown one) is trimmed to its newest
            # entries, and the next store() compacts it on disk.
            while len(self._entries) > ARTIFACT_STORE_MAX:
                del self._entries[next(iter(self._entries))]
            return len(self._entries)

    def load(self, key: str) -> dict | None:
        try:
            fire("prepared.artifact_load", stage="load")
        except TransientError:
            # Fail open: a flaky artifact probe re-plans, never raises.
            return None
        with self._lock:
            return self._entries.get(key)

    def store(self, key: str, payload: dict) -> None:
        if self._path is None or self._fingerprint is None:
            return
        with self._lock:
            # Re-storing a key refreshes its age; eviction drops the
            # oldest insertions first (the dict preserves that order).
            self._entries.pop(key, None)
            self._entries[key] = payload
            while len(self._entries) > ARTIFACT_STORE_MAX:
                del self._entries[next(iter(self._entries))]
            document = {
                "format": ARTIFACT_FORMAT,
                "fingerprint": self._fingerprint,
                "entries": self._entries,
            }
            temp = self._path.with_name(self._path.name + ".tmp")
            try:
                temp.write_text(json.dumps(document, indent=1), encoding="utf-8")
                temp.replace(self._path)
            except OSError:
                # Persistence is an optimization; a read-only or full
                # disk must not fail the query that triggered the save.
                pass


# -- the plan cache ------------------------------------------------------------


def _lru_get(lru: OrderedDict, key):
    found = lru.get(key)
    if found is not None:
        lru.move_to_end(key)
    return found


def _lru_put(lru: OrderedDict, key, value) -> None:
    lru[key] = value
    lru.move_to_end(key)
    while len(lru) > PLAN_CACHE_MAX:
        lru.popitem(last=False)


class PlanCache:
    """A database's one plan cache: text → AST, and AST → plan.

    Two LRUs of ``PLAN_CACHE_MAX`` entries behind one lock.
    :meth:`parse` memoises :func:`~repro.rpq.parser.parse_query`, which
    is pure, so an entry never goes stale (a text that raises is never
    stored).  :meth:`plan` keys on ``(AST, strategy,
    use_exact_statistics, max_disjuncts)`` — not the anchor, which pins
    execution, so ``q`` and ``from(x): q`` share a plan — and a lookup
    under another ``(graph version, statistics epoch)`` stamp re-plans.
    A miss given an ``artifact_key`` (prepared runs) tries the
    :class:`PlanArtifactStore` first and writes a computed plan back.
    A reused plan reports ``planning_seconds == 0.0``.
    """

    def __init__(self, store: PlanArtifactStore) -> None:
        self.store = store
        self._texts: OrderedDict[str, tuple[Node, str | None]] = OrderedDict()
        # key -> ((graph version, statistics epoch), plan)
        self._plans: OrderedDict[tuple, tuple[tuple[int, int], PreparedQuery]] = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self._counts: Counter[str] = Counter()  # PreparedStats field -> count

    def parse(self, text: str) -> tuple[Node, str | None]:
        """``parse_query(text)``, memoised."""
        with self._lock:
            parsed = _lru_get(self._texts, text)
        if parsed is None:
            parsed = parse_query(text)
            with self._lock:
                _lru_put(self._texts, text, parsed)
        return parsed

    def plan(
        self,
        key: tuple,
        stamp: tuple[int, int],
        compute: Callable[[], PreparedQuery],
        artifact_key: Callable[[], str] | None = None,
    ) -> PreparedQuery:
        """The plan for ``key`` under ``stamp``: cache → artifact → ``compute()``."""
        with self._lock:
            entry = _lru_get(self._plans, key)
            if entry is not None and entry[0] == stamp:
                self._counts["hits"] += 1
                return entry[1]
            self._counts["misses"] += 1
            self._counts["invalidations"] += entry is not None
        artifact = artifact_key() if artifact_key and self.store.enabled else None
        payload = self.store.load(artifact) if artifact else None
        prepared = prepared_from_artifact(payload) if payload else None
        node, strategy, _, max_disjuncts = key
        if prepared is not None and (
            prepared.strategy is not strategy
            or prepared.max_disjuncts != max_disjuncts
            or str(prepared.node) != str(node)
        ):
            prepared = None  # hash collision or tampered file: re-plan
        revived = prepared is not None
        if not revived:
            prepared = compute()
            payload = artifact_from_prepared(prepared) if artifact else None
            if payload is not None:
                self.store.store(artifact, payload)
        with self._lock:
            self._counts["artifact_loads" if revived else "plans_computed"] += 1
            _lru_put(self._plans, key, (stamp, replace(prepared, planning_seconds=0.0)))
        return prepared

    def stats(self) -> PreparedStats:
        """The counters, and the artifacts the store holds."""
        with self._lock:
            return PreparedStats(**self._counts, plan_artifacts=self.store.entry_count())

    def held(self) -> tuple[int, int]:
        """``(parsed texts, plans)`` the cache holds now."""
        with self._lock:
            return len(self._texts), len(self._plans)

    def clear(self) -> None:
        """Drop every parsed text and plan (the counters are kept)."""
        with self._lock:
            self._texts.clear()
            self._plans.clear()


# -- statements ----------------------------------------------------------------


class BoundStatement:
    """A statement with every placeholder resolved, ready to run.

    Substitution and validation happen eagerly at bind time, so a bad
    binding fails here — before any lock is taken or plan probed.
    """

    __slots__ = ("statement", "params", "node", "anchor", "binding_key", "text")

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
        #: The binding part of the artifact key: bound-parameter values
        #: only.  The anchor restricts the *answer*, not the plan, so
        #: every anchor value shares one plan.
        self.binding_key = tuple(sorted(bound_values.items()))
        self.text = (
            f"from({self.anchor}): {self.node}"
            if self.anchor is not None
            else str(self.node)
        )

    def run(self) -> "QueryResult":
        """Execute against the current graph snapshot.

        Planning is skipped whenever the database's plan cache holds
        this binding's plan for the snapshot's ``(version, statistics
        epoch)``, or the persistent artifact store does.
        """
        return self.statement.database._run_prepared(self)

    def __repr__(self) -> str:
        return f"BoundStatement({self.text!r})"


class PreparedStatement:
    """A template prepared against one :class:`~repro.api.GraphDatabase`.

    Holds the template and its plan settings only: a run resolves its
    plan through the database's :class:`PlanCache`, with the artifact
    store as the second tier, so statements are cheap to make and to
    drop.
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

    def _artifact_key(self, bound: BoundStatement) -> str:
        """Stable content key: template shape + binding + plan knobs.

        Hashes the *canonical unparse* of the template body (not the
        raw text), so whitespace variants of one template share
        artifacts.  Alphabet and statistics live in the store's
        fingerprint, not the key.
        """
        payload = json.dumps(
            [
                str(self.template.node),
                list(bound.binding_key),
                self.strategy.value,
                self.use_exact_statistics,
                self.max_disjuncts,
            ],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:
        return (
            f"PreparedStatement({self.template.text!r}, "
            f"strategy={self.strategy.value})"
        )
