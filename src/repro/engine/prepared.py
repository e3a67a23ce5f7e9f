"""Prepared statements: plan a template once, bind and run it many times.

Production RPQ traffic is overwhelmingly the *same* query shapes with
different constants, yet every :meth:`repro.api.GraphDatabase.query`
call pays the full parse → rewrite → plan toll before touching the
index.  This module splits that toll out:

* :class:`PreparedStatement` — wraps a parsed
  :class:`~repro.rpq.parser.Template` and caches one
  :class:`~repro.engine.executor.PreparedQuery` per distinct parameter
  binding, keyed on ``(graph version, statistics epoch)`` so any
  mutation or rebuild invalidates soundly.  ``bind(**params).run()``
  after the first run of a binding skips straight to execution.
* :class:`PlanArtifactStore` — persists those plans as a versioned
  JSON artifact next to the disk backend's index file, keyed on a
  *content fingerprint* of everything a plan depends on (``k``,
  alphabet, node count, the exact path catalog).  A restarted service
  whose statistics fingerprint matches answers its first prepared
  query with zero planning calls; any mismatch — format version,
  fingerprint, or a corrupt file — fails open to re-planning.

The execution seam is deliberately the one
:meth:`~repro.api.GraphDatabase.query_batch` already uses
(:func:`~repro.engine.executor.prepare_ast` +
:func:`~repro.engine.executor.execute_prepared`), so prepared and
ad-hoc execution can never drift.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING

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
from repro.rpq.parser import MAX_REPEAT_BOUND, Template, parse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports us)
    from repro.api import GraphDatabase, QueryResult

#: Schema version of the on-disk plan artifact; any mismatch discards
#: the whole file (fail open: the plans are re-derived, never trusted).
ARTIFACT_FORMAT = 1

#: Per-statement cap on cached per-binding plans (LRU eviction).  A
#: statement swept over an unbounded parameter domain keeps its
#: hottest bindings planned and re-derives the rest.
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
        #: The plan-cache key: bound-parameter values only.  The anchor
        #: restricts the *answer*, not the plan, so every anchor value
        #: shares one plan.
        self.binding_key = tuple(sorted(bound_values.items()))
        self.text = (
            f"from({self.anchor}): {self.node}"
            if self.anchor is not None
            else str(self.node)
        )

    def run(self) -> "QueryResult":
        """Execute against the current graph snapshot.

        Planning is skipped whenever this binding's plan is cached (on
        the statement or in the persistent artifact store) and still
        valid for the snapshot's ``(version, statistics epoch)``.
        """
        return self.statement.database._run_prepared(self)

    def __repr__(self) -> str:
        return f"BoundStatement({self.text!r})"


class PreparedStatement:
    """A template prepared against one :class:`~repro.api.GraphDatabase`.

    Holds the per-binding plan cache (LRU, ``PLAN_CACHE_MAX`` entries).
    Thread-safe: concurrent ``bind(...).run()`` calls race only to
    plan the same binding twice, and last-store-wins is harmless
    because the plans are equal.
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
        # binding key -> (graph version, statistics epoch, PreparedQuery)
        self._plans: OrderedDict[tuple, tuple[int, int, PreparedQuery]] = (
            OrderedDict()
        )
        self._lock = threading.Lock()

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

    # -- plan resolution (called by the database, under its read lock) ---

    def _plan_for(
        self,
        bound: BoundStatement,
        version: int,
        epoch: int,
        index,
        statistics,
    ) -> PreparedQuery:
        """The binding's plan: statement cache → artifact store → plan."""
        from repro.engine.executor import prepare_ast

        database = self.database
        with self._lock:
            entry = self._plans.get(bound.binding_key)
            if entry is not None:
                cached_version, cached_epoch, prepared = entry
                if cached_version == version and cached_epoch == epoch:
                    self._plans.move_to_end(bound.binding_key)
                    database._note_prepared(hits=1)
                    return prepared
                del self._plans[bound.binding_key]
                database._note_prepared(invalidations=1)
        database._note_prepared(misses=1)
        artifact_key = self._artifact_key(bound)
        payload = database._plan_store.load(artifact_key)
        prepared = (
            prepared_from_artifact(payload) if payload is not None else None
        )
        if prepared is not None and (
            prepared.strategy is not self.strategy
            or prepared.max_disjuncts != self.max_disjuncts
            or str(prepared.node) != str(bound.node)
        ):
            prepared = None  # hash collision or tampered file: re-plan
        if prepared is not None:
            database._note_prepared(artifact_loads=1)
        else:
            prepared = prepare_ast(
                bound.node,
                index,
                database.graph,
                statistics,
                self.strategy,
                self.max_disjuncts,
            )
            database._note_prepared(plans_computed=1)
            artifact = artifact_from_prepared(prepared)
            if artifact is not None:
                database._plan_store.store(artifact_key, artifact)
        with self._lock:
            self._plans[bound.binding_key] = (version, epoch, prepared)
            while len(self._plans) > PLAN_CACHE_MAX:
                self._plans.popitem(last=False)
        return prepared

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

    def cached_plan_count(self) -> int:
        with self._lock:
            return len(self._plans)

    def __repr__(self) -> str:
        return (
            f"PreparedStatement({self.template.text!r}, "
            f"strategy={self.strategy.value}, "
            f"plans={self.cached_plan_count()})"
        )
