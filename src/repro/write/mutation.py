"""Mutation value types: the unit of the unified write API.

Every write — a single-edge ``apply``, a CLI-streamed edge-list
delta, a client ``POST /apply`` — is expressed as a
:class:`MutationBatch` of :class:`Mutation` records and handed to one
entry point, ``GraphDatabase.apply(batch)``.  The types here are the
contract of that surface:

* **eager validation** — a :class:`Mutation` validates its kind, node
  names and edge label at construction time, so once a batch has been
  appended to the durable mutation log its application to the graph
  *cannot* fail.  (Graph mutation raises only on malformed input, and
  malformed input never reaches the log.)
* **wire shape** — ``as_wire``/``from_wire`` define the one JSON
  encoding shared by the HTTP ``/apply`` route, the worker RPC
  broadcast and the on-disk log records.
* **idempotence** — ``apply_to(graph)`` returns whether the graph
  changed; re-applying a mutation is a no-op, which is what makes log
  replay after a crash safe (a batch can never double-apply).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import ValidationError
from repro.graph.graph import Graph, _check_label

#: The two mutation kinds.  Edge-level only: node creation is implicit
#: in ``add`` (exactly the :meth:`Graph.add_edge` contract).
MUTATION_KINDS = ("add", "remove")


@dataclass(frozen=True, slots=True)
class Mutation:
    """One edge-level write: ``add``/``remove`` ``source -label-> target``."""

    kind: str
    source: str
    label: str
    target: str

    def __post_init__(self) -> None:
        if self.kind not in MUTATION_KINDS:
            raise ValidationError(
                f"unknown mutation kind {self.kind!r}; "
                f"expected one of {MUTATION_KINDS}"
            )
        for name in (self.source, self.target):
            if not isinstance(name, str) or not name:
                raise ValidationError(
                    f"node names must be non-empty strings, got {name!r}"
                )
        _check_label(self.label)

    @classmethod
    def add(cls, source: str, label: str, target: str) -> "Mutation":
        return cls("add", source, label, target)

    @classmethod
    def remove(cls, source: str, label: str, target: str) -> "Mutation":
        return cls("remove", source, label, target)

    def apply_to(self, graph: Graph) -> bool:
        """Apply to ``graph``; return whether it changed (idempotent)."""
        if self.kind == "add":
            return graph.add_edge(self.source, self.label, self.target)
        return graph.remove_edge(self.source, self.label, self.target)

    def as_wire(self) -> dict:
        return {
            "kind": self.kind,
            "source": self.source,
            "label": self.label,
            "target": self.target,
        }

    @classmethod
    def from_wire(cls, payload: object) -> "Mutation":
        if not isinstance(payload, dict):
            raise ValidationError(f"mutation must be an object, got {payload!r}")
        try:
            return cls(
                kind=payload["kind"],
                source=payload["source"],
                label=payload["label"],
                target=payload["target"],
            )
        except KeyError as error:
            raise ValidationError(f"mutation missing field {error}") from error


class MutationBatch:
    """An ordered, immutable sequence of mutations applied atomically.

    "Atomically" in the log-and-lock sense: the whole batch is appended
    as one log record and applied under one write-lock acquisition, so
    readers observe either none or all of it and replay re-applies it
    as a unit.
    """

    __slots__ = ("mutations",)

    def __init__(self, mutations: Iterable[Mutation]):
        mutations = tuple(mutations)
        for mutation in mutations:
            if not isinstance(mutation, Mutation):
                raise ValidationError(f"not a Mutation: {mutation!r}")
        object.__setattr__(self, "mutations", mutations)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MutationBatch is immutable")

    @classmethod
    def of(cls, *mutations: Mutation) -> "MutationBatch":
        return cls(mutations)

    @classmethod
    def coerce(cls, value: object) -> "MutationBatch":
        """Normalize what ``apply()`` accepts into a batch.

        A single :class:`Mutation`, an iterable of them, or an existing
        batch (returned unchanged).
        """
        if isinstance(value, MutationBatch):
            return value
        if isinstance(value, Mutation):
            return cls((value,))
        if isinstance(value, Iterable) and not isinstance(value, (str, bytes)):
            return cls(value)
        raise ValidationError(
            f"cannot build a MutationBatch from {value!r}; pass a "
            "Mutation, an iterable of Mutations, or a MutationBatch"
        )

    def __iter__(self) -> Iterator[Mutation]:
        return iter(self.mutations)

    def __len__(self) -> int:
        return len(self.mutations)

    def __bool__(self) -> bool:
        return bool(self.mutations)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MutationBatch):
            return NotImplemented
        return self.mutations == other.mutations

    def __hash__(self) -> int:
        return hash(self.mutations)

    def as_wire(self) -> list[dict]:
        return [mutation.as_wire() for mutation in self.mutations]

    @classmethod
    def from_wire(cls, payload: object) -> "MutationBatch":
        if not isinstance(payload, list):
            raise ValidationError(
                f"mutation batch must be a list, got {payload!r}"
            )
        return cls(Mutation.from_wire(entry) for entry in payload)

    def as_json_bytes(self) -> bytes:
        """The batch's log-record body (wire form, compact JSON)."""
        return json.dumps(self.as_wire(), separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_json_bytes(cls, body: bytes) -> "MutationBatch":
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValidationError(
                f"undecodable mutation batch record: {error}"
            ) from error
        return cls.from_wire(payload)

    def __repr__(self) -> str:
        return f"MutationBatch({len(self.mutations)} mutations)"


@dataclass(frozen=True, slots=True)
class ApplyResult:
    """What one batch did, as observed after its commit group flushed.

    ``mode`` records how the index absorbed the group the batch rode
    in, the same at every shard count (``shards=1`` included):
    ``"patch"`` (per-shard delta patching, on every backend),
    ``"rebuild"`` (every shard rebuilt in place: an alphabet change or
    a dirty-pair overflow), or ``"noop"`` (nothing changed).  Either
    way the index instance is kept.  ``patched_shards`` lists the
    shards the group's delta touched (empty for rebuilds and no-ops).
    """

    applied: int
    noops: int
    version: int
    mode: str
    patched_shards: tuple[int, ...] = ()

    @property
    def changed(self) -> bool:
        return self.applied > 0

    def as_wire(self) -> dict:
        return {
            "applied": self.applied,
            "noops": self.noops,
            "version": self.version,
            "mode": self.mode,
            "patched_shards": list(self.patched_shards),
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "ApplyResult":
        try:
            return cls(
                applied=int(payload["applied"]),
                noops=int(payload["noops"]),
                version=int(payload["version"]),
                mode=str(payload["mode"]),
                patched_shards=tuple(
                    int(shard) for shard in payload.get("patched_shards", ())
                ),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ValidationError(
                f"malformed apply result payload: {error}"
            ) from error
