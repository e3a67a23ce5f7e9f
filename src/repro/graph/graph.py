"""Edge-labeled directed graphs: the paper's data model (Section 2.1).

A *graph over vocabulary L* assigns to every label ``l`` in ``L`` a finite
edge relation, i.e. a set of ordered node pairs.  Nodes are arbitrary
strings externally; internally they are interned to dense integer
identifiers so that relations, indexes and join operators work on plain
``(int, int)`` pairs.

The navigational unit of the whole library is the :class:`Step`: a label
together with a direction.  ``Step("knows")`` navigates a ``knows`` edge
forwards, ``Step("knows", inverse=True)`` navigates it backwards (the
paper writes this ``knows⁻``).  A :class:`LabelPath` is a non-empty
sequence of steps; these are the search keys of the k-path index.
"""

from __future__ import annotations

import bisect
import re
from collections.abc import Set
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import GraphError, UnknownNodeError, ValidationError
from repro.relation import _SHIFT, Order, Relation, locate, unmarked_ids

#: Labels must look like programming-language identifiers.  This keeps
#: the textual query syntax, the index key encoding and the Datalog
#: translation unambiguous.
_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: Marker appended to a label in the compact textual form of an inverse
#: step, e.g. ``knows-``.  The parser also accepts the SPARQL-style
#: prefix form ``^knows``.
INVERSE_SUFFIX = "-"


def _check_label(label: str) -> str:
    if not isinstance(label, str) or _LABEL_RE.match(label) is None:
        raise ValidationError(
            f"invalid edge label {label!r}: labels must match "
            "[A-Za-z_][A-Za-z0-9_]*"
        )
    return label


@dataclass(frozen=True, slots=True)
class Step:
    """One navigation step: an edge label plus a direction.

    ``Step("knows")`` is the paper's ``knows``;
    ``Step("knows", inverse=True)`` is the paper's ``knows⁻``.
    """

    label: str
    inverse: bool = False

    def __post_init__(self) -> None:
        _check_label(self.label)

    def inverted(self) -> "Step":
        """The same edge navigated in the opposite direction."""
        return Step(self.label, not self.inverse)

    def encode(self) -> str:
        """Compact unambiguous textual form (``knows`` or ``knows-``)."""
        if self.inverse:
            return self.label + INVERSE_SUFFIX
        return self.label

    @staticmethod
    def decode(text: str) -> "Step":
        """Inverse of :meth:`encode`."""
        if text.endswith(INVERSE_SUFFIX):
            return Step(text[: -len(INVERSE_SUFFIX)], inverse=True)
        return Step(text)

    def __str__(self) -> str:
        if self.inverse:
            return "^" + self.label
        return self.label


class LabelPath:
    """A non-empty sequence of :class:`Step` objects.

    Label paths are the unit the planner manipulates (the "disjuncts"
    produced by union pull-up) and the first component of every k-path
    index key.  Instances are immutable and hashable.
    """

    __slots__ = ("steps",)

    def __init__(self, steps: Iterable[Step]):
        steps = tuple(steps)
        if not steps:
            raise ValidationError("a LabelPath must contain at least one step")
        for step in steps:
            if not isinstance(step, Step):
                raise ValidationError(f"not a Step: {step!r}")
        object.__setattr__(self, "steps", steps)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LabelPath is immutable")

    # -- basic protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __getitem__(self, item: int | slice) -> "Step | LabelPath":
        if isinstance(item, slice):
            return LabelPath(self.steps[item])
        return self.steps[item]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelPath):
            return NotImplemented
        return self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

    def __repr__(self) -> str:
        return f"LabelPath({self.encode()!r})"

    def __str__(self) -> str:
        return "/".join(str(step) for step in self.steps)

    # -- algebra ---------------------------------------------------------

    def concat(self, other: "LabelPath") -> "LabelPath":
        """Path composition ``self ∘ other``."""
        return LabelPath(self.steps + other.steps)

    def inverted(self) -> "LabelPath":
        """The inverse path: steps reversed and each step flipped.

        Scanning the index on ``p.inverted()`` yields the relation of
        ``p`` with source and target exchanged — the trick the paper
        uses to obtain merge-join-compatible sort orders.
        """
        return LabelPath(step.inverted() for step in reversed(self.steps))

    def prefix(self, length: int) -> "LabelPath":
        """The first ``length`` steps (1 <= length <= len(self))."""
        return LabelPath(self.steps[:length])

    def subpath(self, start: int, stop: int) -> "LabelPath":
        """Steps ``start:stop`` as a new path (must be non-empty)."""
        return LabelPath(self.steps[start:stop])

    # -- encoding ---------------------------------------------------------

    def encode(self) -> str:
        """Dotted textual key form, e.g. ``knows.knows-.worksFor``."""
        return ".".join(step.encode() for step in self.steps)

    @staticmethod
    def decode(text: str) -> "LabelPath":
        """Inverse of :meth:`encode`."""
        if not text:
            raise ValidationError("empty label-path encoding")
        return LabelPath(Step.decode(part) for part in text.split("."))

    @staticmethod
    def of(*specs: str) -> "LabelPath":
        """Convenience constructor from step strings.

        >>> LabelPath.of("knows", "knows-", "worksFor").encode()
        'knows.knows-.worksFor'
        """
        return LabelPath(Step.decode(spec) for spec in specs)


def name_probe(probe: object) -> tuple[str, str] | None:
    """``probe`` as a ``(source, target)`` name pair, or ``None``.

    The membership rule of every answer type, local or remote: any
    two-item sequence of names is a probe (a JSON-decoded list as much
    as a tuple); anything else is not a member, never an exception.
    """
    if isinstance(probe, Sequence) and not isinstance(probe, str) and len(probe) == 2:
        source, target = probe
        if isinstance(source, str) and isinstance(target, str):
            return source, target
    return None


class NamedPairs(Set):
    """A duplicate-free id relation read as a frozenset of name pairs.

    What :attr:`repro.api.QueryResult.pairs` is (see there for what
    each read costs): the answer's id columns plus the graph's id→name
    list and name→id dict (for a served answer, its connection's two
    dicts, :class:`repro.serve.protocol.NameDictionary`).  ``len`` is
    the column length, ``in`` a
    bisect of the sorted columns (a memoised packed-key set under
    ``Order.NONE``), iteration streams name tuples; comparison, algebra,
    ``hash`` and ``repr`` are ``frozenset``'s.  Decoding late is sound:
    ids are never reused and the name list only appends.
    """

    __slots__ = ("_relation", "_names", "_ids", "_keys", "_frozen")

    def __init__(
        self,
        relation: Relation,
        names: Sequence[str] | Mapping[int, str],
        ids: dict[str, int],
    ):
        self._relation = relation
        self._names = names
        self._ids = ids
        self._keys: frozenset[int] | None = None
        self._frozen: frozenset[tuple[str, str]] | None = None

    _from_iterable = frozenset  # what ``&``, ``|``, ``-`` and ``^`` return

    def __len__(self) -> int:
        return len(self._relation.src)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        name = self._names.__getitem__
        return zip(map(name, self._relation.src), map(name, self._relation.tgt))

    def __contains__(self, probe: object) -> bool:
        pair = name_probe(probe)
        if pair is None:
            return False
        source, target = self._ids.get(pair[0]), self._ids.get(pair[1])
        if source is None or target is None:
            return False
        relation = self._relation
        if relation.order is Order.BY_SRC:
            return locate(relation.src, relation.tgt, source, target)[1]
        if relation.order is Order.BY_TGT:
            return locate(relation.tgt, relation.src, target, source)[1]
        return ((source << _SHIFT) | target) in self._packed()

    def _packed(self) -> frozenset[int]:
        if self._keys is None:
            self._keys = frozenset(self._relation.packed())
        return self._keys

    def frozen(self) -> frozenset[tuple[str, str]]:
        """The whole answer as a real ``frozenset``, built once."""
        if self._frozen is None:
            self._frozen = frozenset(self)
        return self._frozen

    def unsent(self, sent: bytearray) -> tuple[Relation, list[int], list[str]]:
        """What crosses a connection already sent the names of the ids
        marked in ``sent`` (a byte per node, grown here): the id columns,
        and the ids of this answer not marked yet with their names.
        Marks them."""
        if len(sent) < len(self._names):
            sent.extend(bytes(len(self._names) - len(sent)))
        ids = unmarked_ids(self._relation, sent).tolist()
        for node in ids:
            sent[node] = 1
        return self._relation, ids, list(map(self._names.__getitem__, ids))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NamedPairs) and other._names is self._names:
            # One graph: the ids decide, no name is decoded.
            mine, theirs = self._relation, other._relation
            if mine.order is theirs.order is not Order.NONE:
                return mine.src == theirs.src and mine.tgt == theirs.tgt
            return self._packed() == other._packed()
        if not isinstance(other, Set):
            return NotImplemented
        return len(self) == len(other) and self.frozen() == other

    def __hash__(self) -> int:
        return hash(self.frozen())

    def __repr__(self) -> str:
        return repr(self.frozen())


class Graph:
    """A finite directed edge-labeled graph (the paper's data model).

    Nodes are externally strings and internally dense integers; all
    relation-level machinery (index, joins, evaluators) works on the
    integer identifiers for speed, and results are translated back to
    names at the API boundary.

    Example
    -------
    >>> g = Graph()
    >>> g.add_edge("ada", "knows", "zoe")
    True
    >>> g.add_edge("zoe", "worksFor", "ada")
    True
    >>> sorted(g.labels())
    ['knows', 'worksFor']
    >>> g.node_count, g.edge_count
    (2, 2)
    """

    __slots__ = (
        "_name_to_id", "_id_to_name", "_edges", "_out", "_in",
        "_edge_count", "_version",
    )

    def __init__(self) -> None:
        self._name_to_id: dict[str, int] = {}
        self._id_to_name: list[str] = []
        # label -> set of (src, tgt) id pairs
        self._edges: dict[str, set[tuple[int, int]]] = {}
        # label -> src id -> ascending list of tgt ids (kept sorted on
        # every insert, so neighbor lookups stream in id order)
        self._out: dict[str, dict[int, list[int]]] = {}
        self._in: dict[str, dict[int, list[int]]] = {}
        self._edge_count = 0
        # Monotone mutation counter; caches key on it to detect staleness.
        self._version = 0

    # -- construction ----------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str, str]]) -> "Graph":
        """Build a graph from ``(source, label, target)`` triples."""
        graph = cls()
        for src, label, tgt in edges:
            graph.add_edge(src, label, tgt)
        return graph

    def add_node(self, name: str) -> int:
        """Intern ``name`` and return its integer identifier.

        Adding a node that already exists is a no-op.  Isolated nodes
        participate in identity (``eps``) query results.
        """
        if not isinstance(name, str) or not name:
            raise GraphError(f"node names must be non-empty strings, got {name!r}")
        node_id = self._name_to_id.get(name)
        if node_id is None:
            node_id = len(self._id_to_name)
            self._name_to_id[name] = node_id
            self._id_to_name.append(name)
            self._version += 1
        return node_id

    def add_edge(self, src: str, label: str, tgt: str) -> bool:
        """Add the edge ``src -label-> tgt``; return ``False`` if present."""
        _check_label(label)
        src_id = self.add_node(src)
        tgt_id = self.add_node(tgt)
        relation = self._edges.setdefault(label, set())
        pair = (src_id, tgt_id)
        if pair in relation:
            return False
        relation.add(pair)
        bisect.insort(
            self._out.setdefault(label, {}).setdefault(src_id, []), tgt_id
        )
        bisect.insort(
            self._in.setdefault(label, {}).setdefault(tgt_id, []), src_id
        )
        self._edge_count += 1
        self._version += 1
        return True

    def remove_edge(self, src: str, label: str, tgt: str) -> bool:
        """Remove the edge ``src -label-> tgt``; return ``False`` if absent.

        Owns the mutation invariants: adjacency lists stay sorted (a
        positional remove preserves order), :attr:`version` is bumped,
        so version-keyed caches can never serve pre-deletion answers,
        and emptied containers are pruned — removing a label's last
        edge removes the label from :meth:`labels`, keeping the
        vocabulary (and everything derived from it: step alphabets,
        indexed path sets, Datalog programs) an exact function of the
        edges that actually exist.
        """
        relation = self._edges.get(label)
        src_id = self._name_to_id.get(src)
        tgt_id = self._name_to_id.get(tgt)
        if relation is None or src_id is None or tgt_id is None:
            return False
        pair = (src_id, tgt_id)
        if pair not in relation:
            return False
        relation.discard(pair)
        if not relation:
            del self._edges[label]
        outgoing = self._out[label]
        outgoing[src_id].remove(tgt_id)
        if not outgoing[src_id]:
            del outgoing[src_id]
            if not outgoing:
                del self._out[label]
        incoming = self._in[label]
        incoming[tgt_id].remove(src_id)
        if not incoming[tgt_id]:
            del incoming[tgt_id]
            if not incoming:
                del self._in[label]
        self._edge_count -= 1
        self._version += 1
        return True

    # -- inspection --------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of interned nodes (including isolated ones)."""
        return len(self._id_to_name)

    @property
    def edge_count(self) -> int:
        """Total number of labeled edges."""
        return self._edge_count

    @property
    def version(self) -> int:
        """Monotone counter bumped by every mutation (node or edge add).

        Cache layers key on it: a cached result tagged with an older
        version can never be served against the mutated graph.
        """
        return self._version

    def labels(self) -> tuple[str, ...]:
        """The vocabulary of the graph, sorted."""
        return tuple(sorted(self._edges))

    def has_node(self, name: str) -> bool:
        return name in self._name_to_id

    def has_edge(self, src: str, label: str, tgt: str) -> bool:
        relation = self._edges.get(label)
        if relation is None:
            return False
        src_id = self._name_to_id.get(src)
        tgt_id = self._name_to_id.get(tgt)
        if src_id is None or tgt_id is None:
            return False
        return (src_id, tgt_id) in relation

    def node_id(self, name: str) -> int:
        """The integer id of ``name`` (raises :class:`UnknownNodeError`)."""
        try:
            return self._name_to_id[name]
        except KeyError:
            raise UnknownNodeError(f"unknown node {name!r}") from None

    def node_name(self, node_id: int) -> str:
        """The external name of an integer node id."""
        try:
            return self._id_to_name[node_id]
        except IndexError:
            raise UnknownNodeError(f"unknown node id {node_id}") from None

    def node_ids(self) -> range:
        """All node ids as a range (ids are dense)."""
        return range(len(self._id_to_name))

    def node_names(self) -> tuple[str, ...]:
        """All node names, in id order."""
        return tuple(self._id_to_name)

    def edges(self) -> Iterator[tuple[str, str, str]]:
        """Iterate ``(source, label, target)`` name triples, sorted by name."""
        names = self._id_to_name
        for label in self.labels():
            triples = sorted(
                (names[src_id], label, names[tgt_id])
                for src_id, tgt_id in self._edges[label]
            )
            yield from triples

    def label_edge_count(self, label: str) -> int:
        """Number of edges carrying ``label`` (0 for unknown labels)."""
        relation = self._edges.get(label)
        return len(relation) if relation is not None else 0

    # -- navigation (id level) ---------------------------------------------

    def out_neighbors(self, node_id: int, label: str) -> Sequence[int]:
        """Targets of ``label`` edges leaving ``node_id``, ascending by id."""
        return self._out.get(label, {}).get(node_id, ())

    def in_neighbors(self, node_id: int, label: str) -> Sequence[int]:
        """Sources of ``label`` edges entering ``node_id``, ascending by id."""
        return self._in.get(label, {}).get(node_id, ())

    def step_neighbors(self, node_id: int, step: Step) -> Sequence[int]:
        """Nodes reachable from ``node_id`` by one :class:`Step`."""
        if step.inverse:
            return self.in_neighbors(node_id, step.label)
        return self.out_neighbors(node_id, step.label)

    def step_pairs(self, step: Step) -> Iterator[tuple[int, int]]:
        """All ``(a, b)`` id pairs such that ``a --step--> b``.

        For a forward step these are exactly the label's edges; for an
        inverse step the edges with source and target exchanged.
        """
        relation = self._edges.get(step.label, ())
        if step.inverse:
            for src, tgt in relation:
                yield tgt, src
        else:
            yield from relation

    def step_relation(self, step: Step) -> set[tuple[int, int]]:
        """The relation of one step as a fresh set of id pairs."""
        return set(self.step_pairs(step))

    def undirected_neighbors(self, node_id: int) -> set[int]:
        """All nodes one *k-path* hop away, ignoring direction and label.

        This is the neighborhood used by the paper's ``paths_k``
        definition (Section 2.1), where an i-path may traverse each edge
        in either direction.
        """
        result: set[int] = set()
        for label in self._edges:
            result.update(self._out.get(label, {}).get(node_id, ()))
            result.update(self._in.get(label, {}).get(node_id, ()))
        return result

    def all_steps(self) -> tuple[Step, ...]:
        """Every step over the vocabulary: each label, both directions."""
        steps: list[Step] = []
        for label in self.labels():
            steps.append(Step(label))
            steps.append(Step(label, inverse=True))
        return tuple(steps)

    # -- misc ---------------------------------------------------------------

    def degree_out(self, node_id: int) -> int:
        """Total out-degree of a node across all labels."""
        return sum(len(adj.get(node_id, ())) for adj in self._out.values())

    def degree_in(self, node_id: int) -> int:
        """Total in-degree of a node across all labels."""
        return sum(len(adj.get(node_id, ())) for adj in self._in.values())

    def pairs_to_names(
        self, pairs: Iterable[tuple[int, int]]
    ) -> set[tuple[str, str]]:
        """Translate id pairs back to name pairs."""
        names = self._id_to_name
        return {(names[a], names[b]) for a, b in pairs}

    def named_pairs(self, pairs: Relation | Iterable[tuple[int, int]]) -> NamedPairs:
        """Duplicate-free id pairs as a :class:`NamedPairs` (decodes nothing)."""
        return NamedPairs(Relation.coerce(pairs), self._id_to_name, self._name_to_id)

    def __repr__(self) -> str:
        return (
            f"Graph(nodes={self.node_count}, edges={self.edge_count}, "
            f"labels={list(self.labels())})"
        )
