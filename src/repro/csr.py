"""Compressed-sparse-row adjacency and condensation-based Kleene closure.

The recursive operators (``Star`` / ``Repeat`` / open ``Repeat``) used to
run as packed-pair *delta iteration* (:func:`repro.relation.delta_transitive_fixpoint`):
every round re-joined the freshly discovered pairs against the base
relation through hash or ``searchsorted`` probes and re-deduplicated
against the whole accumulator.  This module replaces that hot path with
the textbook closure over the condensed graph (Tarjan; Nuutila's
SCC-based transitive closure):

* :class:`CSR` — the base relation compiled once into ``(offsets,
  targets)`` compressed sparse row form, built in O(n + m) from a
  ``BY_SRC``-sorted :class:`~repro.relation.Relation` (plus a
  :meth:`~CSR.transpose` for target-major traversal).  One step from a
  node is an *offset-indexed slice*, not a hash lookup or binary search.
* condensation — one iterative Tarjan pass closes each strongly
  connected component once, in reverse topological order, as a **reach
  bitset** (a Python big-int: union is one word-parallel ``|`` instead
  of the delta loop's per-pair hashing) shared by all its members.
* decode once — a reach set becomes id columns once per component, not
  once per member: on recursive workloads nearly every source sits in
  one giant component.  Wide sets decode through ``numpy.unpackbits``
  when numpy is available, narrow ones through a per-byte table.
* power iteration — :func:`relation_power` and :func:`bounded_powers`
  advance per-source *level sets* through the same CSR (adjacency
  bitsets on the scalar path, packed-key expansion on the numpy path),
  with the same early-saturation fingerprinting as the reference
  semantics.

Entry points mirror :mod:`repro.relation`'s recursion kernels
(:func:`transitive_fixpoint`, :func:`bounded_powers`,
:func:`relation_power`) and those kernels now delegate here whenever the
id space is dense (:func:`supports`).  Node ids must be small enough to
index bitsets and CSR offsets — the dense interned ids produced by
:class:`repro.graph.graph.Graph` always are.  Correctness is pinned by
property tests against the independent tuple-set oracle in
:mod:`repro.rpq.semantics`.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Iterable, Sequence

from repro import relation as rel
from repro.errors import ValidationError
from repro.relation import Order, Relation

_SHIFT = rel._SHIFT
_MASK = rel._MASK

#: Ids must stay below this for the bitset/CSR representation to make
#: sense (a reach bitset is O(max_id) bits *per component*).  Graph
#: interning produces dense ids, so real workloads sit far below; the
#: :mod:`repro.relation` wrappers fall back to delta iteration above it.
MAX_DENSE_NODE = 1 << 22

#: Bitsets at least this many bytes wide decode through numpy
#: (``unpackbits`` + ``flatnonzero``); narrower ones through the byte
#: table below, which has no per-call dispatch overhead.
_WIDE_BITSET_BYTES = 512

#: Bit positions set in each byte value — drives bitset -> id decoding.
_BYTE_BITS = tuple(
    tuple(bit for bit in range(8) if value >> bit & 1) for value in range(256)
)


def _np():
    """The numpy module when the vectorized path is allowed, else None."""
    if rel._np is not None and not rel._FORCE_PURE_PYTHON:
        return rel._np
    return None


def _vectorize(size: int) -> bool:
    return _np() is not None and size >= rel._VECTOR_MIN


class CSR:
    """A binary relation in compressed sparse row form.

    ``targets[offsets[u]:offsets[u + 1]]`` are the successors of node
    ``u``, ascending and duplicate-free.  ``n`` bounds every id that
    appears (as source *or* target), so any node produced by an
    expansion can itself be expanded by plain offset indexing.
    """

    __slots__ = ("n", "offsets", "targets", "relation")

    def __init__(self, n: int, offsets: array, targets: array, relation: Relation):
        self.n = n
        self.offsets = offsets
        self.targets = targets
        #: The BY_SRC-sorted relation the CSR was compiled from (the
        #: columns are shared, not copied — treat both as immutable).
        self.relation = relation

    @classmethod
    def from_relation(cls, relation: Relation, n: int | None = None) -> "CSR":
        """Compile ``relation`` into CSR form in O(n + m).

        ``relation`` is sorted/deduplicated first unless its tracked
        order already is ``BY_SRC`` (index scans and union outputs are,
        so the common engine path pays no extra sort).  A declared
        ``n`` is trusted — it must bound every id in the relation (the
        kernels pass the precomputed :func:`dense_bound`, so the hot
        path scans the columns once; an id at or past a too-small ``n``
        fails loudly in the offsets fill).  It may also widen the id
        space beyond the relation's own ids, e.g. to cover every graph
        node for identity seeding.
        """
        sorted_rel = relation.sorted_by(Order.BY_SRC)
        if n is None:
            n = _relation_bound(sorted_rel)
        if n > MAX_DENSE_NODE:
            raise ValidationError(
                f"CSR needs dense node ids; got id space {n} > {MAX_DENSE_NODE}"
            )
        numpy = _np()
        if numpy is not None and len(sorted_rel) >= rel._VECTOR_MIN:
            counts = numpy.bincount(rel._view(sorted_rel.src), minlength=n)
            offsets_np = numpy.zeros(n + 1, dtype=numpy.int64)
            numpy.cumsum(counts, out=offsets_np[1:])
            offsets = rel._column(offsets_np)
        else:
            offsets = array("q", bytes(8 * (n + 1)))
            for source in sorted_rel.src:
                offsets[source + 1] += 1
            total = 0
            for i in range(1, n + 1):
                total += offsets[i]
                offsets[i] = total
        return cls(n, offsets, sorted_rel.tgt, sorted_rel)

    def __len__(self) -> int:
        """Number of edges (pairs) in the relation."""
        return len(self.targets)

    def out_degree(self, node: int) -> int:
        return self.offsets[node + 1] - self.offsets[node]

    def neighbors(self, node: int) -> Sequence[int]:
        """Successors of ``node``, ascending (an O(1) slice)."""
        return self.targets[self.offsets[node] : self.offsets[node + 1]]

    def transpose(self) -> "CSR":
        """The CSR of the inverse relation (targets become sources)."""
        return CSR.from_relation(rel.swap(self.relation), self.n)

    def adjacency_bitsets(self) -> dict[int, int]:
        """Per-source successor bitsets (only sources with successors)."""
        offsets, targets = self.offsets, self.targets
        adjacency: dict[int, int] = {}
        position = 0
        for node in range(self.n):
            end = offsets[node + 1]
            if position < end:
                bits = 0
                # repro: ignore[deadline-loop] bounded scan of one neighbor range
                while position < end:
                    bits |= 1 << targets[position]
                    position += 1
                adjacency[node] = bits
        return adjacency


def _relation_bound(relation: Relation) -> int:
    """``max id + 1`` over both columns (0 for the empty relation)."""
    if not len(relation):
        return 0
    if _np() is not None and len(relation) >= rel._VECTOR_MIN:
        return int(
            max(rel._view(relation.src).max(), rel._view(relation.tgt).max())
        ) + 1
    return max(max(relation.src), max(relation.tgt)) + 1


def _ids_bound(node_ids) -> int:
    if isinstance(node_ids, range):
        return (node_ids[-1] + 1) if len(node_ids) else 0
    node_ids = list(node_ids)
    return (max(node_ids) + 1) if node_ids else 0


def dense_bound(node_ids, base: Relation) -> int:
    """``max id + 1`` over ``node_ids`` and both relation columns.

    Callers (the :mod:`repro.relation` wrappers) compute this once and
    pass it to the kernels as ``bound``, so the hot path scans the
    columns a single time.
    """
    return max(_ids_bound(node_ids), _relation_bound(base))


def supports(node_ids, base: Relation) -> bool:
    """Whether the id space is dense enough for bitset/CSR closure."""
    return dense_bound(node_ids, base) <= MAX_DENSE_NODE


# -- public kernels ------------------------------------------------------------


def transitive_fixpoint(
    node_ids, base: Relation, low: int, bound: int | None = None,
    deadline=None,
) -> Relation:
    """``base^low ∪ base^{low+1} ∪ ...`` by condensation-based closure.

    Semantics match :func:`repro.rpq.semantics.transitive_fixpoint`:
    ``low == 0`` unions in the identity over ``node_ids``.  ``bound``
    is an optional precomputed :func:`dense_bound`.  ``deadline`` (a
    :class:`repro.faults.Deadline`) is checked cooperatively inside the
    closure, the ``low >= 2`` power rounds and the per-source extension
    — the one place a query's running time is not bounded by the plan
    shape.
    """
    ids = node_ids if isinstance(node_ids, range) else list(node_ids)
    if not len(base):
        return rel.identity(ids) if low == 0 else Relation.empty()
    csr = CSR.from_relation(base, bound if bound is not None else dense_bound(ids, base))
    reach = closure_bitsets(csr, deadline=deadline)
    if low <= 1:
        answers = reach
    else:
        answers = {}
        for source, bits in _py_power_bitsets(csr, low, deadline).items():
            if deadline is not None:
                deadline.check()
            total = bits
            for node in _iter_bits(bits):
                extension = reach.get(node)
                if extension:
                    total |= extension
            answers[source] = total
    return _emit_bitsets(answers, ids if low == 0 else None)


def partitioned_closure(
    node_ids, parts: Sequence[Relation], low: int = 0, deadline=None
) -> Relation:
    """Kleene closure of a base relation scattered across shards.

    The sharded engine (:mod:`repro.sharding`) evaluates a ``Star``
    operand per shard, but the closure itself cannot stay shard-local:
    a recursive path may hop between shards on every step, so the
    per-shard base slices are merged (one packed-key union — the slices
    are disjoint by the partition rule) and closed **globally** through
    the condensation.  This is the "exactness over locality" point
    of the design: recursion is the one operator that always gathers.

    Delegates to :func:`repro.relation.transitive_fixpoint`, so the
    sparse-id delta fallback applies unchanged; with a single part this
    *is* the unsharded closure.
    """
    parts = [part for part in parts if len(part)]
    if not parts:
        ids = node_ids if isinstance(node_ids, range) else list(node_ids)
        return rel.identity(ids) if low == 0 else Relation.empty()
    base = parts[0] if len(parts) == 1 else rel.union(parts)
    return rel.transitive_fixpoint(node_ids, base, low, deadline=deadline)


def relation_power(
    node_ids, base: Relation, exponent: int, bound: int | None = None
) -> Relation:
    """``base^exponent`` under composition (power 0 is the identity)."""
    ids = node_ids if isinstance(node_ids, range) else list(node_ids)
    if exponent == 0:
        return rel.identity(ids)
    if not len(base):
        return Relation.empty()
    csr = CSR.from_relation(base, bound)
    if _vectorize(len(base)):
        power = _np_base_packed(csr)
        for _ in range(exponent - 1):
            if not len(power):
                break
            power = _np_step(csr, power)
        return rel._unpack_np(power, Order.BY_SRC)
    return _emit_bitsets(_py_power_bitsets(csr, exponent))


def bounded_powers(
    node_ids, base: Relation, low: int, high: int, bound: int | None = None,
    deadline=None,
) -> Relation:
    """``base^low ∪ ... ∪ base^high`` with early saturation.

    Mirrors the oracle exactly: the level set of each power is advanced
    through the CSR, and iteration stops as soon as a whole power
    repeats (powers over a finite node set are eventually periodic).
    ``deadline`` is checked once per power round.
    """
    ids = node_ids if isinstance(node_ids, range) else list(node_ids)
    if not len(base):
        return rel.identity(ids) if low == 0 else Relation.empty()
    csr = CSR.from_relation(base, bound if bound is not None else dense_bound(ids, base))
    if _vectorize(len(base)):
        return _np_bounded_powers(csr, ids, low, high, deadline)
    return _py_bounded_powers(csr, ids, low, high, deadline)


# -- pure-Python path: big-int visited bitsets ---------------------------------


def _iter_bits(bits: int):
    """Set-bit positions of ``bits``, ascending."""
    # repro: ignore[deadline-loop] strictly decreasing popcount; bounded
    while bits:
        lowest = bits & -bits
        yield lowest.bit_length() - 1
        bits ^= lowest


def closure_bitsets(csr: CSR, deadline=None) -> dict[int, int]:
    """``reach(s)`` (targets of paths of length >= 1) for every source.

    One iterative Tarjan pass condenses the graph into strongly
    connected components, which close in reverse topological order: when
    a component closes, every component it points to already has.  Its
    reach is the OR, over its members' out-edges ``(v, t)``, of
    ``1 << t | reach(t)``.  A cyclic component (more than one member, or
    a self-loop) needs nothing more: each member is the target of an
    edge inside it, so the members' own bits arrive through the same OR.
    Every member gets that one int object — :func:`_emit_bitsets` decodes
    it once for all of them.

    Nodes without successors are never entered (their reach is empty).
    The deadline is checked per DFS root and per closed component.
    """
    offsets, targets = csr.offsets, csr.targets
    n = csr.n
    closed = n + 1  # a preorder number above every real one
    number = [0] * n  # preorder number, 0 = not entered, ``closed`` = done
    lowlink = [0] * n
    slot = [0] * n  # position on ``pending`` when entered
    reach_of = [0] * n
    reach: dict[int, int] = {}
    pending: list[int] = []
    counter = 0
    for root in range(n):
        if number[root] or offsets[root] == offsets[root + 1]:
            continue
        if deadline is not None:
            deadline.check()
        counter += 1
        number[root] = lowlink[root] = counter
        slot[root] = len(pending)
        pending.append(root)
        frames = [(root, iter(targets[offsets[root] : offsets[root + 1]]))]
        while frames:
            node, successors = frames[-1]
            for successor in successors:
                seen = number[successor]
                if not seen:
                    start, end = offsets[successor], offsets[successor + 1]
                    if start == end:
                        continue
                    counter += 1
                    number[successor] = lowlink[successor] = counter
                    slot[successor] = len(pending)
                    pending.append(successor)
                    frames.append((successor, iter(targets[start:end])))
                    break
                if seen < lowlink[node]:
                    lowlink[node] = seen
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
                if lowlink[node] != number[node]:
                    continue
                if deadline is not None:
                    deadline.check()
                members = pending[slot[node] :]
                del pending[slot[node] :]
                heads = set()
                for member in members:
                    heads.update(targets[offsets[member] : offsets[member + 1]])
                bits = 0
                for head in heads:
                    bits |= reach_of[head] | 1 << head
                for member in members:
                    number[member] = closed
                    reach_of[member] = reach[member] = bits
    return reach


def _advance_levels(
    adjacency: dict[int, int], power: dict[int, int], deadline=None
) -> dict[int, int]:
    """One composition step: each source's level set through the edges."""
    advanced: dict[int, int] = {}
    for source, bits in power.items():
        if deadline is not None:
            deadline.check()
        level = 0
        for node in _iter_bits(bits):
            step = adjacency.get(node)
            if step:
                level |= step
        if level:
            advanced[source] = level
    return advanced


def _py_power_bitsets(csr: CSR, exponent: int, deadline=None) -> dict[int, int]:
    """Non-empty level sets of ``base^exponent`` (exponent >= 1)."""
    adjacency = csr.adjacency_bitsets()
    current = dict(adjacency)
    for _ in range(exponent - 1):
        if not current:
            break
        current = _advance_levels(adjacency, current, deadline)
    return current


def _py_bounded_powers(
    csr: CSR, ids, low: int, high: int, deadline=None
) -> Relation:
    adjacency = csr.adjacency_bitsets()
    if low == 0:
        power = {node: 1 << node for node in ids}
    else:
        power = _py_power_bitsets(csr, low, deadline)
    accumulated = dict(power)
    seen_powers = {frozenset(power.items())}
    for _ in range(low, high):
        if deadline is not None:
            deadline.check()
        if not power:
            break
        power = _advance_levels(adjacency, power, deadline)
        for source, bits in power.items():
            accumulated[source] = accumulated.get(source, 0) | bits
        fingerprint = frozenset(power.items())
        if fingerprint in seen_powers:
            break
        seen_powers.add(fingerprint)
    return _emit_bitsets(accumulated)


def _emit_bitsets(answers: dict[int, int], identity_ids=None) -> Relation:
    """Bitsets -> a BY_SRC-sorted, duplicate-free columnar relation.

    Sources are emitted ascending and each bitset decodes ascending, so
    the output needs no further sort.  ``identity_ids`` additionally
    unions in ``(n, n)`` for every listed node.

    Sources handed the same int *object* (the members of one strongly
    connected component, see :func:`closure_bitsets`) share one
    decoding: it is made at the first of them and dropped after the
    last, so an all-singleton answer holds nothing extra.
    """
    source_column = array("q")
    target_column = array("q")
    uses = Counter(map(id, answers.values()))
    shared: dict[int, array] = {}
    if identity_ids is None:
        sources: Iterable[int] = sorted(
            source for source, bits in answers.items() if bits
        )
        membership = None
    else:
        membership = (
            identity_ids if isinstance(identity_ids, range) else set(identity_ids)
        )
        sources = sorted(
            {source for source, bits in answers.items() if bits} | set(membership)
        )
    for source in sources:
        bits = answers.get(source, 0)
        if membership is not None and source in membership:
            if not bits >> source & 1:
                bits |= 1 << source  # a fresh int, decoded on its own
        if not bits:
            continue
        key = id(bits)
        left = uses.get(key, 0)
        if left > 1:
            uses[key] = left - 1
            decoded = shared.get(key)
            if decoded is None:
                decoded = shared[key] = _decode(bits)
        else:
            decoded = shared.pop(key, None) or _decode(bits)
        target_column.extend(decoded)
        source_column.extend(array("q", (source,)) * len(decoded))
    return Relation(source_column, target_column, Order.BY_SRC)


def _decode(bits: int) -> array:
    """The set-bit positions of a non-zero ``bits``, ascending."""
    # Skip leading zero bytes so narrow bitsets decode in O(range).
    lowest = bits & -bits
    base = ((lowest.bit_length() - 1) >> 3) << 3
    bits >>= base
    data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
    numpy = _np()
    if numpy is not None and len(data) >= _WIDE_BITSET_BYTES:
        # Wide set: materialize as a boolean vector in one C pass.
        flags = numpy.unpackbits(
            numpy.frombuffer(data, dtype=numpy.uint8), bitorder="little"
        )
        return rel._column(numpy.flatnonzero(flags) + base)
    byte_bits = _BYTE_BITS
    return array(
        "q",
        [
            base + (index << 3) + offset
            for index, byte in enumerate(data)
            if byte
            for offset in byte_bits[byte]
        ],
    )


# -- numpy path: blocked boolean visited matrices ------------------------------


def _np_columns(csr: CSR):
    numpy = _np()
    offsets = numpy.frombuffer(csr.offsets, dtype=numpy.int64)
    targets = numpy.frombuffer(csr.targets, dtype=numpy.int64)
    return numpy, offsets, targets


def _np_base_packed(csr: CSR):
    sorted_rel = csr.relation
    return rel._pack_np(rel._view(sorted_rel.src), rel._view(sorted_rel.tgt))


def _np_step(csr: CSR, packed):
    """One composition step ``packed ∘ base`` by offset-indexed expansion.

    The delta-iteration ancestor did this with two ``searchsorted``
    probes per round; the CSR makes the neighbor range of every middle
    node a direct ``offsets`` gather.
    """
    numpy, offsets, targets = _np_columns(csr)
    middles = (packed & _MASK).astype(numpy.int64)
    starts = offsets[middles]
    counts = offsets[middles + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return packed[:0]
    heads = numpy.repeat(packed & ~numpy.uint64(_MASK), counts)
    shifts = numpy.cumsum(counts) - counts
    positions = (
        numpy.arange(total, dtype=numpy.int64)
        - numpy.repeat(shifts, counts)
        + numpy.repeat(starts, counts)
    )
    produced = heads | targets[positions].astype(numpy.uint64)
    return rel._np_sorted_unique(produced)


def _np_identity_packed(numpy, ids):
    if isinstance(ids, range):
        column = numpy.arange(ids.start, ids.stop, ids.step, dtype=numpy.int64)
    else:
        column = numpy.fromiter(ids, dtype=numpy.int64, count=len(ids))
    return rel._pack_np(column, column)


def _np_bounded_powers(
    csr: CSR, ids, low: int, high: int, deadline=None
) -> Relation:
    numpy = _np()
    if low == 0:
        power = numpy.sort(_np_identity_packed(numpy, ids))
    else:
        power = _np_base_packed(csr)
        for _ in range(low - 1):
            if deadline is not None:
                deadline.check()
            if not len(power):
                break
            power = _np_step(csr, power)
    levels = [power]
    seen_powers = {power.tobytes()}
    for _ in range(low, high):
        if deadline is not None:
            deadline.check()
        if not len(power):
            break
        power = _np_step(csr, power)
        levels.append(power)
        fingerprint = power.tobytes()
        if fingerprint in seen_powers:
            break
        seen_powers.add(fingerprint)
    packed = rel._np_sorted_unique(numpy.concatenate(levels))
    return rel._unpack_np(packed, Order.BY_SRC)
