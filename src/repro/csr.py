"""Compressed-sparse-row adjacency and condensation-based Kleene closure.

The engine's one Kleene closure: every recursive operator (``Star`` /
``Repeat`` / open ``Repeat``) the rewriter cannot expand runs here, as
the textbook closure over the condensed graph (Tarjan; Nuutila's
SCC-based transitive closure).  ``benchmarks/bench_closure.py`` measures
it against packed-pair delta iteration, which re-joins each round's
fresh pairs against the base and re-deduplicates against the whole
accumulator:

* :class:`CSR` — the base relation compiled once into ``(offsets,
  targets)`` compressed sparse row form, built in O(n + m) from a
  ``BY_SRC``-sorted :class:`~repro.relation.Relation` (plus a
  :meth:`~CSR.transpose` for target-major traversal).  One step from a
  node is an *offset-indexed slice*, not a hash lookup or binary search.
* condensation — one iterative Tarjan pass closes each strongly
  connected component once, in reverse topological order, as a **reach
  bitset** (a Python big-int: union is one word-parallel ``|`` instead
  of the delta loop's per-pair hashing) shared by all its members.  The
  DFS accumulates reach as it goes: each node ORs in the set of every
  successor it finds closed, so a component closes by ORing its
  members' accumulators — O(n + m) big-int ORs, no per-component set of
  out-edge heads.
* decode once, write once — a reach set becomes id columns once per
  component, not once per member: on recursive workloads nearly every
  source sits in one giant component.  Wide sets decode through
  ``numpy.unpackbits`` when numpy is available, narrow ones through a
  per-byte table, sparse ones (a few ids far out) bit by bit.  Each
  output column is then written once at its final size — the target
  column as the concatenation (or one repeat) of the decoded rows, the
  source column by one ``numpy.repeat`` or broadcast — never by
  per-source appends.
* a left operand — :func:`transitive_fixpoint` (and
  :func:`partitioned_closure`) take ``left`` and answer the
  concatenation ``left / base{low,}`` in reach-bitset space: per source
  of ``left``, the OR of its targets' reach sets, each distinct result
  decoded once — never the ``|left| × |reach|`` pairs a join of the
  closure's pairs builds and deduplicates.  A density rule picks the
  fold only where it is the cheaper side: when the join's output,
  ``Σ_{(s, t) ∈ left} popcount(reach(t))``, is at least the fold's
  ``|left| · ⌈n/64⌉`` words.  Sparse, wide reach sets (a few bits far
  out in ``n``-bit ints) compose as pairs instead.
* a right operand — ``right`` seeds the same pass: each node starts
  from its row of ``right`` instead of its own bit, so a component's set
  is the ``right``-rows of everything it reaches and the pass answers
  ``base{low,} / right`` directly; with ``left`` too, ``left /
  base{low,} / right`` is still one pass and one fold.  A
  :class:`Reach` handed to :func:`partitioned_closure` keeps a base's
  CSR (and, once a closure without ``right`` needs them, its reach
  sets) between calls, so one compilation serves every closure and
  concatenation over that base (``low >= 2`` extends the same reach).
* power iteration — :func:`bounded_powers` (and the ``low >= 2`` seed
  of :func:`transitive_fixpoint`) advance per-source *level sets*
  through the same CSR (adjacency bitsets on the scalar path,
  packed-key expansion on the numpy path), with the same
  early-saturation fingerprinting as the reference semantics.

:mod:`repro.relation`'s recursion kernels (:func:`transitive_fixpoint`,
:func:`bounded_powers`) call these entry points unconditionally.  Node
ids index bitsets and CSR offsets directly, so the id space is sized by
the graph: :class:`repro.graph.graph.Graph` interns ids densely
(``node_ids()`` is a ``range``).  Correctness is pinned by property
tests against the independent tuple-set oracle in
:mod:`repro.rpq.semantics`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from itertools import groupby
from operator import itemgetter
from struct import Struct
from typing import Sequence

from repro import relation as rel
from repro.relation import Order, Relation

_SHIFT = rel._SHIFT
_MASK = rel._MASK

#: One id as a column's bytes (``array('q')`` is native-endian int64).
_PACK = Struct("q").pack
#: Repeated, a zero-filled column of any length.
_ZERO = array("q", (0,))

#: Bitsets at least this many bytes wide decode through numpy
#: (``unpackbits`` + ``flatnonzero``); narrower ones through the byte
#: table below, which has no per-call dispatch overhead.
_WIDE_BITSET_BYTES = 512

#: Sets of one id, or of at most this many ids under one id per eight
#: bytes of width, decode bit by bit: each step is one pass over a
#: shrinking int, and up to about this count that beats a scan of every
#: byte (or ``unpackbits``) at the widths measured (2k to 80k bits).
_SPARSE_BITS = 32

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
        kernels pass :func:`dense_bound`; an id at or past a too-small
        ``n`` fails loudly in the offsets fill).  It may also widen the
        id space beyond the relation's own ids, e.g. to cover every
        graph node for identity seeding.
        """
        sorted_rel = relation.sorted_by(Order.BY_SRC)
        if n is None:
            n = _relation_bound(sorted_rel)
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
    """``max id + 1`` over ``node_ids`` and both relation columns: the
    CSR's id space."""
    return max(_ids_bound(node_ids), _relation_bound(base))


# -- public kernels ------------------------------------------------------------


class Reach:
    """One base relation compiled for closure, kept for the next closure over it.

    Empty until the first :func:`partitioned_closure` handed it fills it
    with ``csr``, the base in CSR form.  ``bits``, each source's reach
    bitset (paths of length >= 1, :func:`closure_bitsets`), is closed
    from ``csr`` the first time a closure without a right operand needs
    it; a closure with one runs its own seeded pass over ``csr``.  A
    later call handed the same filled ``Reach`` starts from it, whatever
    its ``low``, ``left`` or ``right``, and reads no ``parts``: a caller
    that keeps one per closure operand (the executor's scan memo)
    compiles ``b`` once, and condenses it once, for ``a/b* | c/b{2,}``.
    """

    __slots__ = ("csr", "bits")

    def __init__(self) -> None:
        self.csr: CSR | None = None
        self.bits: dict[int, int] | None = None

    @property
    def filled(self) -> bool:
        return self.csr is not None

    def fill(self, ids, base: Relation, deadline=None) -> "Reach":
        """Compile ``base`` and close it."""
        self.compile(ids, base)
        self.closed(deadline)
        return self

    def compile(self, ids, base: Relation) -> None:
        self.csr = CSR.from_relation(base, dense_bound(ids, base))

    def closed(self, deadline=None) -> dict[int, int]:
        """``bits``, closing ``csr`` on first use."""
        if self.bits is None:
            self.bits = closure_bitsets(self.csr, deadline=deadline)
        return self.bits


def transitive_fixpoint(
    node_ids,
    base: Relation,
    low: int,
    deadline=None,
    left: Relation | None = None,
    right: Relation | None = None,
) -> Relation:
    """``left ∘ (base^low ∪ base^{low+1} ∪ ...) ∘ right`` by condensation-based closure.

    Semantics match :func:`repro.rpq.semantics.transitive_fixpoint`:
    ``low == 0`` unions in the identity over ``node_ids``.  Without
    ``left`` and ``right`` the answer is the closure itself.  With
    ``left`` it is the concatenation ``left / base{low,}``, composed
    from the reach bitsets (see :func:`_compose_left`) rather than from
    the closure's pairs; with ``right`` it is ``base{low,} / right``,
    closed in the same pass (see :func:`closure_bitsets`); with both,
    ``left / base{low,} / right``.

    ``deadline`` (a :class:`repro.faults.Deadline`) is checked
    cooperatively inside the closure, the ``low >= 2`` power rounds, the
    per-source extension and the per-source fold — the one place a
    query's running time is not bounded by the plan shape.
    """
    return partitioned_closure(
        node_ids, [base], low, deadline=deadline, left=left, right=right
    )


def _close(
    ids, reach: Reach, low: int, deadline, left: Relation | None, right: Relation | None
) -> Relation:
    """``left ∘ base^{low..} ∘ right`` from a filled ``reach`` of ``base``
    (either operand may be absent)."""
    n = reach.csr.n
    if right is None:
        seeds = None
        answers = reach.closed(deadline)
    else:
        seeds = _right_rows(right, n)
        answers = closure_bitsets(reach.csr, deadline=deadline, seeds=seeds)
    if low >= 2:
        answers = _extended(reach.csr, answers, low, deadline)
    identity_ids = ids if low == 0 else None
    if left is None:
        return _emit_bitsets(answers, identity_ids, seeds)
    if right is not None:
        n = max(n, _relation_bound(right))
    return _compose_left(left, answers, n, identity_ids, seeds, deadline)


def _right_rows(right: Relation, n: int) -> list[int]:
    """Each node's row of ``right`` as a bitset, indexed by node id below
    ``n`` (a source at or past ``n`` is outside the base and the identity,
    so no pass reads its row).  One OR of at most ``⌈n/64⌉`` words per
    pair, the fold's cost per left pair (:func:`_compose_left`)."""
    rows = [0] * n
    for source, target in zip(right.src, right.tgt):
        if source < n:
            row = rows[source]
            rows[source] = row | 1 << target if row else 1 << target
    return rows


def _bitset(ids: list[int]) -> int:
    """The bitset of a non-empty list of ids, built in one byte buffer:
    ORing shifted ints would copy the growing set once per id."""
    buffer = bytearray((max(ids) >> 3) + 1)
    for node in ids:
        buffer[node >> 3] |= 1 << (node & 7)
    return int.from_bytes(buffer, "little")


def _extended(csr: CSR, answers: dict[int, int], low: int, deadline=None) -> dict[int, int]:
    """Each source's bitset of ``base^low ∪ base^{low+1} ∪ ...`` (then
    through the right operand, when ``answers`` was seeded with one) for
    ``low >= 2``: the OR of the answers of every node ``base^{low-1}``
    takes it to."""
    extended = {}
    canonical: dict[int, int] = {}
    for source, level in _py_power_bitsets(csr, low - 1, deadline).items():
        if deadline is not None:
            deadline.check()
        total = 0
        for node in _iter_bits(level):
            total |= answers.get(node, 0)
        if total:
            # Sources with equal sets share one object, as a component's
            # members do in ``answers``, so each set decodes once.
            extended[source] = canonical.setdefault(total, total)
    return extended


def _compose_left(
    left: Relation,
    answers: dict[int, int],
    n: int,
    identity_ids,
    seeds: list[int] | None = None,
    deadline=None,
) -> Relation:
    """``left ∘ closure`` where ``answers[t]`` is the closure's row of ``t``.

    Two ways to the same answer, picked by arithmetic:

    * **compose** — decode the closure rows of ``left``'s targets into
      pairs and join them with ``left`` (:func:`repro.relation.compose`):
      the join materializes one pair per (left pair, reached node), that
      is ``Σ_{(s, t) ∈ left} popcount(row(t))`` pairs.
    * **fold** — OR, per source of ``left``, the rows of its targets,
      and decode each distinct result once: ``|left|`` ORs of
      ``⌈n/64⌉`` words.

    The fold runs when the compose's output is at least the fold's word
    count.  On dense answers (every source reaching most nodes) that
    saves the join building ``|left| × |reach|`` pairs only to
    deduplicate them; on sparse, wide ones (a few bits set far out in
    ``n``-bit ints) the ORs cost more than the pairs, and the join runs.
    The popcounts are the lengths of the decoded rows, which the compose
    needs anyway (a row shared by a component decodes once); the rows
    decode one by one and stop as soon as the sum reaches the fold's
    word count, so the fold wastes no more decoding than that.
    ``identity_ids`` (``low == 0``) adds the seed of every listed target
    to its row: ``(t, t)``, or ``t``'s row of the right operand.  A
    cyclic component's members reach their own seeds already, so their
    rows stay one shared object.
    """
    membership = None
    if identity_ids is not None:
        membership = (
            identity_ids if isinstance(identity_ids, range) else set(identity_ids)
        )
    multiplicity = Counter(left.tgt)
    rows: dict[int, int] = {}  # each target's non-empty row, identity included
    for target in multiplicity:
        bits = answers.get(target, 0)
        if membership is not None and target in membership:
            seed = 1 << target if seeds is None else seeds[target]
            if seed & ~bits:
                bits |= seed  # a fresh int, decoded on its own
        if bits:
            rows[target] = bits
    fold_words = len(left) * ((n + 63) >> 6)
    produced = 0
    decoded: dict[int, array] = {}  # by id(row): one decoding per set
    for target, bits in rows.items():
        targets = decoded.get(id(bits))
        if targets is None:
            targets = decoded[id(bits)] = _decode(bits)
        produced += multiplicity[target] * len(targets)
        if produced >= fold_words:
            return _fold_left(left, rows, deadline)
    sources = sorted(rows)
    closure = _columns(sources, [decoded[id(rows[target])] for target in sources])
    return rel.compose(left, closure)


def _fold_left(left: Relation, rows: dict[int, int], deadline=None) -> Relation:
    """Per source of ``left``, the OR of its targets' ``rows``."""
    folded: dict[int, int] = {}
    canonical: dict[int, int] = {}
    ordered = left.sorted_by(Order.BY_SRC)
    for source, pairs in groupby(zip(ordered.src, ordered.tgt), key=itemgetter(0)):
        if deadline is not None:
            deadline.check()
        bits = 0
        for _, target in pairs:
            bits |= rows.get(target, 0)
        if bits:
            # Equal sets become one object, so _emit_bitsets decodes
            # each distinct set once.
            folded[source] = canonical.setdefault(bits, bits)
    return _emit_bitsets(folded)


def partitioned_closure(
    node_ids,
    parts: Sequence[Relation],
    low: int = 0,
    deadline=None,
    left: Relation | None = None,
    reach: Reach | None = None,
    right: Relation | None = None,
) -> Relation:
    """Kleene closure of a base relation scattered across shards.

    The sharded engine (:mod:`repro.sharding`) evaluates a ``Star``
    operand per shard, but the closure itself cannot stay shard-local:
    a recursive path may hop between shards on every step, so the
    per-shard base slices are merged (one packed-key union — the slices
    are disjoint by the partition rule) and closed **globally** through
    the condensation.  This is the "exactness over locality" point
    of the design: recursion is the one operator that always gathers.

    ``left`` and ``right`` as in :func:`transitive_fixpoint`, which is
    this with a single part.  A filled ``reach`` (a :class:`Reach` of
    the same parts from an earlier call) is closed from as it is, and
    ``parts`` is not read; an empty one is filled here.
    """
    ids = node_ids if isinstance(node_ids, range) else list(node_ids)
    if (left is not None and not len(left)) or (right is not None and not len(right)):
        return Relation.empty()
    if reach is None:
        reach = Reach()
    if not reach.filled:
        parts = [part for part in parts if len(part)]
        reach.compile(ids, parts[0] if len(parts) == 1 else rel.union(parts))
    return _close(ids, reach, low, deadline, left, right)


def bounded_powers(
    node_ids, base: Relation, low: int, high: int, deadline=None
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
    csr = CSR.from_relation(base, dense_bound(ids, base))
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


def closure_bitsets(
    csr: CSR, deadline=None, seeds: list[int] | None = None
) -> dict[int, int]:
    """``reach(s)`` (targets of paths of length >= 1) for every source.

    One iterative Tarjan pass condenses the graph into strongly
    connected components, which close in reverse topological order: when
    a component closes, every component it points to already has.  Each
    node entered keeps an accumulator: as the DFS finds a successor
    closed — already closed when the edge is scanned, or a tree child
    that has just closed its own component — it ORs in the successor's
    ``1 << t | reach(t)``, precomputed at its close; a successor without
    out-edges (a sink) adds only its own bit.  A component then closes
    by ORing its members' accumulators (edges inside it add nothing
    there), plus the members' own bits when it is cyclic (more than one
    member, or a self-loop): each member is then the target of an edge
    inside it.  Every member gets that one int object —
    :func:`_emit_bitsets` decodes it once for all of them.

    ``seeds``, a right operand's rows indexed by node
    (:func:`_right_rows`), replaces each node's own bit: the answer is
    then ``reach(s) / right`` — ``right``'s rows of the nodes ``s``
    reaches — in the same pass.

    Nodes without successors are never entered (their reach is empty).
    The deadline is checked per DFS root and per closed component.
    """
    # Lists, not arrays: their items index and iterate without boxing.
    offsets = csr.offsets.tolist()
    targets = csr.targets.tolist()
    n = csr.n
    closed = n + 1  # a preorder number above every real one
    number = [0] * n  # preorder number, 0 = not entered, ``closed`` = done
    lowlink = [0] * n
    slot = [0] * n  # position on ``pending`` when entered
    gathered = [0] * n  # what each node's closed successors reach
    through = [0] * n  # seed(t) | reach(t) of each closed t
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
        # The DFS path: ``node`` and its successors still to scan, with
        # every ancestor's suspended on ``path``.
        node = root
        successors = iter(targets[offsets[root] : offsets[root + 1]])
        path: list = []
        while True:
            for successor in successors:
                seen = number[successor]
                if seen == closed:
                    bits = through[successor]
                    if gathered[node]:  # an OR into 0 would copy ``bits``
                        bits |= gathered[node]
                    gathered[node] = bits
                    continue
                if not seen:
                    start, end = offsets[successor], offsets[successor + 1]
                    if start == end:  # a sink: closed as soon as seen
                        number[successor] = closed
                        through[successor] = bits = (
                            1 << successor if seeds is None else seeds[successor]
                        )
                        if gathered[node]:
                            bits |= gathered[node]
                        gathered[node] = bits
                        continue
                    counter += 1
                    number[successor] = lowlink[successor] = counter
                    slot[successor] = len(pending)
                    pending.append(successor)
                    path.append((node, successors))
                    node = successor
                    successors = iter(targets[start:end])
                    break
                if seen < lowlink[node]:
                    lowlink[node] = seen
            else:
                low = lowlink[node]
                if low != number[node]:  # not a component's root: resume the parent
                    node, successors = path.pop()
                    if low < lowlink[node]:
                        lowlink[node] = low
                    continue
                if deadline is not None:
                    deadline.check()
                first = slot[node]
                if first == len(pending) - 1:  # a single member
                    pending.pop()
                    number[node] = closed
                    bits = gathered[node]
                    own = 1 << node if seeds is None else seeds[node]
                    start, end = offsets[node], offsets[node + 1]
                    if targets[bisect_left(targets, node, start, end - 1)] == node:
                        bits |= own  # a self-loop: cyclic
                        through[node] = reach[node] = bits
                    else:
                        reach[node] = bits
                        through[node] = bits | own
                else:
                    members = pending[first:]
                    del pending[first:]
                    bits = _bitset(members) if seeds is None else 0
                    for member in members:
                        number[member] = closed
                        bits |= gathered[member]
                    if seeds is not None:
                        for member in members:
                            bits |= seeds[member]
                    for member in members:
                        through[member] = reach[member] = bits
                if not path:
                    break
                bits = through[node]  # the parent finds its tree child closed
                node, successors = path.pop()
                if gathered[node]:
                    bits |= gathered[node]
                gathered[node] = bits
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


def _emit_bitsets(
    answers: dict[int, int], identity_ids=None, seeds: list[int] | None = None
) -> Relation:
    """Bitsets -> a BY_SRC-sorted, duplicate-free columnar relation.

    Sources are emitted ascending and each bitset decodes ascending, so
    the output needs no further sort.  ``identity_ids`` additionally
    adds each listed node's seed to its row: ``(n, n)``, or with
    ``seeds`` the node's row of the right operand.

    Sources handed the same int *object* (the members of one strongly
    connected component, see :func:`closure_bitsets`) share one
    decoding, and :func:`_columns` writes each column once.
    """
    if identity_ids is None:
        sources = sorted(source for source, bits in answers.items() if bits)
        sets = [answers[source] for source in sources]
    else:
        membership = (
            identity_ids if isinstance(identity_ids, range) else set(identity_ids)
        )
        if seeds is None:
            seeded = membership
        else:
            seeded = [node for node, row in enumerate(seeds) if row and node in membership]
        get = answers.get
        sources, sets = [], []
        for source in sorted(set(seeded).union(answers)):
            bits = get(source, 0)
            if source in membership:
                if seeds is None:
                    if not bits >> source & 1:
                        bits |= 1 << source  # a fresh int, decoded on its own
                else:
                    seed = seeds[source]
                    if seed & ~bits:
                        bits |= seed  # a fresh int, decoded on its own
            if bits:
                sources.append(source)
                sets.append(bits)
    # By id: ``sets`` keeps every object alive while the ids are used.
    distinct = {id(bits): bits for bits in sets}
    decoded = {key: _decode(bits) for key, bits in distinct.items()}
    return _columns(sources, [decoded[id(bits)] for bits in sets])


def _columns(sources: list[int], rows: list[array]) -> Relation:
    """The BY_SRC relation pairing ``sources[i]`` with each id of ``rows[i]``.

    Each column is written once, at its final size: the target column is
    the concatenation of the rows (one repeat when every source shares
    one row, the common case of a single giant component), and the source
    column is each source repeated by its row's length.  No column is
    built by per-source appends.
    """
    if not rows:
        return Relation.empty()
    first = rows[0]
    shared = rows.count(first) == len(rows)  # one row for every source
    if shared:
        target_column = first * len(rows)
    else:
        target_column = array("q")
        target_column.frombytes(b"".join(rows))
    numpy = _np()
    if numpy is not None and len(rows) >= rel._VECTOR_MIN:
        ids = numpy.array(sources, dtype=numpy.int64)
        if shared:
            # Written in place through a view: no temporary column.
            source_column = _ZERO * len(target_column)
            view = numpy.frombuffer(source_column, dtype=numpy.int64)
            view.reshape(len(rows), len(first))[:] = ids[:, None]
        else:
            lengths = numpy.fromiter(map(len, rows), dtype=numpy.int64, count=len(rows))
            source_column = array("q")
            source_column.frombytes(numpy.repeat(ids, lengths).view(numpy.uint8))
    else:
        pack = _PACK
        source_column = array("q")
        source_column.frombytes(
            b"".join([pack(source) * len(row) for source, row in zip(sources, rows)])
        )
    return Relation(source_column, target_column, Order.BY_SRC)


def _decode(bits: int) -> array:
    """The set-bit positions of a non-zero ``bits``, ascending."""
    count = bits.bit_count()
    if count == 1 or (count <= _SPARSE_BITS and count << 6 < bits.bit_length()):
        # Sparse set: peel the highest bit off until none is left; each
        # peel shrinks the int to the next set bit below.
        ids = []
        # repro: ignore[deadline-loop] one round per set bit, at most _SPARSE_BITS
        while bits:
            top = bits.bit_length() - 1
            ids.append(top)
            bits ^= 1 << top
        ids.reverse()
        return array("q", ids)
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

