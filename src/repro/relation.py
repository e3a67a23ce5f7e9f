"""Columnar ``(source, target)`` relations — the engine's common currency.

Every layer of the pipeline — index scans, merge/hash joins, unions,
fixpoints — manipulates binary relations over dense integer node ids.
Materializing each intermediate as a Python ``set``/``list`` of tuple
objects pays a per-pair allocation plus a tuple hash on the hot path;
this module replaces that with a single *columnar* representation:

* :class:`Relation` — twin ``array('q')`` columns (``src``, ``tgt``)
  plus a tracked sort :class:`Order` (``BY_SRC`` / ``BY_TGT`` /
  ``NONE``).  No per-pair tuples exist until a caller reads the answer:
  the API boundary hands the columns over as they are, under a
  :class:`~repro.graph.graph.NamedPairs` view that decodes names on
  demand and relies on this module's duplicate-free contract for its
  O(1) ``len``.
* columnar kernels — :func:`merge_join`, :func:`hash_join`,
  :func:`union`, :func:`dedup_sort`, :func:`swap`, :func:`compose` —
  that deduplicate through *packed* 64-bit ``src << 32 | tgt`` integer
  keys (cheap int hashing, no tuple allocation) and exploit tracked
  sort orders instead of re-sorting.
* columnar recursion — :func:`transitive_fixpoint` and
  :func:`bounded_powers` — both run the one Kleene closure engine,
  strongly connected component condensation over a compressed-sparse-row
  adjacency (:mod:`repro.csr`).  The executor's hybrid fallback calls
  :func:`bounded_powers` here and closes unbounded recursion with
  :func:`repro.csr.partitioned_closure` directly.

Representation contract
-----------------------
Node ids are the dense non-negative integers produced by
:class:`repro.graph.graph.Graph` interning; packing assumes
``0 <= id < 2**32`` (4 billion nodes).  A :class:`Relation` whose
``order`` is ``BY_SRC`` is sorted lexicographically by ``(src, tgt)``
and duplicate-free; ``BY_TGT`` likewise by ``(tgt, src)``; ``NONE``
makes no promise (it may still contain duplicates only if a kernel's
docstring says so — every kernel in this module emits duplicate-free
output).  The reference set semantics in :mod:`repro.rpq.semantics`
stays tuple-set based on purpose: it is the independent correctness
oracle the columnar kernels are property-tested against.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator

from repro.errors import ExecutionError, ValidationError

try:  # numpy is optional: every kernel has a pure-Python fallback.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via _FORCE_PURE_PYTHON
    _np = None

Pair = tuple[int, int]

#: Bits reserved for the target id in a packed pair.
_SHIFT = 32
_MASK = (1 << _SHIFT) - 1

#: Below this many input rows the vectorized kernels lose to plain
#: Python on fixed per-call overhead; stay scalar.
_VECTOR_MIN = 64

#: Test hook: set True to route every kernel through the scalar path.
_FORCE_PURE_PYTHON = False


def _vectorize(*lengths: int) -> bool:
    return (
        _np is not None
        and not _FORCE_PURE_PYTHON
        and sum(lengths) >= _VECTOR_MIN
    )


class Order(enum.Enum):
    """The sort order of a relation (and of a plan's output stream).

    Invariant (machine-checked by ``repro lint``, rule
    ``order-contract``): callers of the order-requiring kernels
    (:func:`merge_join`, :func:`dedup_sort`) validate or propagate the
    declared order — ``NONE`` never reaches a kernel that trusts it.
    """

    BY_SRC = "by_src"
    BY_TGT = "by_tgt"
    NONE = "none"


class Relation:
    """An immutable-by-convention columnar binary relation.

    ``src[i], tgt[i]`` is the i-th pair.  ``order`` records the sort
    order the columns are *known* to satisfy; kernels trust it, so
    constructors declaring ``BY_SRC``/``BY_TGT`` must hand over columns
    that really are sorted and duplicate-free (index scans and the
    kernels in this module do; :meth:`from_pairs` checks nothing).

    The sequence protocol (``len``, indexing, iteration yielding
    ``(src, tgt)`` tuples, equality against any pair sequence) is
    provided for tests and API-boundary code; hot paths should touch
    the columns directly.
    """

    __slots__ = ("src", "tgt", "order", "_frozen_len")

    def __init__(
        self,
        src: array | None = None,
        tgt: array | None = None,
        order: Order = Order.NONE,
    ) -> None:
        self.src = src if src is not None else array("q")
        self.tgt = tgt if tgt is not None else array("q")
        if len(self.src) != len(self.tgt):
            raise ValidationError(
                f"column length mismatch: {len(self.src)} src vs "
                f"{len(self.tgt)} tgt"
            )
        self.order = order
        self._frozen_len: int | None = None

    # -- freezing -------------------------------------------------------

    def freeze(self) -> "Relation":
        """Mark this relation as shared and immutable from here on.

        Relations handed to a cross-thread memo (the batch executor's
        shared :class:`~repro.engine.operators.ScanMemo`) are served to
        every consumer without copying, so mutating their columns after
        the fact would corrupt other queries' answers.  ``array('q')``
        cannot be made read-only, so freezing records the length and
        :meth:`check_frozen` asserts it never changes — catching the
        realistic mutation (an append into a shared column) loudly.
        """
        self._frozen_len = len(self.src)
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen_len is not None

    def check_frozen(self) -> "Relation":
        """Assert the frozen invariant still holds (memo hit path)."""
        if self._frozen_len is not None and self._frozen_len != len(self.src):
            raise ExecutionError(
                f"frozen relation mutated: froze at {self._frozen_len} "
                f"rows, now {len(self.src)}"
            )
        return self

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls, order: Order = Order.BY_SRC) -> "Relation":
        """The empty relation (vacuously sorted any way you like)."""
        return cls(array("q"), array("q"), order)

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Pair], order: Order = Order.NONE
    ) -> "Relation":
        """Build from ``(src, tgt)`` pairs, trusting the declared order.

        Ids outside ``[0, 2**32)`` are rejected: the join kernels pack
        pairs into 64-bit keys, and out-of-range ids would corrupt
        results silently instead of failing loudly here.
        """
        src = array("q")
        tgt = array("q")
        for a, b in pairs:
            src.append(a)
            tgt.append(b)
        relation = cls(src, tgt, order)
        low, high = id_range(relation)
        if low < 0 or high > _MASK:
            raise ValidationError(
                f"node ids must be in [0, 2**32) for packed-key "
                f"kernels; got values in [{low}, {high}]"
            )
        return relation

    @classmethod
    def coerce(cls, value, order: Order = Order.NONE) -> "Relation":
        """``value`` as a Relation: pass through, or convert a pair sequence."""
        if isinstance(value, cls):
            return value
        return cls.from_pairs(value, order)

    # -- sequence protocol ---------------------------------------------

    def __len__(self) -> int:
        return len(self.src)

    def __bool__(self) -> bool:
        return len(self.src) > 0

    def __iter__(self) -> Iterator[Pair]:
        return zip(self.src, self.tgt)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return list(zip(self.src[item], self.tgt[item]))
        return (self.src[item], self.tgt[item])

    def __contains__(self, pair: object) -> bool:
        try:
            a, b = pair  # type: ignore[misc]
        except (TypeError, ValueError):
            return False
        for i in range(len(self.src)):
            if self.src[i] == a and self.tgt[i] == b:
                return True
        return False

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Relation):
            return self.src == other.src and self.tgt == other.tgt
        if isinstance(other, (list, tuple)):
            return len(other) == len(self.src) and all(
                pair == expected for pair, expected in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        preview = ", ".join(str(pair) for pair in self[:4])
        suffix = ", ..." if len(self) > 4 else ""
        return (
            f"Relation(len={len(self)}, order={self.order.value}, "
            f"[{preview}{suffix}])"
        )

    # -- conversions -----------------------------------------------------

    def pairs(self) -> list[Pair]:
        """Materialize the relation as a list of tuples (API boundary)."""
        return list(zip(self.src, self.tgt))

    def to_set(self) -> set[Pair]:
        return set(zip(self.src, self.tgt))

    def to_frozenset(self) -> frozenset:
        return frozenset(zip(self.src, self.tgt))

    def packed(self) -> Iterator[int]:
        """The pairs as packed ``src << 32 | tgt`` integers."""
        shift = _SHIFT
        for a, b in zip(self.src, self.tgt):
            yield (a << shift) | b

    # -- order-aware views ------------------------------------------------

    def sorted_by(self, order: Order) -> "Relation":
        """This relation sorted (and deduplicated) by the given order."""
        if order is Order.NONE or self.order is order:
            return self
        return dedup_sort(self, order)


def locate(majors: array, minors: array, major: int, minor: int) -> tuple[int, bool]:
    """Where ``(major, minor)`` sits, or would, in lexicographically sorted columns."""
    low = bisect_left(majors, major)
    high = bisect_right(majors, major, low)
    position = bisect_left(minors, minor, low, high)
    return position, position < high and minors[position] == minor


def _from_packed_sorted(packed: list[int], order: Order) -> Relation:
    """Unpack an already-sorted, duplicate-free packed list.

    For ``BY_TGT`` the packed keys are ``tgt << 32 | src``.
    """
    src = array("q")
    tgt = array("q")
    if order is Order.BY_TGT:
        for key in packed:
            tgt.append(key >> _SHIFT)
            src.append(key & _MASK)
    else:
        for key in packed:
            src.append(key >> _SHIFT)
            tgt.append(key & _MASK)
    return Relation(src, tgt, order)


# -- numpy bridge --------------------------------------------------------------
#
# array('q') is buffer-compatible with numpy, so the vectorized kernels
# operate on zero-copy int64 views of the columns and only pay one C
# memcpy to hand columns back.  Pairs are packed into uint64 keys
# (``high << 32 | low``) so ``np.unique`` gives sort + dedup in one C
# pass, in exactly the lexicographic order the engine tracks.


def _view(column: array):
    """Zero-copy int64 view of one column."""
    return _np.frombuffer(column, dtype=_np.int64)


def _column(values) -> array:
    """A numpy integer vector as a fresh ``array('q')`` column."""
    out = array("q")
    out.frombytes(values.astype(_np.int64, copy=False).tobytes())
    return out


def _pack_np(high, low):
    return (high.astype(_np.uint64) << _SHIFT) | low.astype(_np.uint64)


def _pack_into(high, low, out) -> None:
    """Pack two int64 id vectors into a preallocated uint64 key slice.

    The allocation-free twin of :func:`_pack_np` for the fused gather:
    both ufuncs write straight into ``out``, so an N-way merge packs
    every part into one buffer with zero per-part temporaries.  Ids are
    nonnegative, so the unsafe int64→uint64 casts cannot change values.
    """
    _np.left_shift(high, _SHIFT, out=out, casting="unsafe")
    _np.bitwise_or(out, low.view(_np.uint64), out=out)


def _np_sorted_unique(values):
    """Sorted distinct values of a 1-d key vector.

    Semantically ``np.unique``, but sort + shift-compare directly:
    ``np.unique`` carries ~150µs of Python-level dispatch overhead per
    call, which dominated small-input kernels (the 1k-row ``union``
    regression) and the per-round cost of frontier expansion.
    """
    if len(values) <= 1:
        return values
    values = _np.sort(values)
    keep = _np.empty(len(values), dtype=bool)
    keep[0] = True
    _np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _unpack_np(packed, order: Order) -> Relation:
    high = (packed >> _SHIFT).astype(_np.int64)
    low = (packed & _MASK).astype(_np.int64)
    if order is Order.BY_TGT:
        return Relation(_column(low), _column(high), order)
    return Relation(_column(high), _column(low), order)


def _np_compose(left: Relation, right: Relation) -> Relation:
    """Vectorized composition; output sorted BY_SRC and duplicate-free.

    One side must act as the sorted "build" side for ``searchsorted``:
    ``right`` when it is BY_SRC, ``left`` when it is BY_TGT, otherwise
    ``right`` is sorted on the spot (the vectorized analogue of a hash
    build).
    """
    left_src, left_tgt = _view(left.src), _view(left.tgt)
    right_src, right_tgt = _view(right.src), _view(right.tgt)
    if right.order is Order.BY_SRC:
        probe_mid, build_mid = left_tgt, right_src
        probe_out, build_out = left_src, right_tgt
        probe_is_left = True
    elif left.order is Order.BY_TGT:
        probe_mid, build_mid = right_src, left_tgt
        probe_out, build_out = right_tgt, left_src
        probe_is_left = False
    else:
        sorting = _np.argsort(right_src, kind="stable")
        probe_mid, build_mid = left_tgt, right_src[sorting]
        probe_out, build_out = left_src, right_tgt[sorting]
        probe_is_left = True
    starts = _np.searchsorted(build_mid, probe_mid, side="left")
    ends = _np.searchsorted(build_mid, probe_mid, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return Relation.empty(Order.BY_SRC)
    probe_emitted = _np.repeat(probe_out, counts)
    offsets = _np.cumsum(counts) - counts
    positions = (
        _np.arange(total, dtype=_np.int64)
        - _np.repeat(offsets, counts)
        + _np.repeat(starts, counts)
    )
    build_emitted = build_out[positions]
    if probe_is_left:
        packed = _pack_np(probe_emitted, build_emitted)
    else:
        packed = _pack_np(build_emitted, probe_emitted)
    return _unpack_np(_np_sorted_unique(packed), Order.BY_SRC)


# -- kernels -------------------------------------------------------------------


def dedup_sort(relation: Relation, order: Order = Order.BY_SRC) -> Relation:
    """Sort by ``order`` and drop duplicate pairs (one packed-int sort)."""
    if order is Order.NONE:
        raise ValidationError("dedup_sort needs a concrete order")
    if _vectorize(len(relation)):
        src, tgt = _view(relation.src), _view(relation.tgt)
        if order is Order.BY_TGT:
            packed = _pack_np(tgt, src)
        else:
            packed = _pack_np(src, tgt)
        return _unpack_np(_np_sorted_unique(packed), order)
    if order is Order.BY_TGT:
        keys = {
            (relation.tgt[i] << _SHIFT) | relation.src[i]
            for i in range(len(relation))
        }
    else:
        keys = set(relation.packed())
    return _from_packed_sorted(sorted(keys), order)


def swap(relation: Relation) -> Relation:
    """Exchange source and target columns (zero-copy; order flips)."""
    if relation.order is Order.BY_SRC:
        flipped = Order.BY_TGT
    elif relation.order is Order.BY_TGT:
        flipped = Order.BY_SRC
    else:
        flipped = Order.NONE
    return Relation(relation.tgt, relation.src, flipped)


def identity(node_ids: Iterable[int]) -> Relation:
    """``{(n, n)}`` over ``node_ids`` (ascending ids → sorted both ways)."""
    src = array("q", node_ids)
    return Relation(src, array("q", src), Order.BY_SRC)


def merge_join(left: Relation, right: Relation) -> Relation:
    """Composition ``left ∘ right`` by a two-pointer group merge.

    Preconditions (validated): ``left`` sorted by target, ``right``
    sorted by source — the physical orders an inverse-path scan and a
    direct scan deliver for free.  Output is duplicate-free, unordered.
    """
    if left.order is not Order.BY_TGT or right.order is not Order.BY_SRC:
        raise ExecutionError(
            "merge join requires left sorted by target and right by source; "
            f"got {left.order.value} / {right.order.value}"
        )
    if _vectorize(len(left), len(right)):
        return _np_compose(left, right)
    left_src, left_tgt = left.src, left.tgt
    right_src, right_tgt = right.src, right.tgt
    left_len, right_len = len(left_src), len(right_src)
    out: set[int] = set()
    add = out.add
    i = j = 0
    # repro: ignore[deadline-loop] two-pointer scan bounded by len(left)+len(right)
    while i < left_len and j < right_len:
        key_left = left_tgt[i]
        key_right = right_src[j]
        if key_left < key_right:
            i += 1
        elif key_left > key_right:
            j += 1
        else:
            i_end = i
            # repro: ignore[deadline-loop] group scan bounded by len(left)
            while i_end < left_len and left_tgt[i_end] == key_left:
                i_end += 1
            j_end = j
            # repro: ignore[deadline-loop] group scan bounded by len(right)
            while j_end < right_len and right_src[j_end] == key_right:
                j_end += 1
            targets = right_tgt[j:j_end]
            for source in left_src[i:i_end]:
                base = source << _SHIFT
                for target in targets:
                    add(base | target)
            i, j = i_end, j_end
    return _from_packed_unordered(out)


def hash_join(left: Relation, right: Relation) -> Relation:
    """Composition ``left ∘ right`` building a hash table on the smaller side.

    Vectorized, this becomes a binary-search probe against whichever
    side is already sorted on the join key (sorting the right side if
    neither is) — the columnar analogue of the hash build.
    """
    if _vectorize(len(left), len(right)):
        return _np_compose(left, right)
    out: set[int] = set()
    add = out.add
    if len(left) <= len(right):
        by_target: dict[int, list[int]] = {}
        left_src, left_tgt = left.src, left.tgt
        for i, target in enumerate(left_tgt):
            by_target.setdefault(target, []).append(left_src[i])
        get = by_target.get
        right_src, right_tgt = right.src, right.tgt
        for j, mid in enumerate(right_src):
            sources = get(mid)
            if sources:
                target = right_tgt[j]
                for source in sources:
                    add((source << _SHIFT) | target)
    else:
        by_source: dict[int, list[int]] = {}
        right_src, right_tgt = right.src, right.tgt
        for j, mid in enumerate(right_src):
            by_source.setdefault(mid, []).append(right_tgt[j])
        get = by_source.get
        left_src, left_tgt = left.src, left.tgt
        for i, mid in enumerate(left_tgt):
            targets = get(mid)
            if targets:
                base = left_src[i] << _SHIFT
                for target in targets:
                    add(base | target)
    return _from_packed_unordered(out)


def compose(left: Relation, right: Relation) -> Relation:
    """``left ∘ right`` picking the physical algorithm from tracked orders."""
    if not left or not right:
        return Relation.empty()
    if left.order is Order.BY_TGT and right.order is Order.BY_SRC:
        return merge_join(left, right)
    return hash_join(left, right)


def union(parts: Iterable[Relation]) -> Relation:
    """Duplicate-eliminating union, emitted sorted by source.

    Below the vectorization crossover (``_VECTOR_MIN`` input rows) a
    plain packed-set union runs instead — fixed numpy dispatch overhead
    loses to a C-speed ``set`` at small sizes.  A union of one already
    ``BY_SRC``-sorted part (the common single-disjunct plan) is
    returned as-is, zero-copy.
    """
    parts = [part for part in parts if len(part)]
    if not parts:
        return Relation.empty(Order.BY_SRC)
    if len(parts) == 1:
        only = parts[0]
        return only if only.order is Order.BY_SRC else dedup_sort(only)
    if _vectorize(sum(len(part) for part in parts)):
        packed = _np.concatenate(
            [_pack_np(_view(part.src), _view(part.tgt)) for part in parts]
        )
        return _unpack_np(_np_sorted_unique(packed), Order.BY_SRC)
    keys: set[int] = set()
    for part in parts:
        keys.update(part.packed())
    return _from_packed_sorted(sorted(keys), Order.BY_SRC)


#: Test hook: set True to verify the ``disjoint=True`` contract of
#: :func:`union_into` on every call (one extra pass; off in production).
_CHECK_DISJOINT = False


def union_into(parts: Iterable[Relation], disjoint: bool = False) -> Relation:
    """Fused N-way union into one preallocated packed-key buffer.

    The gather-side merge of scatter-gather execution: instead of
    concatenating per-part packed temporaries and re-scanning for
    duplicates (:func:`union`), the exact output size is known up front
    (each part is already materialized and duplicate-free), so every
    part packs straight into one buffer which is then sorted in place.

    ``disjoint=True`` additionally skips duplicate elimination — sound
    exactly when the parts are pairwise disjoint *and* individually
    duplicate-free.  Shard slices pinned to owner shards satisfy both:
    every pair's source is owned by the producing shard and owner sets
    partition the vertices (see
    :func:`repro.engine.operators.execute_scattered`).  Output is
    sorted ``BY_SRC`` either way.
    """
    parts = [part for part in parts if len(part)]
    if not parts:
        return Relation.empty(Order.BY_SRC)
    if len(parts) == 1:
        only = parts[0]
        if only.order is Order.BY_SRC:
            return only
        if not disjoint:
            return dedup_sort(only)
    total = sum(len(part) for part in parts)
    if _vectorize(total):
        buffer = _np.empty(total, dtype=_np.uint64)
        offset = 0
        for part in parts:
            _pack_into(
                _view(part.src),
                _view(part.tgt),
                buffer[offset : offset + len(part)],
            )
            offset += len(part)
        buffer.sort()
        if _CHECK_DISJOINT and disjoint and len(buffer) > 1:
            if bool((buffer[1:] == buffer[:-1]).any()):
                raise ExecutionError(
                    "union_into(disjoint=True) received overlapping parts"
                )
        if not disjoint:
            keep = _np.empty(total, dtype=bool)
            keep[0] = True
            _np.not_equal(buffer[1:], buffer[:-1], out=keep[1:])
            buffer = buffer[keep]
        return _unpack_np(buffer, Order.BY_SRC)
    keys: list[int] = []
    for part in parts:
        keys.extend(part.packed())
    keys.sort()
    if _CHECK_DISJOINT and disjoint and any(
        keys[i] == keys[i - 1] for i in range(1, len(keys))
    ):
        raise ExecutionError(
            "union_into(disjoint=True) received overlapping parts"
        )
    if not disjoint:
        keys = [key for i, key in enumerate(keys) if i == 0 or key != keys[i - 1]]
    return _from_packed_sorted(keys, Order.BY_SRC)


def restrict_src(relation: Relation, source: int) -> Relation:
    """The pairs of ``relation`` whose source is exactly ``source``.

    A ``BY_SRC`` relation answers with two binary searches and a
    zero-copy-ish column slice; any other order pays one scan.  Used
    where an anchor cannot pin a scan: the hybrid route's whole answer,
    and a coordinator's kept slice cut at one source.
    """
    if relation.order is Order.BY_SRC:
        low = bisect_left(relation.src, source)
        high = bisect_right(relation.src, source, low)
        return Relation(
            relation.src[low:high], relation.tgt[low:high], Order.BY_SRC
        )
    src = array("q")
    tgt = array("q")
    for i in range(len(relation)):
        if relation.src[i] == source:
            src.append(source)
            tgt.append(relation.tgt[i])
    return Relation(src, tgt, Order.NONE)


def id_range(relation: Relation) -> tuple[int, int]:
    """The smallest and the largest id in ``relation``; ``(0, -1)`` if empty."""
    if not relation:
        return 0, -1
    src, tgt = relation.src, relation.tgt
    if _vectorize(len(relation)):
        src, tgt = _view(src), _view(tgt)
        return int(min(src.min(), tgt.min())), int(max(src.max(), tgt.max()))
    return min(min(src), min(tgt)), max(max(src), max(tgt))


def unmarked_ids(relation: Relation, marks: bytearray) -> array:
    """The distinct ids of ``relation`` whose byte in ``marks`` is 0, or that
    lie outside ``[0, len(marks))``, ascending.

    A result frame's two ends ask it: the sender, which ids this
    connection has not been sent a name for; the reader, which ids it
    has no name for.  Both usually hear "none", which costs two
    bounds-and-gather passes and no sort.
    """
    if not relation:
        return array("q")
    bound = len(marks)
    if _vectorize(len(relation)):
        flags = _np.frombuffer(marks, dtype=_np.uint8)
        columns = (_view(relation.src), _view(relation.tgt))
        every = 0 not in marks  # then the bounds alone decide
        # Viewed unsigned, a negative id is out of bounds like a large one.
        if all(
            column.view(_np.uint64).max() < bound
            and (every or flags.take(column).all())
            for column in columns
        ):
            return array("q")
        ids = _np.concatenate(columns)
        inside = ids.view(_np.uint64) < bound
        known = _np.zeros(len(ids), dtype=bool)
        known[inside] = flags[ids[inside]] != 0
        return _column(_np.unique(ids[~known]))
    unmarked = {
        node
        for column in (relation.src, relation.tgt)
        for node in column
        if not 0 <= node < bound or not marks[node]
    }
    return array("q", sorted(unmarked))


def _from_packed_unordered(keys: set[int]) -> Relation:
    src = array("q")
    tgt = array("q")
    for key in keys:
        src.append(key >> _SHIFT)
        tgt.append(key & _MASK)
    return Relation(src, tgt, Order.NONE)


# -- recursion -----------------------------------------------------------------
#
# One Kleene closure: both kernels are the condensation-based CSR engine
# (:mod:`repro.csr`).  The executor calls bounded_powers through this
# module and closes unbounded recursion with csr.partitioned_closure;
# transitive_fixpoint is the closure alone, kept for the tests, the
# closure ablation benchmark and the end-to-end tracer, which name it.


def transitive_fixpoint(
    node_ids: Iterable[int], base: Relation, low: int, deadline=None,
    left: Relation | None = None,
) -> Relation:
    """``left ∘ (base^low ∪ base^{low+1} ∪ ...)`` to fixpoint (the
    closure alone without ``left``).

    SCC condensation over a CSR adjacency
    (:func:`repro.csr.transitive_fixpoint`); ``deadline`` is checked
    cooperatively per DFS root, component, power round and folded
    source.
    """
    from repro import csr

    return csr.transitive_fixpoint(node_ids, base, low, deadline, left)


def bounded_powers(
    node_ids: Iterable[int], base: Relation, low: int, high: int,
    deadline=None,
) -> Relation:
    """``base^low ∪ ... ∪ base^high`` with early saturation
    (:func:`repro.csr.bounded_powers`)."""
    from repro import csr

    return csr.bounded_powers(node_ids, base, low, high, deadline)
