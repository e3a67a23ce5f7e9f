"""Kleene-closure ablation: seed vs PR-1 delta iteration vs CSR frontier.

Measures the recursion kernels behind ``Star`` / ``Repeat`` in all
three generations of the engine:

* **seed** — the v1.0 tuple-set delta iteration, frozen in
  :mod:`repro_bench.legacy`;
* **delta** — the PR-1 packed-pair delta iteration over columnar
  relations (:func:`delta_transitive_fixpoint`,
  :func:`delta_bounded_powers`, kept in this file as the frozen
  baseline), which re-deduplicates against the whole accumulator every
  round;
* **csr** — the frontier-based closure over compressed sparse rows with
  per-source visited bitsets (:mod:`repro.csr`), the path the executor
  routes through now.

Workloads come from :func:`repro_bench.workloads.closure_base_pairs`:
disjoint cycles (the delta worst case), a chain (bounded powers), and a
scale-free graph (deep overlapping ancestor sets).

A second set of rows times a concatenation into a closure, ``L / R*``
(:func:`repro_bench.workloads.composed_closure_pairs`): the CSR kernel
given ``L`` as its left operand (the reach-bitset fold, or its own
compose when the density rule says the fold loses) against
**compose-after**, the closure's pairs joined with ``L`` afterwards.

A third set times a closure into a right operand, ``R* / L`` on the
same shapes (``L``, the left pairs, now follows the closure): the CSR
kernel given ``L`` as its right operand (one pass seeded with ``L``'s
rows) against **compose-after**, the closure's pairs joined with ``L``.

Every row compares the CSR kernel with one baseline (``baseline``
names it) and reports ``speedup = baseline_seconds / csr_seconds``.

Run directly to print a table and export ``BENCH_closure.json``::

    PYTHONPATH=src python benchmarks/bench_closure.py          # full
    PYTHONPATH=src python benchmarks/bench_closure.py --smoke  # small sizes

or under pytest (the smoke rows plus the acceptance gates: >= 3x over
delta, and for each of ``L / R*`` and ``R* / L`` >= 2x on the dense
shape and within 10% of compose-after on the half-shift)::

    PYTHONPATH=src python -m pytest benchmarks/bench_closure.py -q
"""

from __future__ import annotations

import gc
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro import csr
from repro import relation as rel
from repro_bench.export import write_json
from repro_bench.legacy import (
    tuple_bounded_powers,
    tuple_transitive_fixpoint,
)
from repro_bench.workloads import closure_base_pairs, composed_closure_pairs
from repro.relation import Order, Relation

#: (workload kind, operation, edge count) per exported row.  The
#: operation is the closure shape that makes sense on the graph shape:
#: a full fixpoint of a chain would be quadratic, so the chain rows
#: measure bounded powers instead.
FULL_SPECS: tuple[tuple[str, str, int], ...] = (
    ("cyclic", "fixpoint", 5_000),
    ("cyclic", "fixpoint", 50_000),
    ("chain", "powers{1,8}", 5_000),
    ("chain", "powers{1,8}", 50_000),
    ("scale_free", "fixpoint", 5_000),
    ("scale_free", "fixpoint", 20_000),
)
SMOKE_SPECS: tuple[tuple[str, str, int], ...] = tuple(
    spec for spec in FULL_SPECS if spec[2] <= 5_000
)
#: The acceptance-gate workload named by the roadmap: 50k-edge cyclic.
GATE_SPEC = ("cyclic", "fixpoint", 50_000)

#: Closure runs are seconds-long; one timed round each keeps the full
#: sweep within a CI minute.  gc is collected before every timing so a
#: prior kernel's garbage is not charged to the next one.
POWER_BOUNDS = (1, 8)

#: (workload kind, node count, low) per ``L / R{low,}`` row.  The
#: half-shift row takes ``low == 1``: under ``low == 0`` compose-after
#: also decodes an identity row for every node, which the left operand
#: skips, so the row would time the identity rather than the density
#: rule's choice.
COMPOSED_FULL_SPECS: tuple[tuple[str, int, int], ...] = (
    ("dense", 200, 0),
    ("chain", 2_000, 0),
    ("half_shift", 20_000, 1),
)
COMPOSED_SMOKE_SPECS: tuple[tuple[str, int, int], ...] = (
    ("dense", 200, 0),
    ("chain", 1_000, 0),
    ("half_shift", 4_000, 1),
)
#: ``L / R*`` rows run in milliseconds: the best of this many rounds.
COMPOSED_REPEATS = 7


@dataclass(frozen=True, slots=True)
class ClosureRow:
    """The CSR kernel against one baseline on one workload."""

    kind: str
    operation: str
    edges: int
    baseline: str
    baseline_seconds: float
    csr_seconds: float
    output_size: int

    @property
    def speedup(self) -> float:
        if self.csr_seconds == 0:
            return float("inf")
        return self.baseline_seconds / self.csr_seconds


# -- the PR-1 delta engine (frozen baseline) ----------------------------------
#
# Packed-pair delta iteration over columnar relations, exactly as the
# engine ran it before the CSR closure, on the relation module's packing
# and numpy-bridge helpers.  The package no longer ships it: this file is
# its only user.

_SHIFT = rel._SHIFT
_MASK = rel._MASK
_np = rel._np


def _np_membership(sorted_keys, candidates):
    """Boolean mask of which ``candidates`` occur in ``sorted_keys``."""
    if len(sorted_keys) == 0:
        return _np.zeros(len(candidates), dtype=bool)
    positions = _np.searchsorted(sorted_keys, candidates)
    positions[positions == len(sorted_keys)] = len(sorted_keys) - 1
    return sorted_keys[positions] == candidates


def _np_expand(delta_packed, base_src, base_tgt):
    """One delta step: packed pairs composed with the sorted base columns."""
    mids = (delta_packed & _MASK).astype(_np.int64)
    starts = _np.searchsorted(base_src, mids, side="left")
    ends = _np.searchsorted(base_src, mids, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return delta_packed[:0]
    heads = _np.repeat(delta_packed & ~_np.uint64(_MASK), counts)
    offsets = _np.cumsum(counts) - counts
    positions = (
        _np.arange(total, dtype=_np.int64)
        - _np.repeat(offsets, counts)
        + _np.repeat(starts, counts)
    )
    produced = heads | base_tgt[positions].astype(_np.uint64)
    return rel._np_sorted_unique(produced)


def _np_base_columns(base: Relation):
    """(src-sorted packed base as column views) for delta iteration."""
    sorted_base = base if base.order is Order.BY_SRC else rel.dedup_sort(base)
    return rel._view(sorted_base.src), rel._view(sorted_base.tgt)


def _adjacency(base: Relation) -> dict[int, list[int]]:
    by_source: dict[int, list[int]] = {}
    base_src, base_tgt = base.src, base.tgt
    for i, source in enumerate(base_src):
        by_source.setdefault(source, []).append(base_tgt[i])
    return by_source


def _expand(delta, by_source: dict[int, list[int]], seen: set[int]) -> list[int]:
    """One delta step: compose packed ``delta`` with ``by_source``, minus ``seen``."""
    fresh: list[int] = []
    get = by_source.get
    add = seen.add
    for key in delta:
        targets = get(key & _MASK)
        if targets:
            base = key & ~_MASK
            for target in targets:
                packed = base | target
                if packed not in seen:
                    add(packed)
                    fresh.append(packed)
    return fresh


def delta_transitive_fixpoint(node_ids, base: Relation, low: int) -> Relation:
    """``base^low ∪ base^{low+1} ∪ ...`` by packed delta iteration.

    Only newly discovered pairs are re-expanded, so cyclic graphs
    terminate; ``low == 0`` seeds the accumulator with the identity.
    """
    if rel._vectorize(len(base)):
        return _np_transitive_fixpoint(node_ids, base, low)
    by_source = _adjacency(base)
    if low <= 1:
        delta = list(base.packed())
        if low == 0:
            accumulated = {(n << _SHIFT) | n for n in node_ids}
            accumulated.update(delta)
        else:
            accumulated = set(delta)
    else:
        power = delta_relation_power(node_ids, base, low)
        accumulated = set(power.packed())
        delta = list(accumulated)
    while delta:
        delta = _expand(delta, by_source, accumulated)
    return rel._from_packed_sorted(sorted(accumulated), Order.BY_SRC)


def delta_relation_power(node_ids, base: Relation, exponent: int) -> Relation:
    """``base^exponent`` under composition (power 0 is the identity)."""
    if exponent == 0:
        return rel.identity(node_ids)
    result = base
    for _ in range(exponent - 1):
        result = rel.hash_join(result, base)
        if not result:
            break
    return result


def delta_bounded_powers(node_ids, base: Relation, low: int, high: int) -> Relation:
    """``base^low ∪ ... ∪ base^high`` with early saturation.

    Powers of a relation over a finite node set are eventually periodic;
    once a power repeats, the remaining union is already accumulated.
    """
    if rel._vectorize(len(base)):
        return _np_bounded_powers(node_ids, base, low, high)
    by_source = _adjacency(base)
    power = set(delta_relation_power(node_ids, base, low).packed())
    accumulated = set(power)
    seen_powers: set[frozenset] = {frozenset(power)}
    for _ in range(low, high):
        if not power:
            break
        next_power: set[int] = set()
        get = by_source.get
        for key in power:
            targets = get(key & _MASK)
            if targets:
                head = key & ~_MASK
                for target in targets:
                    next_power.add(head | target)
        power = next_power
        accumulated |= power
        fingerprint = frozenset(power)
        if fingerprint in seen_powers:
            break
        seen_powers.add(fingerprint)
    return rel._from_packed_sorted(sorted(accumulated), Order.BY_SRC)


def _np_transitive_fixpoint(node_ids, base: Relation, low: int) -> Relation:
    base_src, base_tgt = _np_base_columns(base)
    base_packed = rel._pack_np(base_src, base_tgt)
    if low == 0:
        ids = _np.fromiter(node_ids, dtype=_np.int64)
        accumulated = _np.union1d(rel._pack_np(ids, ids), base_packed)
        delta = base_packed
    elif low == 1:
        accumulated = base_packed
        delta = base_packed
    else:
        power = delta_relation_power(node_ids, base, low).sorted_by(Order.BY_SRC)
        accumulated = rel._pack_np(rel._view(power.src), rel._view(power.tgt))
        delta = accumulated
    while len(delta):
        produced = _np_expand(delta, base_src, base_tgt)
        fresh = produced[~_np_membership(accumulated, produced)]
        if not len(fresh):
            break
        accumulated = _np.union1d(accumulated, fresh)
        delta = fresh
    return rel._unpack_np(accumulated, Order.BY_SRC)


def _np_bounded_powers(node_ids, base: Relation, low: int, high: int) -> Relation:
    base_src, base_tgt = _np_base_columns(base)
    start = delta_relation_power(node_ids, base, low).sorted_by(Order.BY_SRC)
    power = rel._pack_np(rel._view(start.src), rel._view(start.tgt))
    accumulated = power
    seen_powers = {power.tobytes()}
    for _ in range(low, high):
        if not len(power):
            break
        power = _np_expand(power, base_src, base_tgt)
        accumulated = _np.union1d(accumulated, power)
        fingerprint = power.tobytes()
        if fingerprint in seen_powers:
            break
        seen_powers.add(fingerprint)
    return rel._unpack_np(accumulated, Order.BY_SRC)


def _timed(callable_):
    gc.collect()
    started = time.perf_counter()
    result = callable_()
    return time.perf_counter() - started, result


def compare_closure(
    specs: tuple[tuple[str, str, int], ...] = FULL_SPECS,
) -> list[ClosureRow]:
    """Time seed/delta/csr on every spec, checking the answers agree.

    Each spec yields two rows: the CSR kernel against seed, and against
    delta (one CSR timing serves both).
    """
    rows: list[ClosureRow] = []
    for kind, operation, edges in specs:
        nodes, pairs = closure_base_pairs(kind, edges)
        base = Relation.from_pairs(pairs)
        node_ids = range(nodes)
        if operation == "fixpoint":
            low = 1
            seed_s, seed_out = _timed(
                lambda: tuple_transitive_fixpoint(node_ids, set(pairs), low)
            )
            delta_s, delta_out = _timed(
                lambda: delta_transitive_fixpoint(node_ids, base, low)
            )
            csr_s, csr_out = _timed(
                lambda: csr.transitive_fixpoint(node_ids, base, low)
            )
        else:
            low, high = POWER_BOUNDS
            seed_s, seed_out = _timed(
                lambda: tuple_bounded_powers(node_ids, set(pairs), low, high)
            )
            delta_s, delta_out = _timed(
                lambda: delta_bounded_powers(node_ids, base, low, high)
            )
            csr_s, csr_out = _timed(
                lambda: csr.bounded_powers(node_ids, base, low, high)
            )
        assert csr_out.to_set() == delta_out.to_set() == seed_out
        for baseline, seconds in (("seed", seed_s), ("delta", delta_s)):
            rows.append(
                ClosureRow(
                    kind=kind,
                    operation=operation,
                    edges=edges,
                    baseline=baseline,
                    baseline_seconds=seconds,
                    csr_seconds=csr_s,
                    output_size=len(csr_out),
                )
            )
    return rows


def compare_composed(
    specs: tuple[tuple[str, int, int], ...] = COMPOSED_FULL_SPECS,
    repeats: int = COMPOSED_REPEATS,
) -> list[ClosureRow]:
    """Time ``L / R{low,}``: the kernel's left operand vs compose-after."""
    rows: list[ClosureRow] = []
    for kind, nodes, low in specs:
        left_pairs, base_pairs = composed_closure_pairs(kind, nodes)
        left = Relation.from_pairs(left_pairs)
        base = Relation.from_pairs(base_pairs)
        node_ids = range(nodes)
        after_s = csr_s = float("inf")
        for _ in range(repeats):  # rounds alternate, so drift hits both
            seconds, after_out = _timed(
                lambda: rel.compose(left, csr.transitive_fixpoint(node_ids, base, low))
            )
            after_s = min(after_s, seconds)
            seconds, csr_out = _timed(
                lambda: csr.transitive_fixpoint(node_ids, base, low, left=left)
            )
            csr_s = min(csr_s, seconds)
        assert csr_out.to_set() == after_out.to_set()
        rows.append(
            ClosureRow(
                kind=kind,
                operation="L/R*" if low == 0 else f"L/R{{{low},}}",
                edges=len(base),
                baseline="compose-after",
                baseline_seconds=after_s,
                csr_seconds=csr_s,
                output_size=len(csr_out),
            )
        )
    return rows


def compare_right(
    specs: tuple[tuple[str, int, int], ...] = COMPOSED_FULL_SPECS,
    repeats: int = COMPOSED_REPEATS,
) -> list[ClosureRow]:
    """Time ``R{low,} / L``: the kernel's right operand vs compose-after.

    The shapes of :func:`compare_composed`, with the workload's left
    pairs as the operand after the closure.
    """
    rows: list[ClosureRow] = []
    for kind, nodes, low in specs:
        right_pairs, base_pairs = composed_closure_pairs(kind, nodes)
        right = Relation.from_pairs(right_pairs)
        base = Relation.from_pairs(base_pairs)
        node_ids = range(nodes)
        after_s = csr_s = float("inf")
        for _ in range(repeats):  # rounds alternate, so drift hits both
            seconds, after_out = _timed(
                lambda: rel.compose(csr.transitive_fixpoint(node_ids, base, low), right)
            )
            after_s = min(after_s, seconds)
            seconds, csr_out = _timed(
                lambda: csr.transitive_fixpoint(node_ids, base, low, right=right)
            )
            csr_s = min(csr_s, seconds)
        assert csr_out.to_set() == after_out.to_set()
        rows.append(
            ClosureRow(
                kind=kind,
                operation="R*/L" if low == 0 else f"R{{{low},}}/L",
                edges=len(base),
                baseline="compose-after",
                baseline_seconds=after_s,
                csr_seconds=csr_s,
                output_size=len(csr_out),
            )
        )
    return rows


def export_rows(
    rows: list[ClosureRow], path: str | Path = "BENCH_closure.json"
) -> Path:
    """Write the comparison as a standard experiment export."""
    write_json(rows, path, experiment="kleene-closure-ablation")
    return Path(path)


# -- pytest entry points -------------------------------------------------------


def test_smoke_rows_agree_and_export(tmp_path):
    """Smoke mode: the engines agree on every small workload."""
    rows = (
        compare_closure(SMOKE_SPECS)
        + compare_composed(COMPOSED_SMOKE_SPECS)
        + compare_right(COMPOSED_SMOKE_SPECS)
    )
    path = export_rows(rows, tmp_path / "BENCH_closure.json")
    from repro_bench.export import read_json

    payload = read_json(path)
    assert payload["experiment"] == "kleene-closure-ablation"
    assert len(payload["rows"]) == 2 * len(SMOKE_SPECS) + 2 * len(COMPOSED_SMOKE_SPECS)
    assert all("speedup" in row for row in payload["rows"])


@pytest.mark.skipif(
    rel._np is None,
    reason="the 3x bar is for the production configuration (numpy "
    "present); the scalar fallback only has to be correct",
)
def test_csr_fixpoint_at_least_3x(tmp_path):
    """Acceptance: CSR >= 3x over the PR-1 delta fixpoint at 50k cyclic.

    Mirrors the >= 2x relation-ops gate; also exercises the export path
    so BENCH_closure.json always reflects a run that proved the bar.
    """
    rows = compare_closure((GATE_SPEC,))
    export_rows(rows, tmp_path / "BENCH_closure.json")
    gate = next(row for row in rows if row.baseline == "delta")
    assert gate.speedup >= 3.0, (
        f"CSR frontier closure only {gate.speedup:.2f}x over "
        f"the delta-iteration fixpoint"
    )


def test_left_operand_gates():
    """Acceptance for ``L / R*``: the fold is >= 2x compose-after on the
    dense shape, and on the wide-sparse half-shift (where the density
    rule must keep the compose) the kernel is within 10% of it."""
    specs = {spec[0]: spec for spec in COMPOSED_FULL_SPECS}
    dense, half_shift = compare_composed((specs["dense"], specs["half_shift"]))
    assert dense.speedup >= 2.0, (
        f"L/R* on the dense shape only {dense.speedup:.2f}x over compose-after"
    )
    assert half_shift.speedup >= 1 / 1.1, (
        f"L/R{{1,}} on the half-shift {1 / half_shift.speedup:.2f}x slower "
        "than compose-after"
    )


def test_right_operand_gates():
    """Acceptance for ``R* / L``: the seeded pass is >= 2x compose-after
    on the dense shape, and on the wide-sparse half-shift (rows of one or
    two ids far out in the id space) within 10% of it."""
    specs = {spec[0]: spec for spec in COMPOSED_FULL_SPECS}
    dense, half_shift = compare_right((specs["dense"], specs["half_shift"]))
    assert dense.speedup >= 2.0, (
        f"R*/L on the dense shape only {dense.speedup:.2f}x over compose-after"
    )
    assert half_shift.speedup >= 1 / 1.1, (
        f"R{{1,}}/L on the half-shift {1 / half_shift.speedup:.2f}x slower "
        "than compose-after"
    )


def main() -> None:
    smoke = "--smoke" in sys.argv[1:]
    rows = compare_closure(SMOKE_SPECS if smoke else FULL_SPECS)
    composed_specs = COMPOSED_SMOKE_SPECS if smoke else COMPOSED_FULL_SPECS
    rows += compare_composed(composed_specs) + compare_right(composed_specs)
    print(
        f"{'kind':<12}{'op':<14}{'edges':>8}{'out':>10}{'baseline':>15}"
        f"{'base s':>9}{'csr s':>8}{'speedup':>9}"
    )
    for row in rows:
        print(
            f"{row.kind:<12}{row.operation:<14}{row.edges:>8}"
            f"{row.output_size:>10}{row.baseline:>15}"
            f"{row.baseline_seconds:>9.3f}{row.csr_seconds:>8.3f}"
            f"{row.speedup:>8.1f}x"
        )
    path = export_rows(rows)
    print(f"\nwrote {path.resolve()}")


if __name__ == "__main__":
    main()
