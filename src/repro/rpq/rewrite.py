"""Rewriting RPQs into the planner's normal form (Section 4, steps 1-2).

The pipeline is::

    parse text ──► push_inverse ──► bound_star ──► size ──► expand ──► NormalForm
                                                    │
                                                    └──► RewriteError (over budget)

* :func:`push_inverse` eliminates syntactic inverse by distributing it
  down to steps (``^(a/b) == ^b/^a`` etc.);
* :func:`bound_star` replaces unbounded recursion by bounded recursion
  using the paper's ``n(G)`` observation (``R* == R{0,n(G)}``);
* sizing (``_size``) works out, from the bounded expression alone, how
  many disjuncts it expands to and between which two totals their
  lengths must fall, and refuses there what cannot fit;
* expansion (``_disjuncts``) unrolls every ``R{i,j}`` into a union of
  powers (step 1 of the paper) and distributes concatenation over
  union until the query is a flat union of *label paths* (step 2).

The result is a :class:`NormalForm`: an optional epsilon disjunct plus a
duplicate-free list of :class:`~repro.graph.graph.LabelPath`.
Expansion is exponential in the worst case and grows with ``n(G)``
under a star, so :func:`normalize` takes two budgets and raises
:class:`RewriteError` beyond either.  The passes run one at a time,
each materialising its whole result, in ``tests/reference_rewrite.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import RewriteError
from repro.graph.graph import LabelPath, Step
from repro.rpq import ast
from repro.rpq.ast import (
    Concat,
    Epsilon,
    Inverse,
    Label,
    Node,
    Repeat,
    Star,
    Union,
)

#: Default ceiling on the number of label-path disjuncts a query may
#: expand to.  The paper's queries expand to a handful; this guard stops
#: adversarial ``(a|b|c){0,20}`` blow-ups with a clear error.
DEFAULT_MAX_DISJUNCTS = 4096

#: Default ceiling on the *total* number of steps across all disjuncts.
#: A star bounded at n(G) on a large graph expands into few but very
#: long disjuncts (``l{1,n}`` is n paths of total length ~n²/2); past
#: this budget the executor's fixpoint fallback is strictly better, so
#: :func:`normalize` refuses with :class:`RewriteError`.  The paper's
#: largest worked query, ``(sup|wF|wF⁻){4,5}``, totals 1,539 steps.
#:
#: Where each budget is enforced: the disjunct limit entirely in
#: ``_size``, before anything is built.  This one in ``_size`` too when
#: its lower bound on the total already passes the budget (every star
#: over label paths on a graph of more than ~64 nodes) or its upper
#: bound fits (every query that normalises without duplicates); only
#: between the two does ``_disjuncts`` count as it builds.
DEFAULT_MAX_TOTAL_STEPS = 2048


@dataclass(frozen=True, slots=True)
class NormalForm:
    """A query as a flat union of label paths (plus optional epsilon)."""

    has_epsilon: bool
    paths: tuple[LabelPath, ...]

    @property
    def disjunct_count(self) -> int:
        return len(self.paths) + (1 if self.has_epsilon else 0)

    def max_length(self) -> int:
        """Length of the longest disjunct (0 when only epsilon)."""
        return max((len(path) for path in self.paths), default=0)

    def __str__(self) -> str:
        parts = (["<eps>"] if self.has_epsilon else []) + [
            str(path) for path in self.paths
        ]
        return " | ".join(parts) if parts else "<empty>"


def push_inverse(node: Node) -> Node:
    """Eliminate :class:`Inverse` nodes by pushing them onto steps."""
    return _push(node, inverted=False)


def _push(node: Node, inverted: bool) -> Node:
    if isinstance(node, Inverse):
        return _push(node.child, not inverted)
    if isinstance(node, Epsilon):
        return node
    if isinstance(node, Label):
        return Label(node.step.inverted()) if inverted else node
    if isinstance(node, Concat):
        parts = [_push(part, inverted) for part in node.parts]
        if inverted:
            parts.reverse()
        return ast.concat(*parts)
    if isinstance(node, Union):
        return ast.union(*(_push(part, inverted) for part in node.parts))
    if isinstance(node, Repeat):
        return Repeat(_push(node.child, inverted), node.low, node.high)
    if isinstance(node, Star):
        return Star(_push(node.child, inverted))
    raise RewriteError(f"unknown AST node {type(node).__name__}")


def bound_star(node: Node, bound: int) -> Node:
    """Replace unbounded recursion by bounded recursion.

    ``R*`` becomes ``R{0,bound}`` and ``R{i,}`` becomes ``R{i,max(i,bound)}``;
    ``bound`` should be the graph's ``n(G)``
    (:func:`repro.graph.stats.star_bound`), which Section 2.2 argues is
    always sufficient.
    """
    if bound < 0:
        raise RewriteError(f"star bound must be >= 0, got {bound}")
    if isinstance(node, Star):
        return Repeat(bound_star(node.child, bound), 0, bound)
    if isinstance(node, Repeat):
        high = node.high if node.high is not None else max(node.low, bound)
        return Repeat(bound_star(node.child, bound), node.low, high)
    if isinstance(node, (Epsilon, Label)):
        return node
    if isinstance(node, Concat):
        return ast.concat(*(bound_star(part, bound) for part in node.parts))
    if isinstance(node, Union):
        return ast.union(*(bound_star(part, bound) for part in node.parts))
    if isinstance(node, Inverse):
        return Inverse(bound_star(node.child, bound))
    raise RewriteError(f"unknown AST node {type(node).__name__}")


class _Size(NamedTuple):
    """What a bounded expression expands to, by arithmetic alone."""

    #: Disjuncts before deduplication: what ``max_disjuncts`` limits.
    count: int
    #: Their total length: no normal form of the expression is longer.
    steps: int
    #: Length of the shortest disjunct.
    shortest: int
    #: A total length no normal form of the expression is shorter than.
    floor: int


_EPSILON_SIZE = _Size(count=1, steps=0, shortest=0, floor=0)


def _size(node: Node, max_disjuncts: int) -> _Size:
    """Size the expansion of an inverse-, star-free ``node`` without building it.

    A union adds its parts and a concatenation multiplies them; the
    powers of ``R{i,j}`` are a geometric sum.  Every part of an
    expansion is at least as large as each operand it uses, so the
    first count past ``max_disjuncts`` refuses the whole query.
    """
    if isinstance(node, Epsilon):
        return _EPSILON_SIZE
    if isinstance(node, Label):
        return _Size(count=1, steps=1, shortest=1, floor=1)
    if isinstance(node, Union):
        parts = [_size(part, max_disjuncts) for part in node.parts]
        size = _Size(
            sum(part.count for part in parts),
            sum(part.steps for part in parts),
            min(part.shortest for part in parts),
            max(part.floor for part in parts),
        )
    elif isinstance(node, Concat):
        size = _EPSILON_SIZE
        for part in node.parts:
            right = _size(part, max_disjuncts)
            size = _Size(
                size.count * right.count,
                size.steps * right.count + right.steps * size.count,
                size.shortest + right.shortest,
                max(size.floor, right.floor),
            )
    elif isinstance(node, Repeat) and node.high is not None:
        if node.high == 0:
            # R{0,0} is epsilon whatever R expands to, except that the
            # paper's step 1 would still have unrolled each recursion in it.
            for part in node.walk():
                if isinstance(part, Repeat) and part.high - part.low >= max_disjuncts:
                    raise RewriteError(
                        f"recursion {{{part.low},{part.high}}} expands past the "
                        f"disjunct limit {max_disjuncts}"
                    )
            return _EPSILON_SIZE
        child = _size(node.child, max_disjuncts)
        exponents = range(node.low, node.high + 1)
        exponent_sum = (node.low + node.high) * len(exponents) // 2
        if child.count == 1:
            count, steps = len(exponents), child.steps * exponent_sum
        elif node.high >= max_disjuncts.bit_length():
            count = steps = max_disjuncts + 1  # 2 ** high alone is past it
        else:
            count = sum(child.count**e for e in exponents)
            steps = child.steps * sum(
                e * child.count ** (e - 1) for e in exponents if e
            )
        # The powers of the shortest disjunct differ pairwise in length,
        # so deduplication keeps every one of them.
        floor = max(child.floor, child.shortest * exponent_sum)
        size = _Size(count, steps, child.shortest * node.low, floor)
    else:
        raise RewriteError(
            f"cannot expand {type(node).__name__}; "
            "run push_inverse and bound_star first"
        )
    if size.count > max_disjuncts:
        raise RewriteError(f"query expands past the disjunct limit {max_disjuncts}")
    return size


def _within(disjuncts, budget: int | None) -> list[tuple[Step, ...]]:
    """``disjuncts`` as a list; under a budget, duplicate-free and within it.

    First occurrences keep their order, so deduplicating every level
    yields the order that deduplicating the finished expansion would.
    A level's deduplicated total never passes the whole query's, so
    the first level past ``budget`` refuses.
    """
    if budget is None:
        return list(disjuncts)
    unique: dict[tuple[Step, ...], None] = {}
    total_steps = 0
    for disjunct in disjuncts:
        if disjunct not in unique:
            unique[disjunct] = None
            total_steps += len(disjunct)
            if total_steps > budget:
                raise RewriteError(
                    f"query expands past the total-steps budget {budget}; "
                    "use fixpoint evaluation instead"
                )
    return list(unique)


def _disjuncts(node: Node, budget: int | None) -> list[tuple[Step, ...]]:
    """Steps 1 and 2 of the paper in one pass over an already sized ``node``.

    ``R{i,j}`` unrolls into ``R^i ∪ ... ∪ R^j``, each power one
    concatenation on from the last, and concatenation distributes over
    union.  The empty tuple is the epsilon disjunct.  ``budget=None``
    builds what :func:`_size` showed to fit; otherwise see
    :func:`_within`.
    """
    if isinstance(node, Epsilon):
        return [()]
    if isinstance(node, Label):
        return [(node.step,)]
    if isinstance(node, Union):
        return _within(
            (d for part in node.parts for d in _disjuncts(part, budget)), budget
        )
    if isinstance(node, Concat):
        result: list[tuple[Step, ...]] = [()]
        for part in node.parts:
            right = _disjuncts(part, budget)
            result = _within((l + r for l in result for r in right), budget)
        return result
    # A bounded Repeat: the only other kind _size lets through.
    if node.high == 0:
        return [()]
    base = _disjuncts(node.child, budget)
    power: list[tuple[Step, ...]] = [()]
    result = [()] if node.low == 0 else []
    for exponent in range(1, node.high + 1):
        power = _within((l + r for l in power for r in base), budget)
        if exponent >= node.low:
            result = _within(result + power, budget)
    return result


def normalize(
    node: Node,
    star_bound_value: int,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    max_total_steps: int = DEFAULT_MAX_TOTAL_STEPS,
) -> NormalForm:
    """The full rewrite pipeline, producing a :class:`NormalForm`.

    Raises :class:`RewriteError` when the expansion exceeds either the
    disjunct budget or the total-steps budget; callers that can fall
    back to fixpoint evaluation (the executor) catch it there.  The
    expansion is sized before any of it is built, so a refusal costs
    what the budgets allow, whatever ``star_bound_value`` is.
    """
    prepared = bound_star(push_inverse(node), star_bound_value)
    size = _size(prepared, max_disjuncts)
    if size.floor > max_total_steps:
        raise RewriteError(
            f"query expands to at least {size.floor} total steps, past the "
            f"budget {max_total_steps}; use fixpoint evaluation instead"
        )
    fits = size.steps <= max_total_steps
    raw = dict.fromkeys(_disjuncts(prepared, None if fits else max_total_steps))
    paths = tuple(LabelPath(disjunct) for disjunct in raw if disjunct)
    return NormalForm(has_epsilon=() in raw, paths=paths)
