"""The paper's rewriting, materialised in full: the reference for ``normalize``.

Section 4's step 1 (:func:`expand_recursion`: unroll every ``R{i,j}``
into a union of powers) and step 2 (:func:`pull_up_unions`: distribute
concatenation over union), each as its own pass over the whole
expansion, and :func:`normalize` as their composition with the budgets
checked on what was built.  :func:`repro.rpq.rewrite.normalize` sizes
the expansion before building it; ``tests/test_rewrite.py`` holds it to
this module on refusal, and on success to the same paths in the same
order.  Cost here grows with the star bound, so keep bounds small.
"""

from __future__ import annotations

from repro.errors import RewriteError
from repro.graph.graph import LabelPath, Step
from repro.rpq import ast
from repro.rpq.ast import Concat, Epsilon, Inverse, Label, Node, Repeat, Star, Union
from repro.rpq.rewrite import (
    DEFAULT_MAX_DISJUNCTS,
    DEFAULT_MAX_TOTAL_STEPS,
    NormalForm,
    bound_star,
    push_inverse,
)


def expand_recursion(node: Node, max_disjuncts: int = DEFAULT_MAX_DISJUNCTS) -> Node:
    """Step 1 of the paper: unroll ``R{i,j}`` into ``R^i ∪ ... ∪ R^j``.

    The input must already be inverse-free and star-free (apply
    :func:`push_inverse` and :func:`bound_star` first).
    """
    if isinstance(node, (Epsilon, Label)):
        return node
    if isinstance(node, Concat):
        return ast.concat(
            *(expand_recursion(part, max_disjuncts) for part in node.parts)
        )
    if isinstance(node, Union):
        return ast.union(
            *(expand_recursion(part, max_disjuncts) for part in node.parts)
        )
    if isinstance(node, Repeat):
        if node.high is None:
            raise RewriteError(
                "unbounded recursion survived to expansion; call bound_star first"
            )
        child = expand_recursion(node.child, max_disjuncts)
        if node.high - node.low + 1 > max_disjuncts:
            raise RewriteError(
                f"recursion {{{node.low},{node.high}}} expands past the "
                f"disjunct limit {max_disjuncts}"
            )
        powers: list[Node] = []
        for exponent in range(node.low, node.high + 1):
            powers.append(_power(child, exponent))
        return ast.union(*powers) if len(powers) > 1 else powers[0]
    if isinstance(node, Star):
        raise RewriteError("Kleene star survived to expansion; call bound_star first")
    if isinstance(node, Inverse):
        raise RewriteError("inverse survived to expansion; call push_inverse first")
    raise RewriteError(f"unknown AST node {type(node).__name__}")


def _power(node: Node, exponent: int) -> Node:
    if exponent == 0:
        return Epsilon()
    return ast.concat(*([node] * exponent))


def pull_up_unions(
    node: Node, max_disjuncts: int = DEFAULT_MAX_DISJUNCTS
) -> list[tuple[Step, ...]]:
    """Step 2 of the paper: distribute concat over union.

    Returns the disjuncts as step tuples; the empty tuple stands for the
    epsilon disjunct.  Input must be recursion-, star- and inverse-free.
    """
    disjuncts = _disjuncts(node, max_disjuncts)
    seen: set[tuple[Step, ...]] = set()
    unique: list[tuple[Step, ...]] = []
    for disjunct in disjuncts:
        if disjunct not in seen:
            seen.add(disjunct)
            unique.append(disjunct)
    return unique


def _disjuncts(node: Node, max_disjuncts: int) -> list[tuple[Step, ...]]:
    if isinstance(node, Epsilon):
        return [()]
    if isinstance(node, Label):
        return [(node.step,)]
    if isinstance(node, Union):
        result: list[tuple[Step, ...]] = []
        for part in node.parts:
            result.extend(_disjuncts(part, max_disjuncts))
            if len(result) > max_disjuncts:
                raise RewriteError(
                    f"query expands past the disjunct limit {max_disjuncts}"
                )
        return result
    if isinstance(node, Concat):
        result = [()]
        for part in node.parts:
            part_disjuncts = _disjuncts(part, max_disjuncts)
            combined = [left + right for left in result for right in part_disjuncts]
            if len(combined) > max_disjuncts:
                raise RewriteError(
                    f"query expands past the disjunct limit {max_disjuncts}"
                )
            result = combined
        return result
    raise RewriteError(
        f"cannot pull unions out of {type(node).__name__}; "
        "run push_inverse/bound_star/expand_recursion first"
    )


def normalize(
    node: Node,
    star_bound_value: int,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    max_total_steps: int = DEFAULT_MAX_TOTAL_STEPS,
) -> NormalForm:
    """The full rewrite pipeline, producing a :class:`NormalForm`.

    Raises :class:`RewriteError` when the expansion exceeds either the
    disjunct budget or the total-steps budget; callers that can fall
    back to fixpoint evaluation (the executor) catch it there.
    """
    prepared = bound_star(push_inverse(node), star_bound_value)
    expanded = expand_recursion(prepared, max_disjuncts)
    raw = pull_up_unions(expanded, max_disjuncts)
    total_steps = sum(len(disjunct) for disjunct in raw)
    if total_steps > max_total_steps:
        raise RewriteError(
            f"query expands to {total_steps} total steps, past the budget "
            f"{max_total_steps}; use fixpoint evaluation instead"
        )
    has_epsilon = any(disjunct == () for disjunct in raw)
    paths = tuple(LabelPath(disjunct) for disjunct in raw if disjunct)
    return NormalForm(has_epsilon=has_epsilon, paths=paths)
