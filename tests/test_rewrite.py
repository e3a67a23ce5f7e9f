"""Tests for the rewrite pipeline (Section 4, steps 1-2)."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import RewriteError
from repro.graph.graph import LabelPath, Step
from repro.rpq import ast
from repro.rpq.parser import parse
from repro.rpq import rewrite
from repro.rpq.rewrite import bound_star, normalize, push_inverse

from tests import reference_rewrite
from tests.reference_rewrite import expand_recursion, pull_up_unions
from tests.strategies import rpq_asts


class TestPushInverse:
    def test_label(self):
        assert push_inverse(parse("^a")) == ast.inv_label("a")

    def test_double_inverse_cancels(self):
        assert push_inverse(parse("^^a")) == ast.label("a")

    def test_concat_reverses(self):
        assert push_inverse(parse("^(a/b)")) == ast.concat(
            ast.inv_label("b"), ast.inv_label("a")
        )

    def test_union_distributes(self):
        assert push_inverse(parse("^(a|b)")) == ast.union(
            ast.inv_label("a"), ast.inv_label("b")
        )

    def test_repeat_passes_through(self):
        assert push_inverse(parse("^(a{2,3})")) == ast.repeat(
            ast.inv_label("a"), 2, 3
        )

    def test_epsilon_self_inverse(self):
        assert push_inverse(parse("^<eps>")) == ast.Epsilon()

    def test_no_inverse_is_identity(self):
        node = parse("a/b{1,2}|c")
        assert push_inverse(node) == node

    @settings(max_examples=100, deadline=None)
    @given(rpq_asts(allow_star=True))
    def test_output_has_no_inverse_nodes(self, node):
        rewritten = push_inverse(node)
        assert not any(isinstance(n, ast.Inverse) for n in rewritten.walk())

    @settings(max_examples=60, deadline=None)
    @given(rpq_asts(allow_star=True))
    def test_preserves_semantics(self, node):
        from repro.graph.examples import two_triangles
        from repro.rpq.semantics import eval_ast

        graph = two_triangles()
        assert eval_ast(graph, push_inverse(node)) == eval_ast(graph, node)


class TestBoundStar:
    def test_star_becomes_bounded(self):
        assert bound_star(parse("a*"), 5) == ast.repeat(ast.label("a"), 0, 5)

    def test_open_repeat_becomes_bounded(self):
        assert bound_star(parse("a{2,}"), 5) == ast.repeat(ast.label("a"), 2, 5)

    def test_open_repeat_with_low_above_bound(self):
        assert bound_star(parse("a{7,}"), 5) == ast.repeat(ast.label("a"), 7, 7)

    def test_nested(self):
        node = bound_star(parse("(a*/b)|c"), 3)
        assert node == ast.union(
            ast.concat(ast.repeat(ast.label("a"), 0, 3), ast.label("b")),
            ast.label("c"),
        )

    def test_negative_bound_rejected(self):
        with pytest.raises(RewriteError):
            bound_star(parse("a*"), -1)

    @settings(max_examples=60, deadline=None)
    @given(rpq_asts(allow_star=True))
    def test_output_is_star_free(self, node):
        bounded = bound_star(node, 4)
        for sub in bounded.walk():
            assert not isinstance(sub, ast.Star)
            if isinstance(sub, ast.Repeat):
                assert sub.high is not None


class TestExpandRecursion:
    def test_bounded_repeat_expands_to_powers(self):
        expanded = expand_recursion(parse("a{1,3}"))
        assert expanded == ast.union(
            ast.label("a"),
            ast.concat(ast.label("a"), ast.label("a")),
            ast.concat(ast.label("a"), ast.label("a"), ast.label("a")),
        )

    def test_zero_power_is_epsilon(self):
        expanded = expand_recursion(parse("a{0,1}"))
        assert expanded == ast.union(ast.Epsilon(), ast.label("a"))

    def test_exact_power(self):
        expanded = expand_recursion(parse("a{2}"))
        assert expanded == ast.concat(ast.label("a"), ast.label("a"))

    def test_unbounded_rejected(self):
        with pytest.raises(RewriteError):
            expand_recursion(parse("a{2,}"))

    def test_star_rejected(self):
        with pytest.raises(RewriteError):
            expand_recursion(parse("a*"))

    def test_inverse_rejected(self):
        with pytest.raises(RewriteError):
            expand_recursion(parse("^(a/b)"))

    def test_expansion_limit(self):
        with pytest.raises(RewriteError):
            expand_recursion(parse("a{0,5}"), max_disjuncts=3)


class TestPullUpUnions:
    def _steps(self, *specs: str) -> tuple[Step, ...]:
        return tuple(Step.decode(spec) for spec in specs)

    def test_single_path(self):
        node = expand_recursion(push_inverse(parse("a/^b")))
        assert pull_up_unions(node) == [self._steps("a", "b-")]

    def test_distributes_concat_over_union(self):
        node = push_inverse(parse("(a|b)/c"))
        assert pull_up_unions(node) == [
            self._steps("a", "c"),
            self._steps("b", "c"),
        ]

    def test_cross_product(self):
        node = push_inverse(parse("(a|b)/(c|d)"))
        assert pull_up_unions(node) == [
            self._steps("a", "c"),
            self._steps("a", "d"),
            self._steps("b", "c"),
            self._steps("b", "d"),
        ]

    def test_epsilon_disjunct(self):
        node = expand_recursion(parse("a{0,1}"))
        assert pull_up_unions(node) == [(), self._steps("a")]

    def test_deduplicates(self):
        node = push_inverse(parse("a|a"))
        assert pull_up_unions(node) == [self._steps("a")]

    def test_limit_enforced(self):
        node = push_inverse(parse("(a|b)/(a|b)/(a|b)"))
        with pytest.raises(RewriteError):
            pull_up_unions(node, max_disjuncts=4)


class TestSection4Example:
    """The worked rewrite of Section 4: R = k(kw){2,4}w."""

    def test_normal_form(self):
        normal = normalize(parse("k/(k/w){2,4}/w"), star_bound_value=10)
        assert not normal.has_epsilon
        expected = [
            "k.k.w.k.w.w",
            "k.k.w.k.w.k.w.w",
            "k.k.w.k.w.k.w.k.w.w",
        ]
        assert [path.encode() for path in normal.paths] == expected

    def test_disjunct_lengths(self):
        normal = normalize(parse("k/(k/w){2,4}/w"), star_bound_value=10)
        assert [len(path) for path in normal.paths] == [6, 8, 10]
        assert normal.max_length() == 10
        assert normal.disjunct_count == 3


class TestNormalize:
    def test_epsilon_only(self):
        normal = normalize(parse("<eps>"), star_bound_value=3)
        assert normal.has_epsilon
        assert normal.paths == ()
        assert normal.max_length() == 0

    def test_star_uses_bound(self):
        normal = normalize(parse("a*"), star_bound_value=2)
        assert normal.has_epsilon
        assert [path.encode() for path in normal.paths] == ["a", "a.a"]

    def test_inverse_handled(self):
        normal = normalize(parse("^(a/b)"), star_bound_value=2)
        assert [path.encode() for path in normal.paths] == ["b-.a-"]

    def test_paper_union_recursion(self):
        normal = normalize(
            parse("(supervisor|worksFor|^worksFor){4,5}"), star_bound_value=9
        )
        # 3^4 + 3^5 step sequences, all distinct
        assert normal.disjunct_count == 3**4 + 3**5
        assert all(
            isinstance(path, LabelPath) and len(path) in (4, 5)
            for path in normal.paths
        )

    def test_str_rendering(self):
        normal = normalize(parse("a{0,1}"), star_bound_value=2)
        assert str(normal) == "<eps> | a"

    @settings(max_examples=60, deadline=None)
    @given(rpq_asts())
    def test_normal_form_preserves_semantics(self, node):
        """Steps 1-2 of the paper preserve the answer set."""
        from repro.graph.examples import two_triangles
        from repro.rpq.semantics import (
            eval_ast,
            eval_label_path,
            identity_relation,
        )

        graph = two_triangles()
        # Generous budgets: this test is about semantics preservation,
        # not the (separately tested) expansion guards.
        normal = normalize(
            node, star_bound_value=6,
            max_disjuncts=200_000, max_total_steps=2_000_000,
        )
        rebuilt: set = set()
        if normal.has_epsilon:
            rebuilt |= identity_relation(graph)
        for path in normal.paths:
            rebuilt |= eval_label_path(graph, path)
        assert rebuilt == eval_ast(graph, node)


def _outcome(normalizer, *arguments):
    try:
        normal = normalizer(*arguments)
    except RewriteError:
        return "refused"
    return normal.has_epsilon, normal.paths


#: ``(max_disjuncts, max_total_steps)``: the defaults, and budgets small
#: enough that five-leaf expressions land on both sides of each.
BUDGETS = [(4096, 2048), (4096, 20), (300, 100), (50, 30), (8, 40), (4, 8), (1, 1)]

_OVERSIZED = parse("(a|b){13}")  # 8,192 disjuncts


class TestAgreesWithReference:
    """Sizing first changes what a refusal costs, never what comes back."""

    @settings(max_examples=300, deadline=None)
    @given(
        rpq_asts(allow_star=True),
        st.sampled_from([0, 1, 3, 8, 64, 200]),
        st.sampled_from(BUDGETS),
    )
    # R{0,0} is epsilon however large R is ...
    @example(ast.repeat(_OVERSIZED, 0, 0), 8, (4096, 2048))
    @example(ast.concat(ast.label("c"), ast.repeat(_OVERSIZED, 0, 0)), 8, (4096, 2048))
    # ... unless a recursion inside R is by itself wider than the limit.
    @example(ast.repeat(ast.star(ast.label("a")), 0, 0), 8, (4, 8))
    # Duplicates: 2,047 disjuncts of 9,217 steps deduplicate to 11 of 55.
    # The budget is met exactly at 55 and missed at 54.
    @example(parse("(a|<eps>){0,10}"), 8, (4096, 2048))
    @example(parse("(a|<eps>){0,10}"), 8, (4096, 55))
    @example(parse("(a|<eps>){0,10}"), 8, (4096, 54))
    # No duplicates and 3,586 steps: refused while it is built.
    @example(parse("(a|b){1,8}"), 8, (4096, 2048))
    def test_same_refusals_same_paths_same_order(self, node, bound, budgets):
        arguments = (node, bound, *budgets)
        assert _outcome(normalize, *arguments) == _outcome(
            reference_rewrite.normalize, *arguments
        )


class TestRefusalCost:
    """A refusal costs what the budgets allow, whatever ``n(G)`` is."""

    RECURSIVE = ["a*", "c/a*", "(a/b)+", "(a|b)*"]

    @pytest.mark.parametrize("text", RECURSIVE)
    def test_refusing_at_a_million_nodes_allocates_under_a_mebibyte(self, text):
        node = parse(text)
        tracemalloc.start()
        try:
            with pytest.raises(RewriteError):
                normalize(node, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_tuples_built_do_not_grow_with_the_bound(self, monkeypatch):
        built = []
        expand = rewrite._disjuncts

        def counting(node, budget):
            disjuncts = expand(node, budget)
            built.append(len(disjuncts))
            return disjuncts

        monkeypatch.setattr(rewrite, "_disjuncts", counting)
        normalize(parse("a*"), 3)
        assert sum(built) > 0  # the count does see an expansion
        totals = []
        for bound in (200, 1000, 10**6):
            built.clear()
            with pytest.raises(RewriteError):
                normalize(parse("a*"), bound)
            totals.append(sum(built))
        assert totals[0] == totals[1] == totals[2]

    def test_refusal_while_building_stops_at_the_budget(self, monkeypatch):
        """``(a|b){1,8}`` is sized between the bounds: 510 disjuncts fit,
        its 3,586 steps may or may not, so it is built until they do not."""
        longest = []
        within = rewrite._within

        def watching(disjuncts, budget):
            kept = within(disjuncts, budget)
            longest.append(sum(map(len, kept)))
            return kept

        monkeypatch.setattr(rewrite, "_within", watching)
        with pytest.raises(RewriteError):
            normalize(parse("(a|b){1,8}"), 8)
        assert max(longest) <= rewrite.DEFAULT_MAX_TOTAL_STEPS
