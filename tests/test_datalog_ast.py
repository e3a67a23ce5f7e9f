"""Tests for Datalog terms, atoms, rules and programs."""

from __future__ import annotations

import pytest

from repro_bench.datalog.ast import Atom, Const, DatalogError, Program, atom, rule, var


class TestAtoms:
    def test_arity(self):
        assert atom("edge", var("X"), var("Y")).arity == 2

    def test_variables(self):
        mixed = atom("p", var("X"), Const(3), var("Y"))
        assert list(mixed.variables()) == [var("X"), var("Y")]

    def test_str(self):
        assert str(atom("p", var("X"), Const(3))) == "p(X, 3)"

    def test_empty_predicate_rejected(self):
        with pytest.raises(DatalogError):
            Atom("", (var("X"),))

    def test_non_term_rejected(self):
        with pytest.raises(DatalogError):
            Atom("p", ("X",))  # type: ignore[arg-type]


class TestRules:
    def test_fact(self):
        fact = rule(atom("p", Const(1)))
        assert fact.is_fact
        assert str(fact) == "p(1)."

    def test_rule_str(self):
        tc = rule(
            atom("tc", var("X"), var("Y")),
            atom("tc", var("X"), var("Z")),
            atom("edge", var("Z"), var("Y")),
        )
        assert str(tc) == "tc(X, Y) :- tc(X, Z), edge(Z, Y)."

    def test_range_restriction_enforced(self):
        with pytest.raises(DatalogError):
            rule(atom("p", var("X")), atom("q", var("Y")))

    def test_constants_in_head_allowed(self):
        fact = rule(atom("p", Const("a"), var("X")), atom("q", var("X")))
        assert not fact.is_fact


class TestPrograms:
    def _program(self) -> Program:
        return Program(
            (
                rule(
                    atom("tc", var("X"), var("Y")),
                    atom("edge", var("X"), var("Y")),
                ),
                rule(
                    atom("tc", var("X"), var("Y")),
                    atom("tc", var("X"), var("Z")),
                    atom("edge", var("Z"), var("Y")),
                ),
            )
        )

    def test_idb_edb_split(self):
        program = self._program()
        assert program.idb_predicates() == frozenset({"tc"})
        assert program.edb_predicates() == frozenset({"edge"})

    def test_rules_for(self):
        program = self._program()
        assert len(program.rules_for("tc")) == 2
        assert program.rules_for("edge") == ()

    def test_arity_conflict_rejected(self):
        with pytest.raises(DatalogError):
            Program(
                (
                    rule(atom("p", var("X")), atom("e", var("X"), var("X"))),
                    rule(
                        atom("p", var("X"), var("Y")),
                        atom("e", var("X"), var("Y")),
                    ),
                )
            )

    def test_str_lists_rules(self):
        text = str(self._program())
        assert text.count(":-") == 2
