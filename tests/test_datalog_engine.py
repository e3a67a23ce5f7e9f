"""Tests for the bottom-up Datalog engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro_bench.datalog.ast import Const, DatalogError, Program, atom, rule, var
from repro_bench.datalog.engine import Database, naive_evaluate, seminaive_evaluate

X, Y, Z = var("X"), var("Y"), var("Z")

TC_PROGRAM = Program(
    (
        rule(atom("tc", X, Y), atom("edge", X, Y)),
        rule(atom("tc", X, Y), atom("tc", X, Z), atom("edge", Z, Y)),
    )
)

EDGES = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=18
).map(set)


def _closure(edges: set[tuple[int, int]]) -> set[tuple[int, int]]:
    result = set(edges)
    changed = True
    while changed:
        changed = False
        for a, b in list(result):
            for c, d in list(result):
                if b == c and (a, d) not in result:
                    result.add((a, d))
                    changed = True
    return result


class TestTransitiveClosure:
    def test_chain(self):
        edb = Database({"edge": {(0, 1), (1, 2), (2, 3)}})
        database, stats = seminaive_evaluate(TC_PROGRAM, edb)
        assert database.relation("tc") == {
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        }
        assert stats.rounds >= 2

    def test_cycle_terminates(self):
        edb = Database({"edge": {(0, 1), (1, 2), (2, 0)}})
        database, _ = seminaive_evaluate(TC_PROGRAM, edb)
        assert database.relation("tc") == {
            (i, j) for i in range(3) for j in range(3)
        }

    def test_naive_equals_seminaive(self):
        edb = Database({"edge": {(0, 1), (1, 2), (2, 0), (2, 4)}})
        naive_db, naive_stats = naive_evaluate(TC_PROGRAM, edb)
        semi_db, semi_stats = seminaive_evaluate(TC_PROGRAM, edb)
        assert naive_db.relation("tc") == semi_db.relation("tc")
        # semi-naive applies strictly fewer rule instantiations
        assert semi_stats.rule_applications <= naive_stats.rule_applications

    @settings(max_examples=60, deadline=None)
    @given(EDGES)
    def test_property_matches_brute_force(self, edges):
        edb = Database({"edge": edges})
        semi_db, _ = seminaive_evaluate(TC_PROGRAM, edb)
        assert semi_db.relation("tc") == _closure(edges)

    @settings(max_examples=40, deadline=None)
    @given(EDGES)
    def test_property_naive_equals_seminaive(self, edges):
        edb = Database({"edge": edges})
        assert (
            naive_evaluate(TC_PROGRAM, edb)[0].relation("tc")
            == seminaive_evaluate(TC_PROGRAM, edb)[0].relation("tc")
        )


class TestEngineMechanics:
    def test_facts_in_program(self):
        program = Program(
            (
                rule(atom("base", Const(1), Const(2))),
                rule(atom("copy", X, Y), atom("base", X, Y)),
            )
        )
        database, _ = seminaive_evaluate(program, Database())
        assert database.relation("copy") == {(1, 2)}

    def test_constants_filter(self):
        program = Program(
            (rule(atom("from_zero", Y), atom("edge", Const(0), Y)),)
        )
        edb = Database({"edge": {(0, 1), (2, 3), (0, 4)}})
        database, _ = seminaive_evaluate(program, edb)
        assert database.relation("from_zero") == {(1,), (4,)}

    def test_repeated_variable_join(self):
        program = Program(
            (rule(atom("loop", X), atom("edge", X, X)),)
        )
        edb = Database({"edge": {(1, 1), (1, 2), (3, 3)}})
        database, _ = seminaive_evaluate(program, edb)
        assert database.relation("loop") == {(1,), (3,)}

    def test_multi_atom_join(self):
        program = Program(
            (
                rule(
                    atom("triangle", X, Y, Z),
                    atom("edge", X, Y),
                    atom("edge", Y, Z),
                    atom("edge", Z, X),
                ),
            )
        )
        edb = Database({"edge": {(0, 1), (1, 2), (2, 0)}})
        database, _ = seminaive_evaluate(program, edb)
        assert (0, 1, 2) in database.relation("triangle")

    def test_edb_idb_overlap_rejected(self):
        edb = Database({"tc": {(1, 2)}, "edge": set()})
        with pytest.raises(DatalogError):
            seminaive_evaluate(TC_PROGRAM, edb)
        with pytest.raises(DatalogError):
            naive_evaluate(TC_PROGRAM, edb)

    def test_stats_facts_by_predicate(self):
        edb = Database({"edge": {(0, 1), (1, 2)}})
        _, stats = seminaive_evaluate(TC_PROGRAM, edb)
        assert stats.facts_by_predicate == {"tc": 3}
        assert stats.facts_derived == 3

    def test_empty_edb(self):
        database, stats = seminaive_evaluate(TC_PROGRAM, Database())
        assert database.relation("tc") == set()

    def test_database_copy_isolated(self):
        original = Database({"edge": {(1, 2)}})
        copy = original.copy()
        copy.add("edge", (3, 4))
        assert (3, 4) not in original.relation("edge")
