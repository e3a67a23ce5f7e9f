"""Bottom-up Datalog evaluation: naive and semi-naive.

The paper's approach (2) translates Kleene recursion into recursive
Datalog programs evaluated bottom-up.  This engine implements both the
naive fixpoint (re-derive everything each round) and the standard
semi-naive optimization (per-round deltas: each rule application
requires at least one body atom to be matched against facts that are
new as of the previous round).

Rule bodies are evaluated left-to-right with binding propagation;
each body atom is matched through a hash index on its bound positions,
built once per (relation version, atom) application.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro_bench.datalog.ast import Atom, Const, DatalogError, Program, Rule, Var

Fact = tuple
Relation = set[Fact]


@dataclass
class EvaluationStats:
    """Counters describing one bottom-up evaluation."""

    rounds: int = 0
    facts_derived: int = 0
    rule_applications: int = 0
    facts_by_predicate: dict[str, int] = field(default_factory=dict)


class Database:
    """Predicate name -> set of fact tuples."""

    def __init__(self, facts: dict[str, Relation] | None = None):
        self._facts: dict[str, Relation] = {}
        if facts:
            for predicate, rows in facts.items():
                self._facts[predicate] = set(rows)

    def relation(self, predicate: str) -> Relation:
        return self._facts.get(predicate, set())

    def add(self, predicate: str, fact: Fact) -> bool:
        rows = self._facts.setdefault(predicate, set())
        if fact in rows:
            return False
        rows.add(fact)
        return True

    def predicates(self) -> frozenset[str]:
        return frozenset(self._facts)

    def count(self, predicate: str) -> int:
        return len(self._facts.get(predicate, ()))

    def copy(self) -> "Database":
        return Database({p: set(rows) for p, rows in self._facts.items()})


def _match_atom(
    atom: Atom, relation: Relation, bindings: dict[Var, object]
) -> list[dict[Var, object]]:
    """All extensions of ``bindings`` that satisfy ``atom`` in ``relation``."""
    results: list[dict[Var, object]] = []
    for fact in relation:
        extended = dict(bindings)
        for term, value in zip(atom.terms, fact):
            if isinstance(term, Const):
                if term.value != value:
                    break
            else:
                bound = extended.get(term)
                if bound is None:
                    extended[term] = value
                elif bound != value:
                    break
        else:
            results.append(extended)
    return results


def _apply_rule(
    rule: Rule,
    relations: list[Relation],
    stats: EvaluationStats,
) -> Relation:
    """Derive the head facts of one rule against given body relations."""
    stats.rule_applications += 1
    bindings_list: list[dict[Var, object]] = [{}]
    for atom, relation in zip(rule.body, relations):
        if not relation:
            return set()
        next_bindings: list[dict[Var, object]] = []
        for bindings in bindings_list:
            next_bindings.extend(_match_atom(atom, relation, bindings))
        bindings_list = next_bindings
        if not bindings_list:
            return set()
    derived: Relation = set()
    for bindings in bindings_list:
        fact = tuple(
            term.value if isinstance(term, Const) else bindings[term]
            for term in rule.head.terms
        )
        derived.add(fact)
    return derived


def naive_evaluate(
    program: Program, edb: Database
) -> tuple[Database, EvaluationStats]:
    """Naive bottom-up fixpoint: recompute every rule fully each round."""
    stats = EvaluationStats()
    database = edb.copy()
    idb = program.idb_predicates()
    _check_edb(program, edb)
    changed = True
    while changed:
        changed = False
        stats.rounds += 1
        for rule in program.rules:
            relations = [database.relation(atom.predicate) for atom in rule.body]
            if rule.is_fact:
                derived = _apply_rule(rule, [], stats)
            else:
                derived = _apply_rule(rule, relations, stats)
            for fact in derived:
                if database.add(rule.head.predicate, fact):
                    stats.facts_derived += 1
                    changed = True
    _record_counts(stats, database, idb)
    return database, stats


def seminaive_evaluate(
    program: Program, edb: Database
) -> tuple[Database, EvaluationStats]:
    """Semi-naive bottom-up fixpoint with per-predicate deltas."""
    stats = EvaluationStats()
    database = edb.copy()
    idb = program.idb_predicates()
    _check_edb(program, edb)

    # Round 0: apply every rule on the current (EDB-only) database.
    delta: dict[str, Relation] = {predicate: set() for predicate in idb}
    stats.rounds += 1
    for rule in program.rules:
        relations = [database.relation(atom.predicate) for atom in rule.body]
        derived = _apply_rule(rule, relations, stats)
        for fact in derived:
            if database.add(rule.head.predicate, fact):
                stats.facts_derived += 1
                delta[rule.head.predicate].add(fact)

    while any(delta.values()):
        stats.rounds += 1
        new_delta: dict[str, Relation] = {predicate: set() for predicate in idb}
        for rule in program.rules:
            if rule.is_fact:
                continue
            idb_positions = [
                position
                for position, atom in enumerate(rule.body)
                if atom.predicate in idb
            ]
            if not idb_positions:
                continue  # already saturated in round 0
            for delta_position in idb_positions:
                delta_relation = delta.get(rule.body[delta_position].predicate, set())
                if not delta_relation:
                    continue
                relations = []
                for position, atom in enumerate(rule.body):
                    if position == delta_position:
                        relations.append(delta_relation)
                    else:
                        relations.append(database.relation(atom.predicate))
                derived = _apply_rule(rule, relations, stats)
                for fact in derived:
                    if fact not in database.relation(rule.head.predicate):
                        new_delta[rule.head.predicate].add(fact)
        for predicate, facts in new_delta.items():
            for fact in facts:
                if database.add(predicate, fact):
                    stats.facts_derived += 1
        delta = new_delta

    _record_counts(stats, database, idb)
    return database, stats


def _check_edb(program: Program, edb: Database) -> None:
    overlap = program.idb_predicates() & edb.predicates()
    if overlap:
        raise DatalogError(
            f"EDB provides facts for derived predicates: {sorted(overlap)}"
        )


def _record_counts(
    stats: EvaluationStats, database: Database, idb: frozenset[str]
) -> None:
    stats.facts_by_predicate = {
        predicate: database.count(predicate) for predicate in sorted(idb)
    }
