"""Datalog abstract syntax: terms, atoms, rules, programs.

This is the substrate for the paper's approach (2) baseline (Datalog /
recursive-SQL evaluation of RPQs).  Programs here are positive
(negation-free) with constants and variables; that fragment is all the
RPQ translation needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import ReproError


class DatalogError(ReproError):
    """Invalid Datalog program or evaluation failure."""


@dataclass(frozen=True, slots=True)
class Var:
    """A Datalog variable (upper-case by convention)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Const:
    """A constant (node ids in the RPQ translation)."""

    value: object

    def __str__(self) -> str:
        return repr(self.value)


Term = Var | Const


@dataclass(frozen=True, slots=True)
class Atom:
    """``predicate(term, ...)``."""

    predicate: str
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.predicate:
            raise DatalogError("atom predicate must be non-empty")
        for term in self.terms:
            if not isinstance(term, (Var, Const)):
                raise DatalogError(f"not a term: {term!r}")

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> Iterator[Var]:
        for term in self.terms:
            if isinstance(term, Var):
                yield term

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(str(t) for t in self.terms)})"


@dataclass(frozen=True, slots=True)
class Rule:
    """``head :- body_1, ..., body_n`` (facts have an empty body)."""

    head: Atom
    body: tuple[Atom, ...]

    def __post_init__(self) -> None:
        body_vars = {var for atom in self.body for var in atom.variables()}
        for var in self.head.variables():
            if var not in body_vars:
                raise DatalogError(
                    f"rule is not range-restricted: head variable {var} "
                    f"does not occur in the body: {self}"
                )

    @property
    def is_fact(self) -> bool:
        return not self.body

    def __str__(self) -> str:
        if self.is_fact:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(a) for a in self.body)}."


@dataclass(frozen=True, slots=True)
class Program:
    """A set of rules; IDB predicates are those appearing in heads."""

    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        arities: dict[str, int] = {}
        for rule in self.rules:
            for atom in (rule.head, *rule.body):
                known = arities.setdefault(atom.predicate, atom.arity)
                if known != atom.arity:
                    raise DatalogError(
                        f"predicate {atom.predicate!r} used with arities "
                        f"{known} and {atom.arity}"
                    )

    def idb_predicates(self) -> frozenset[str]:
        """Predicates defined by rules (the program derives these)."""
        return frozenset(rule.head.predicate for rule in self.rules)

    def edb_predicates(self) -> frozenset[str]:
        """Predicates only read, never derived (facts come from outside)."""
        idb = self.idb_predicates()
        used = {
            atom.predicate for rule in self.rules for atom in rule.body
        }
        return frozenset(used - idb)

    def rules_for(self, predicate: str) -> tuple[Rule, ...]:
        return tuple(
            rule for rule in self.rules if rule.head.predicate == predicate
        )

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)


def var(name: str) -> Var:
    """Shorthand variable constructor."""
    return Var(name)


def atom(predicate: str, *terms: Term) -> Atom:
    """Shorthand atom constructor."""
    return Atom(predicate, tuple(terms))


def rule(head: Atom, *body: Atom) -> Rule:
    """Shorthand rule constructor."""
    return Rule(head, tuple(body))
