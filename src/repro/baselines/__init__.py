"""The automaton baseline (approach 1 of Section 1), whose walk ``witness()`` runs."""

from repro.baselines import automaton_eval

__all__ = ["automaton_eval"]
