"""The measurement package: the paper's comparisons and its experiment harness.

:class:`repro.GraphDatabase` answers with the k-path-index engine only.
What Section 6 measures it against lives here: the Datalog evaluator
(:mod:`repro_bench.datalog`, :mod:`repro_bench.datalog_eval`) and the
reachability-index front end (:mod:`repro_bench.reachability_eval`),
beside the workloads, harness, reporting and export that time them.
The automaton baseline stays in :mod:`repro.baselines.automaton_eval`,
because ``witness()`` runs its walk.

Scripts under ``benchmarks/`` import this package from their own
directory; ``tests/conftest.py`` puts ``benchmarks/`` on the test path.
"""
