"""The invariant checker: rules, suppression, baseline, driver, CLI.

Every rule gets a violating fixture (it must fire) and a clean fixture
(it must stay quiet) so a refactor of the analyzer cannot silently turn
a rule into a no-op.  On top of that sit the meta-contracts: inline
``# repro: ignore[...]`` suppression on the flagged line or the line
above, baseline entries that must carry justifications and go stale
when their finding disappears, and — the one that makes CI honest — a
fresh run over ``src/`` must match ``analysis-baseline.json`` exactly.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    analyze_paths,
    analyze_source,
    apply_baseline,
    default_rules,
    load_baseline,
)
from repro.analysis.__main__ import main as analysis_main
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]


def findings_for(source: str, relpath: str):
    return analyze_source(textwrap.dedent(source), relpath)


def rule_ids(findings) -> list[str]:
    return [found.rule for found in findings]


class TestFramework:
    def test_every_rule_has_id_and_description(self):
        rules = default_rules()
        assert len(rules) == 6
        for rule in rules:
            assert rule.id and rule.description

    def test_rules_only_apply_inside_the_package(self):
        source = """
            def load(path):
                try:
                    return open(path).read()
                except Exception:
                    return None
        """
        assert findings_for(source, "src/repro/example.py")
        assert findings_for(source, "scripts/tool.py") == []

    def test_finding_carries_symbol_and_location(self):
        source = """
            class GraphDatabase:
                def rebuild(self):
                    self._index = None
        """
        (found,) = findings_for(source, "src/repro/api.py")
        assert found.rule == "lock-discipline"
        assert found.file == "src/repro/api.py"
        assert found.symbol == "GraphDatabase.rebuild"
        assert found.line == 4
        assert "src/repro/api.py:4:" in found.format()
        assert found.to_obj()["symbol"] == "GraphDatabase.rebuild"


class TestLockDiscipline:
    def test_unlocked_write_to_guarded_state_fires(self):
        source = """
            class GraphDatabase:
                def rebuild(self):
                    self._index = None
                    self._histogram = None
        """
        findings = findings_for(source, "src/repro/api.py")
        assert rule_ids(findings) == ["lock-discipline", "lock-discipline"]

    def test_unlocked_cache_state_fires(self):
        source = """
            class GraphDatabase:
                def reset(self):
                    self._query_cache = {}
        """
        assert rule_ids(findings_for(source, "src/repro/api.py")) == [
            "lock-discipline"
        ]

    def test_mutation_call_under_read_lock_fires(self):
        source = """
            class GraphDatabase:
                def snapshot(self):
                    with self._lock.read_locked():
                        self.graph.add_edge("a", "knows", "b")
        """
        findings = findings_for(source, "src/repro/api.py")
        assert rule_ids(findings) == ["lock-discipline"]
        assert "read_locked" in findings[0].message

    @pytest.mark.parametrize("call", ["absorb_group", "patch_shards"])
    def test_index_write_under_read_lock_fires(self, call):
        source = f"""
            class GraphDatabase:
                def snapshot(self, batches, changes, endpoints):
                    with self._lock.read_locked():
                        self._index.{call}(batches, changes, endpoints)
        """
        findings = findings_for(source, "src/repro/api.py")
        assert rule_ids(findings) == ["lock-discipline"]
        assert f"{call}()" in findings[0].message

    def test_locked_sections_and_locked_methods_are_clean(self):
        source = """
            class GraphDatabase:
                def __init__(self):
                    self._index = None
                    self._query_cache = {}

                def mutate(self):
                    with self._lock.write_locked():
                        self._index = None

                def _rebuild_shards_locked(self):
                    self._histogram = None

                def reset_cache(self):
                    with self._cache_lock:
                        self._query_cache = {}
        """
        assert findings_for(source, "src/repro/api.py") == []

    def test_the_coordinator_subclass_is_governed(self):
        source = """
            class CoordinatorDatabase(GraphDatabase):
                def relaunch(self):
                    self._histogram = None

                def _relaunch_locked(self):
                    self._histogram = None
        """
        (found,) = findings_for(source, "src/repro/serve/coordinator.py")
        assert found.rule == "lock-discipline"
        assert found.symbol == "CoordinatorDatabase.relaunch"

    def test_other_classes_are_not_governed(self):
        source = """
            class SomethingElse:
                def rebuild(self):
                    self._index = None
        """
        assert findings_for(source, "src/repro/api.py") == []


class TestErrorTaxonomy:
    def test_broad_handler_swallowing_fires(self):
        source = """
            def load(path):
                try:
                    return open(path).read()
                except Exception:
                    return None
        """
        findings = findings_for(source, "src/repro/example.py")
        assert rule_ids(findings) == ["error-taxonomy"]
        assert "QueryTimeoutError" in findings[0].message

    def test_bare_except_fires(self):
        source = """
            def load(path):
                try:
                    return open(path).read()
                except:
                    pass
        """
        assert rule_ids(findings_for(source, "src/repro/example.py")) == [
            "error-taxonomy"
        ]

    def test_typed_reraise_before_broad_handler_is_clean(self):
        source = """
            def load(path):
                try:
                    return open(path).read()
                except (QueryTimeoutError, TransientError):
                    raise
                except Exception:
                    return None
        """
        assert findings_for(source, "src/repro/example.py") == []

    def test_cleanup_then_bare_raise_is_clean(self):
        source = """
            def close_all(handles):
                try:
                    work(handles)
                except BaseException:
                    for handle in handles:
                        handle.close()
                    raise
        """
        assert findings_for(source, "src/repro/example.py") == []


class TestFaultPoints:
    def test_boundary_without_fire_fires(self):
        source = """
            class ShardedGraph:
                def shard_scan(self, shard, label):
                    return shard.scan(label)
        """
        findings = findings_for(source, "src/repro/sharding.py")
        assert rule_ids(findings) == ["fault-point"]
        assert "shard.scan" in findings[0].message

    def test_boundary_with_fire_or_retry_call_is_clean(self):
        source = """
            class ShardedGraph:
                def shard_scan(self, shard, label):
                    def attempt():
                        fire("shard.scan", shard=shard)
                        return shard.scan(label)

                    return retry_call(attempt)
        """
        assert findings_for(source, "src/repro/sharding.py") == []

    def test_unknown_point_literal_fires(self):
        source = """
            def scan(shard):
                fire("shard.scna")
                return shard.data
        """
        findings = findings_for(source, "src/repro/example.py")
        assert rule_ids(findings) == ["fault-point"]
        assert "unknown injection" in findings[0].message

    def test_computed_point_fires(self):
        source = """
            def scan(shard, point):
                fire(point)
                return shard.data
        """
        findings = findings_for(source, "src/repro/example.py")
        assert rule_ids(findings) == ["fault-point"]
        assert "literal" in findings[0].message

    def test_known_point_literal_is_clean(self):
        source = """
            def scan(shard):
                fire("shard.scan")
                return shard.data
        """
        assert findings_for(source, "src/repro/example.py") == []


class TestOrderContract:
    def test_merge_join_without_order_evidence_fires(self):
        source = """
            def join_all(left, right):
                return merge_join(left, right)
        """
        findings = findings_for(source, "src/repro/engine/operators.py")
        assert rule_ids(findings) == ["order-contract"]

    def test_fresh_unordered_relation_argument_fires(self):
        source = """
            def join_fresh(pairs, right):
                return merge_join(Relation(pairs, 3), right)
        """
        findings = findings_for(source, "src/repro/engine/operators.py")
        # Both halves fire: no visible evidence, and an Order.NONE arg.
        assert rule_ids(findings) == ["order-contract", "order-contract"]

    def test_dedup_sort_to_order_none_fires(self):
        source = """
            def collapse(pairs):
                return dedup_sort(pairs, Order.NONE)
        """
        findings = findings_for(source, "src/repro/engine/operators.py")
        assert rule_ids(findings) == ["order-contract"]

    def test_order_checked_call_site_is_clean(self):
        source = """
            def join_checked(left, right):
                if left.order is not Order.BY_TGT:
                    left = left.sorted_by(Order.BY_TGT)
                return merge_join(left, right)
        """
        assert findings_for(source, "src/repro/engine/operators.py") == []


class TestDeadlineLoop:
    def test_unchecked_while_loop_fires(self):
        source = """
            def saturate(frontier):
                seen = set()
                while frontier:
                    frontier = step(frontier, seen)
                return seen
        """
        findings = findings_for(source, "src/repro/csr.py")
        assert rule_ids(findings) == ["deadline-loop"]

    def test_cooperative_loop_is_clean(self):
        source = """
            def saturate(frontier, deadline):
                seen = set()
                while frontier:
                    deadline.check()
                    frontier = step(frontier, seen)
                return seen
        """
        assert findings_for(source, "src/repro/csr.py") == []

    def test_rule_is_scoped_to_kernel_modules(self):
        source = """
            def saturate(frontier):
                while frontier:
                    frontier = step(frontier)
        """
        assert findings_for(source, "src/repro/graph/io.py") == []


class TestDualPath:
    def test_unguarded_np_call_and_dead_twin_fire(self):
        source = """
            def expand(values):
                return _np_expand(values)

            def _np_expand(values):
                return values

            def _py_dead(values):
                return values
        """
        findings = findings_for(source, "src/repro/relation.py")
        assert rule_ids(findings) == ["dual-path", "dual-path"]
        messages = " ".join(found.message for found in findings)
        assert "_vectorize" in messages
        assert "_py_dead" in messages

    def test_guarded_pairing_is_clean(self):
        source = """
            def expand(values):
                if _vectorize(len(values)):
                    return _np_expand(values)
                return _py_expand(values)

            def _np_expand(values):
                return values

            def _py_expand(values):
                return list(values)
        """
        assert findings_for(source, "src/repro/relation.py") == []

    def test_call_from_inside_np_kernel_is_already_guarded(self):
        source = """
            def run(values):
                if _np() is not None:
                    return _np_outer(values)
                return list(values)

            def _np_outer(values):
                return _np_inner(values)

            def _np_inner(values):
                return values
        """
        assert findings_for(source, "src/repro/csr.py") == []


class TestSuppression:
    VIOLATION = """
        def saturate(frontier):
            while frontier:
                frontier = step(frontier)
    """

    def test_suppression_on_the_flagged_line(self):
        source = """
            def saturate(frontier):
                while frontier:  # repro: ignore[deadline-loop] bounded
                    frontier = step(frontier)
        """
        assert findings_for(source, "src/repro/csr.py") == []

    def test_suppression_on_the_line_above(self):
        source = """
            def saturate(frontier):
                # repro: ignore[deadline-loop] bounded by len(frontier)
                while frontier:
                    frontier = step(frontier)
        """
        assert findings_for(source, "src/repro/csr.py") == []

    def test_wildcard_suppression(self):
        source = """
            def saturate(frontier):
                while frontier:  # repro: ignore[*] exercised in tests
                    frontier = step(frontier)
        """
        assert findings_for(source, "src/repro/csr.py") == []

    def test_wrong_rule_id_does_not_suppress(self):
        source = """
            def saturate(frontier):
                while frontier:  # repro: ignore[order-contract]
                    frontier = step(frontier)
        """
        findings = findings_for(source, "src/repro/csr.py")
        assert rule_ids(findings) == ["deadline-loop"]


class TestBaseline:
    def _finding(self):
        (found,) = findings_for(
            """
            class GraphDatabase:
                def rebuild(self):
                    self._index = None
            """,
            "src/repro/api.py",
        )
        return found

    def _entry(self, **overrides):
        entry = {
            "rule": "lock-discipline",
            "file": "src/repro/api.py",
            "symbol": "GraphDatabase.rebuild",
            "justification": "exercised under an external lock in tests",
        }
        entry.update(overrides)
        return entry

    def test_covered_finding_is_not_new(self):
        new, stale = apply_baseline([self._finding()], [self._entry()])
        assert new == []
        assert stale == []

    def test_uncovered_finding_is_new(self):
        entry = self._entry(symbol="GraphDatabase.other")
        new, stale = apply_baseline([self._finding()], [entry])
        assert rule_ids(new) == ["lock-discipline"]
        assert stale == [entry]

    def test_stale_entry_is_reported_when_finding_disappears(self):
        new, stale = apply_baseline([], [self._entry()])
        assert new == []
        assert stale == [self._entry()]

    def test_baseline_entries_require_justification(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps({"entries": [self._entry(justification="  ")]}),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="justification"):
            load_baseline(path)

    def test_committed_baseline_matches_fresh_run(self):
        findings, errors = analyze_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        assert errors == []
        entries = load_baseline(REPO_ROOT / "analysis-baseline.json")
        new, stale = apply_baseline(findings, entries)
        assert new == [], "\n".join(found.format() for found in new)
        assert stale == [], (
            "baseline entries no finding matches any more — the baseline "
            f"only shrinks, remove them: {stale}"
        )


VIOLATING_MODULE = textwrap.dedent(
    """
    def load(path):
        try:
            return open(path).read()
        except Exception:
            return None
    """
)

CLEAN_MODULE = textwrap.dedent(
    """
    def load(path):
        try:
            return open(path).read()
        except (QueryTimeoutError, TransientError):
            raise
        except Exception:
            return None
    """
)


def write_module(tmp_path: Path, source: str, name: str = "mod.py") -> Path:
    package = tmp_path / "repro"
    package.mkdir(exist_ok=True)
    path = package / name
    path.write_text(source, encoding="utf-8")
    return path


class TestDriver:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        target = write_module(tmp_path, CLEAN_MODULE)
        missing = tmp_path / "missing-baseline.json"
        code = analysis_main([str(target), "--baseline", str(missing)])
        assert code == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_new_finding_exits_one(self, tmp_path, capsys):
        target = write_module(tmp_path, VIOLATING_MODULE)
        missing = tmp_path / "missing-baseline.json"
        code = analysis_main([str(target), "--baseline", str(missing)])
        assert code == 1
        assert "[error-taxonomy]" in capsys.readouterr().out

    def test_stale_baseline_entry_exits_one(self, tmp_path, capsys):
        target = write_module(tmp_path, CLEAN_MODULE)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "rule": "error-taxonomy",
                            "file": "repro/gone.py",
                            "symbol": "load",
                            "justification": "was fixed; entry left behind",
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        code = analysis_main([str(target), "--baseline", str(baseline)])
        assert code == 1
        assert "stale baseline entry" in capsys.readouterr().out

    def test_unjustified_baseline_exits_two(self, tmp_path, capsys):
        target = write_module(tmp_path, CLEAN_MODULE)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "rule": "error-taxonomy",
                            "file": "repro/mod.py",
                            "symbol": "load",
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        code = analysis_main([str(target), "--baseline", str(baseline)])
        assert code == 2
        assert "bad baseline" in capsys.readouterr().out

    def test_baseline_anchors_relpaths_from_any_cwd(self, tmp_path, capsys):
        # Baseline entries hold repo-root-relative paths; the baseline
        # file's directory is the root, so the gate matches no matter
        # where the driver is invoked from.
        target = write_module(tmp_path, VIOLATING_MODULE)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "rule": "error-taxonomy",
                            "file": "repro/mod.py",
                            "symbol": "load",
                            "justification": "fixture: covered on purpose",
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        code = analysis_main([str(target), "--baseline", str(baseline)])
        assert code == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_unparsable_file_exits_one(self, tmp_path, capsys):
        target = write_module(tmp_path, "def broken(:\n")
        code = analysis_main([str(target), "--no-baseline"])
        assert code == 1
        assert "syntax error" in capsys.readouterr().out

    def test_report_artifact_is_written(self, tmp_path):
        target = write_module(tmp_path, VIOLATING_MODULE)
        report_path = tmp_path / "report.json"
        code = analysis_main(
            [str(target), "--no-baseline", "--report", str(report_path)]
        )
        assert code == 1
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert set(report) == {"rules", "findings", "new", "stale_baseline", "errors"}
        assert report["new"] == report["findings"]
        assert [entry["rule"] for entry in report["new"]] == ["error-taxonomy"]
        assert "error-taxonomy" in report["rules"]


class TestCliLint:
    def test_lint_subcommand_reports_new_findings(self, tmp_path, capsys):
        target = write_module(tmp_path, VIOLATING_MODULE)
        missing = tmp_path / "missing-baseline.json"
        code = cli_main(["lint", str(target), "--baseline", str(missing)])
        assert code == 1
        assert "[error-taxonomy]" in capsys.readouterr().out

    def test_lint_subcommand_clean_exits_zero(self, tmp_path):
        target = write_module(tmp_path, CLEAN_MODULE)
        missing = tmp_path / "missing-baseline.json"
        assert cli_main(["lint", str(target), "--baseline", str(missing)]) == 0
