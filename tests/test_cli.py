"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.graph.examples import figure1_graph
from repro.graph.io import save_edgelist
from paper_experiments import main as experiments


@pytest.fixture()
def fig1_file(tmp_path):
    path = tmp_path / "fig1.tsv"
    save_edgelist(figure1_graph(), path)
    return str(path)


class TestStats:
    def test_synthetic(self, capsys):
        assert main(["stats", "--synthetic", "small", "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "nodes:  120" in out
        assert "index:" in out

    def test_graph_file(self, capsys, fig1_file):
        assert main(["stats", "--graph", fig1_file, "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "nodes:  9" in out


class TestQuery:
    def test_query_prints_pairs(self, capsys, fig1_file):
        code = main(["query", "--graph", fig1_file, "-k", "2",
                     "supervisor/^worksFor"])
        assert code == 0
        captured = capsys.readouterr()
        assert "kim\tsue" in captured.out
        assert "1 pairs" in captured.err

    def test_query_method_option(self, capsys, fig1_file):
        code = main(["query", "--graph", fig1_file, "-k", "1",
                     "--method", "naive", "knows/worksFor"])
        assert code == 0

    def test_parse_error_is_reported_not_raised(self, capsys, fig1_file):
        code = main(["query", "--graph", fig1_file, "a//b"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestExplain:
    def test_explain_prints_plan(self, capsys, fig1_file):
        code = main(["explain", "--graph", fig1_file, "-k", "2",
                     "--method", "minjoin", "knows/knows/worksFor"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IndexScan" in out
        assert "minjoin" in out


    def test_explain_describes_a_recursive_query(self, capsys, tmp_path):
        ring = tmp_path / "ring.tsv"
        ring.write_text(
            "".join(f"n{i}\ta\tn{(i + 1) % 70}\n" for i in range(70)),
            encoding="utf-8",
        )
        code = main(["explain", "--graph", str(ring), "-k", "2", "a*"])
        assert code == 0
        out = capsys.readouterr().out
        assert "route: hybrid" in out
        assert "operand: a" in out


class TestExperiments:
    """The paper's tables print from ``benchmarks/paper_experiments.py``,
    not from the database CLI."""

    def test_the_cli_runs_without_the_measurement_package(self):
        source = Path(repro.__file__).parents[1]
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(source)},
        )
        assert completed.returncode == 0, completed.stderr
        for command in ("figure2", "compare-datalog", "histogram"):
            assert command not in completed.stdout

    def test_figure2_smoke(self, capsys):
        code = experiments(["figure2", "--scale", "small", "--repeats", "1",
                            "--ks", "1", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "panel k=1" in out and "panel k=2" in out
        assert "Q8" in out
        assert "trend" in out

    def test_index_build_smoke(self, capsys):
        code = experiments(["index-build", "--scale", "small", "--ks", "1", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "entries" in out

    def test_histogram_smoke(self, capsys):
        code = experiments(["histogram", "--scale", "small", "-k", "2"])
        assert code == 0
        assert "buckets" in capsys.readouterr().out


class TestParser:
    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
