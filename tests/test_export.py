"""Tests for experiment-result export."""

from __future__ import annotations

import csv

import pytest

from repro_bench.export import read_json, rows_to_dicts, write_csv, write_json
from repro_bench.harness import ComparisonRow, Measurement
from repro.errors import ValidationError


@pytest.fixture()
def measurements() -> list[Measurement]:
    return [
        Measurement("Q1", "naive", 1, 0.004, 42),
        Measurement("Q1", "minjoin", 1, 0.001, 42),
    ]


class TestDicts:
    def test_fields_present(self, measurements):
        dicts = rows_to_dicts(measurements)
        assert dicts[0] == {
            "query": "Q1", "method": "naive", "k": 1,
            "seconds": 0.004, "answer_size": 42,
        }

    def test_properties_included(self):
        rows = [ComparisonRow("Q1", 0.001, 0.1, 7)]
        dicts = rows_to_dicts(rows)
        assert dicts[0]["speedup"] == pytest.approx(100.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            rows_to_dicts([])

    def test_non_dataclass_rejected(self):
        with pytest.raises(ValidationError):
            rows_to_dicts([{"not": "a dataclass"}])

    def test_mixed_types_rejected(self, measurements):
        with pytest.raises(ValidationError):
            rows_to_dicts(measurements + [ComparisonRow("Q1", 1.0, 2.0, 3)])


class TestCsv:
    def test_roundtrip(self, measurements, tmp_path):
        path = tmp_path / "fig2.csv"
        write_csv(measurements, path)
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert rows[0]["query"] == "Q1"
        assert float(rows[1]["seconds"]) == pytest.approx(0.001)


class TestJson:
    def test_roundtrip(self, measurements, tmp_path):
        path = tmp_path / "fig2.json"
        write_json(measurements, path, experiment="figure2")
        payload = read_json(path)
        assert payload["experiment"] == "figure2"
        assert payload["row_type"] == "Measurement"
        assert payload["rows"][0]["method"] == "naive"

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValidationError):
            read_json(path)

    def test_export_real_harness_rows(self, tmp_path):
        from repro_bench.harness import run_index_build
        from repro.graph.generators import advogato_like

        rows = run_index_build(advogato_like(60, 240, seed=5), ks=(1,))
        write_json(rows, tmp_path / "build.json", experiment="index-build")
        payload = read_json(tmp_path / "build.json")
        assert payload["rows"][0]["k"] == 1
        assert payload["rows"][0]["entries"] > 0
