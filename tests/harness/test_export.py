"""Tests for CSV export."""

import csv

from repro.harness.export import export_csv


class TestExportCsv:
    def test_writes_header_and_rows(self, tmp_path):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        path = export_csv(rows, tmp_path / "out.csv")
        with path.open() as handle:
            parsed = list(csv.DictReader(handle))
        assert parsed == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]

    def test_column_selection(self, tmp_path):
        rows = [{"a": 1, "b": 2, "c": 3}]
        path = export_csv(rows, tmp_path / "out.csv", columns=["c", "a"])
        header = path.read_text().splitlines()[0]
        assert header == "c,a"

    def test_empty_rows_write_empty_file(self, tmp_path):
        path = export_csv([], tmp_path / "out.csv")
        assert path.read_text() == ""

    def test_creates_parent_directories(self, tmp_path):
        path = export_csv([{"a": 1}], tmp_path / "deep" / "dir" / "out.csv")
        assert path.exists()

