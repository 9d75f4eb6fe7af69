"""Tests for the benchmark harness helpers."""

from __future__ import annotations

import json

from repro.bench import (
    bench_params,
    format_table,
    hard_workload,
    mixed_workload,
    result_row,
    save_artifact,
    workload_classification,
)
from repro.bench.harness import ARTIFACT_DIR
from repro.local import RoundLedger
from repro.types import ColoringResult


class TestTables:
    def test_alignment_and_title(self):
        table = format_table(
            ["name", "value"], [["a", 1], ["long-name", 22]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("name")
        assert all(len(line) >= 4 for line in lines[2:])

    def test_float_formatting(self):
        table = format_table(["x"], [[1.23456]])
        assert "1.23" in table and "1.2345" not in table

    def test_empty_rows(self):
        table = format_table(["a"], [])
        assert "a" in table


class TestWorkloads:
    def test_hard_workload_cached(self):
        a = hard_workload(34, 16)
        b = hard_workload(34, 16)
        assert a is b

    def test_mixed_workload(self):
        instance = mixed_workload(34, 16, 0.25, 1)
        assert instance.meta["easy_fraction"] == 0.25

    def test_acd_for_mixed(self):
        classification = workload_classification(
            34, 16, 0.25, 1, easy_fraction=0.25
        )
        assert classification.acd.num_cliques == 34
        assert classification.easy
        assert workload_classification(
            34, 16, 0.25, 1, easy_fraction=0.25
        ) is classification

    def test_params(self):
        assert bench_params(0.5).epsilon == 0.5


class TestHarness:
    def test_result_row_and_artifact(self, tmp_path, monkeypatch):
        ledger = RoundLedger()
        ledger.charge("hard/x", 3, 1)
        result = ColoringResult(
            colors=[0], num_colors=1, ledger=ledger, algorithm="algo",
            stats={"n": 1, "delta": 0},
        )
        row = result_row("case", result)
        assert row["rounds"] == 3 and row["label"] == "case"

        monkeypatch.setattr(
            "repro.bench.harness.ARTIFACT_DIR", tmp_path / "artifacts"
        )
        path = save_artifact("unit", [row])
        assert json.loads(path.read_text())[0]["algorithm"] == "algo"

    def test_artifact_dir_points_at_benchmarks(self):
        assert ARTIFACT_DIR.parts[-2:] == ("benchmarks", "artifacts")
