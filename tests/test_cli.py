"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    code = main([
        "generate", "--kind", "hard", "--cliques", "34", "--delta", "16",
        "--seed", "3", "-o", str(path),
    ])
    assert code == 0
    return path


class TestGenerate:
    def test_hard(self, instance_file):
        assert instance_file.exists()
        payload = json.loads(instance_file.read_text())
        assert payload["delta"] == 16

    def test_mixed(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        assert main([
            "generate", "--kind", "mixed", "--cliques", "34", "--delta",
            "16", "--easy-fraction", "0.3", "--seed", "1", "-o", str(path),
        ]) == 0
        assert "mixed_dense_graph" in capsys.readouterr().out

    def test_projective_plane(self, tmp_path):
        path = tmp_path / "pg.json"
        assert main([
            "generate", "--kind", "pg", "--q", "5", "-o", str(path),
        ]) == 0
        payload = json.loads(path.read_text())
        assert payload["delta"] == 6


class TestInfo:
    def test_dense_instance(self, instance_file, capsys):
        assert main(["info", str(instance_file)]) == 0
        out = capsys.readouterr().out
        assert "34 almost-cliques" in out
        assert "34 hard" in out


class TestColorAndVerify:
    def test_roundtrip(self, instance_file, tmp_path, capsys):
        coloring = tmp_path / "coloring.json"
        assert main([
            "color", str(instance_file), "--method", "randomized",
            "--seed", "0", "-o", str(coloring),
        ]) == 0
        assert "16-coloring" in capsys.readouterr().out
        assert main(["verify", str(instance_file), str(coloring)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_json_report(self, instance_file, capsys):
        assert main([
            "color", str(instance_file), "--method", "randomized",
            "--seed", "1", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["num_colors"] == 16
        assert report["rounds"] > 0

    def test_bad_coloring_rejected(self, instance_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        payload = json.loads(instance_file.read_text())
        bad.write_text(json.dumps({
            "format": 1, "num_colors": 16, "colors": [0] * payload["n"],
        }))
        assert main(["verify", str(instance_file), str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_deterministic_color(self, instance_file, capsys):
        assert main(["color", str(instance_file)]) == 0
        assert "deterministic" in capsys.readouterr().out


class TestReadme:
    def test_module_table_lists_every_subcommand(self):
        # The `cli.py` row of README's module table spells the commands
        # as "python -m repro a/b/c/" and may wrap onto indented lines.
        lines = README.read_text().splitlines()
        start = next(
            i for i, line in enumerate(lines)
            if line.startswith("  cli.py ")
        )
        row = lines[start].split("python -m repro", 1)[1]
        for line in lines[start + 1:]:
            if not line.startswith("   "):
                break
            row += line.strip()
        listed = [name for name in row.strip().split("/") if name]
        (subparsers,) = (
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert listed == list(subparsers.choices)
