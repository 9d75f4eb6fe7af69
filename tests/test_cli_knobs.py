"""The serve/router/fleet/chaosproxy flags derived from the config knobs."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _knob_config, build_parser, main
from repro.serve import ChaosPlan, FleetConfig, RouterConfig, ServeConfig

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("argv, config, expected", [
    (["serve"], ServeConfig, ServeConfig()),
    (["router", "--shard", "unix:/a.sock"], RouterConfig,
     RouterConfig(shards=("unix:/a.sock",))),
    (["fleet"], FleetConfig, FleetConfig()),
    (["chaosproxy", "--upstream", "unix:/a.sock"], ChaosPlan, ChaosPlan()),
])
def test_flag_defaults_are_the_field_defaults(argv, config, expected):
    assert _knob_config(config, build_parser().parse_args(argv)) == expected


def test_fleet_rejects_a_bad_shard_knob_before_spawning(capsys):
    # A shard that exits on its own check used to surface as "shard 0
    # did not become healthy"; the fleet now names the flag up front.
    assert main(["fleet", "--max-batch", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --max-batch: max_batch must be >= 1")


def test_non_serving_commands_do_not_import_the_serve_stack(tmp_path):
    # The derived flags are built on first use of their subcommand, so
    # ``generate`` (and ``--version``) never load repro.serve or asyncio.
    output = str(tmp_path / "g.json")
    script = (
        "import sys\n"
        "from repro.cli import main\n"
        f"main(['generate', '--kind', 'pg', '--q', '3', '-o', {output!r}])\n"
        "loaded = [m for m in sys.modules\n"
        "          if m.startswith('repro.serve') or m == 'asyncio']\n"
        "assert not loaded, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
