"""E2 — Theorem 2: randomized rounds vs n, and the shattering statistic.

The randomized algorithm's rounds should be essentially flat in n
(O(Delta + log log n) with tiny constants at these scales), and the
shattered components — hard cliques beyond the T-node slack horizon —
must stay small (the paper: poly(Delta) * log n vertices w.h.p.).  A
low-activation variant deliberately produces components to measure
their size distribution.

Cells are defined in :mod:`repro.runner.presets` and executed through
the campaign runner, so this benchmark, ``repro campaign --preset e2``,
and any parallel sweep share one definition.  Set ``REPRO_BENCH_JOBS``
to fan the cells across worker processes (timings then measure the
pool, not a single engine).
"""

from __future__ import annotations

import os

import pytest

from repro.bench import (
    SCALING_CLIQUES,
    hard_workload,
    print_table,
    save_artifact,
    workload_classification,
)
from repro.runner import e2_component_cell, e2_scaling_cell, run_campaign
from repro.runner.presets import E2_COMPONENT_SEEDS

_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

_ROWS: list[dict] = []


def _run_cell_row(benchmark, once, cell):
    # Prewarm the cached workload so the timer sees the run, not graph
    # generation + ACD + classification (the pre-runner benchmarks left
    # the ACD out the same way).
    hard_workload(cell.num_cliques)
    workload_classification(cell.num_cliques)
    campaign = once(benchmark, run_campaign, [cell], jobs=_JOBS)
    row = campaign.rows[0]
    benchmark.extra_info["rounds"] = row["rounds"]
    benchmark.extra_info["messages"] = row["messages"]
    benchmark.extra_info["phase_rounds"] = row["breakdown"]
    return row


@pytest.mark.parametrize("num_cliques", SCALING_CLIQUES)
def test_randomized_scaling(benchmark, once, num_cliques):
    row = _run_cell_row(benchmark, once, e2_scaling_cell(num_cliques))
    _ROWS.append(row)


@pytest.mark.parametrize("seed", list(E2_COMPONENT_SEEDS))
def test_component_size_distribution(benchmark, once, seed):
    """Sparse T-nodes (p = 0.02) force leftover components."""
    row = _run_cell_row(benchmark, once, e2_component_cell(seed))
    _ROWS.append(row)


def teardown_module(module):
    if not _ROWS:
        return
    print_table(
        ["case", "n", "rounds", "T-nodes", "bad cliques", "components",
         "max component"],
        [
            [r["label"], r["n"], r["rounds"], r["shattering"].get("good"),
             r["shattering"].get("bad_cliques"),
             r["shattering"].get("num_components"),
             r["shattering"].get("max_component")]
            for r in _ROWS
        ],
        title="E2 / Theorem 2: randomized rounds and shattering",
    )
    save_artifact("e2_theorem2_scaling", _ROWS)
