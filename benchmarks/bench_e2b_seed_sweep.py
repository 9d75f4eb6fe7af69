"""E2b — Theorem 2 statistics over a seed ensemble.

A single randomized run is an anecdote; this experiment repeats the
Theorem 2 pipeline over 24 seeds and reports the distribution of round
counts, T-node yields, and shattered-component sizes — the "w.h.p."
claims as measured frequencies.

The ensemble runs through the campaign runner
(:mod:`repro.runner.presets` defines the cells), so ``repro campaign
--preset e2b --jobs N`` produces the identical artifact in parallel.
Set ``REPRO_BENCH_JOBS`` to fan this benchmark across processes too.
"""

from __future__ import annotations

import os
import statistics

from repro.bench import (
    hard_workload,
    print_table,
    save_artifact,
    workload_classification,
)
from repro.runner import e2b_cells, e2b_sample, e2b_summary_row, run_campaign
from repro.runner.presets import E2B_NUM_CLIQUES, E2B_SEEDS

_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

_ROWS: list[dict] = []


def test_seed_ensemble(benchmark, once):
    cells = e2b_cells()
    if _JOBS == 1:
        # Prewarm the shared instance + classification, as the
        # hand-rolled loop did.
        hard_workload(E2B_NUM_CLIQUES)
        workload_classification(E2B_NUM_CLIQUES)

    def run_all():
        campaign = run_campaign(cells, jobs=_JOBS)
        return [e2b_sample(row) for row in campaign.rows]

    samples = once(benchmark, run_all)
    rounds = [s["rounds"] for s in samples]
    benchmark.extra_info["rounds_mean"] = statistics.mean(rounds)
    _ROWS.extend(samples)
    _ROWS.append(e2b_summary_row(samples))
    # The w.h.p. story: round counts concentrate tightly.
    assert max(rounds) <= 3 * min(rounds)


def teardown_module(module):
    if not _ROWS:
        return
    summary = [row for row in _ROWS if row["seed"] == "SUMMARY"]
    print_table(
        ["seed", "rounds", "T-nodes", "bad cliques", "max component"],
        [
            [r["seed"], r["rounds"], r["t_nodes"], r["bad_cliques"],
             r["max_component"]]
            for r in summary
        ],
        title=f"E2b / Theorem 2 over {len(E2B_SEEDS)} seeds "
              f"(n at t={E2B_NUM_CLIQUES})",
    )
    save_artifact("e2b_seed_sweep", _ROWS)
