"""Parallel experiment campaigns.

A *campaign* is a matrix of independent (graph, seed, algorithm) cells.
Each cell is self-describing and picklable, so campaigns fan out across
a :class:`concurrent.futures.ProcessPoolExecutor` with deterministic
results: a cell's outcome depends only on the cell, never on scheduling,
worker count, or the other cells.  Benchmarks (E2 and E2b) and the
``repro campaign`` CLI both run through this subsystem instead of
hand-rolled loops.

The runner is chaos-hardened: per-cell wall-clock timeouts, retry with
pool rebuild on worker crashes, a JSONL checkpoint journal with
``resume=`` replay, and SIGINT handling that surfaces the partial
result (:class:`CampaignInterrupted`) — see the :mod:`campaign` module
docstring for the guarantees.
"""

from repro.runner.campaign import (
    CampaignCell,
    CampaignInterrupted,
    CampaignResult,
    CellTimeout,
    cell_row,
    cells_from_spec,
    derive_cell_seed,
    load_journal,
    run_campaign,
    run_cell,
)

# NOTE: repro.runner.remote (the distributed executor) is deliberately
# not imported here — it pulls in the serve client stack, whose package
# init imports back into repro.runner.campaign.  run_campaign imports
# it lazily; users import RemoteOptions from repro.runner.remote.
from repro.runner.pool import WorkerPool
from repro.runner.presets import (
    PRESETS,
    e2_component_cell,
    e2_scaling_cell,
    e2b_cells,
    e2b_sample,
    e2b_summary_row,
    preset_cells,
)

__all__ = [
    "CampaignCell",
    "CampaignInterrupted",
    "CampaignResult",
    "CellTimeout",
    "PRESETS",
    "WorkerPool",
    "cell_row",
    "cells_from_spec",
    "derive_cell_seed",
    "load_journal",
    "e2_component_cell",
    "e2_scaling_cell",
    "e2b_cells",
    "e2b_sample",
    "e2b_summary_row",
    "preset_cells",
    "run_campaign",
    "run_cell",
]
