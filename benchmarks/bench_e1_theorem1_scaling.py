"""E1 — Theorem 1: deterministic round complexity vs n at fixed Delta.

Regenerates the paper's headline deterministic claim: on dense hard
instances with constant Delta, total rounds stay O(Delta^2 + log n) —
the n-dependent terms (HEG, degree splitting) grow logarithmically
while the (deg+1)-sweep terms are flat in n (they are the documented
O(Delta^2) substitution for the paper's [MT20]/[GG24] black boxes).
"""

from __future__ import annotations

import pytest

from repro.bench import (
    SCALING_CLIQUES,
    bench_params,
    hard_workload,
    print_table,
    record_result,
    result_row,
    save_artifact,
    workload_classification,
)
from repro.core import delta_color_deterministic

_ROWS: list[dict] = []


@pytest.mark.parametrize("num_cliques", SCALING_CLIQUES)
def test_deterministic_scaling(benchmark, once, num_cliques):
    instance = hard_workload(num_cliques)
    classification = workload_classification(num_cliques)
    result = once(
        benchmark,
        delta_color_deterministic,
        instance.network,
        params=bench_params(),
        classification=classification,
    )
    record_result(benchmark, result)
    row = result_row(f"t={num_cliques}", result)
    row["heg_rounds"] = result.ledger.rounds_for("hard/phase1/heg")
    row["split_rounds"] = result.ledger.rounds_for("hard/phase2")
    _ROWS.append(row)


def teardown_module(module):
    if not _ROWS:
        return
    print_table(
        ["n", "Delta", "total rounds", "HEG (log n term)",
         "splitting (log n term)", "messages"],
        [
            [r["n"], r["delta"], r["rounds"], r["heg_rounds"],
             r["split_rounds"], r["messages"]]
            for r in _ROWS
        ],
        title="E1 / Theorem 1: deterministic rounds vs n (fixed Delta)",
    )
    save_artifact("e1_theorem1_scaling", _ROWS)
