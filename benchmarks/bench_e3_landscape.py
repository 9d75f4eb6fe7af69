"""E3 — Figure 1's complexity landscape, measured.

One fixed dense hard instance, every algorithm in the repository: the
greedy (Delta+1) problem sits far below; the paper's deterministic
algorithm beats the DCC-layering baseline (whose symmetry breaking pays
the DCC diameter); the randomized algorithms sit orders below the
deterministic ones, mirroring the deterministic/randomized branches of
Figure 1.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    dcc_layering_coloring,
    ghkm_randomized_coloring,
    greedy_delta_plus_one,
)
from repro.bench import (
    bench_params,
    hard_workload,
    print_table,
    record_result,
    result_row,
    save_artifact,
    workload_classification,
)
from repro.core import delta_color_deterministic, delta_color_randomized

NUM_CLIQUES = 136

_ROWS: list[dict] = []


def _instance():
    return hard_workload(NUM_CLIQUES), workload_classification(NUM_CLIQUES)


CASES = {
    "delta+1 greedy (rand)": lambda net, shared: greedy_delta_plus_one(
        net, deterministic=False, seed=0
    ),
    "delta+1 greedy (det)": lambda net, shared: greedy_delta_plus_one(net),
    "ours deterministic (Thm 1)": lambda net, shared: delta_color_deterministic(
        net, params=bench_params(), classification=shared
    ),
    "DCC layering baseline (det)": lambda net, shared: dcc_layering_coloring(
        net, params=bench_params(), classification=shared
    ),
    "ours randomized (Thm 2)": lambda net, shared: delta_color_randomized(
        net, params=bench_params(), classification=shared, seed=0
    ),
    "GHKM-style baseline (rand)": lambda net, shared: ghkm_randomized_coloring(
        net, params=bench_params(), classification=shared, seed=0
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_landscape(benchmark, once, case):
    instance, classification = _instance()
    result = once(benchmark, CASES[case], instance.network, classification)
    record_result(benchmark, result)
    _ROWS.append(result_row(case, result))


def teardown_module(module):
    if not _ROWS:
        return
    rows = sorted(_ROWS, key=lambda r: r["rounds"])
    print_table(
        ["algorithm", "colors", "rounds", "messages"],
        [
            [r["label"],
             "Delta+1" if "delta+1" in r["label"] else "Delta",
             r["rounds"], r["messages"]]
            for r in rows
        ],
        title=f"E3 / Figure 1 landscape (n={rows[0]['n']}, Delta={rows[0]['delta']})",
    )
    save_artifact("e3_landscape", rows)
