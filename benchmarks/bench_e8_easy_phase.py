"""E8 — Lemma 20 / Algorithm 3: the easy-clique and loophole phase.

Measures, on instances with growing easy fractions: loophole counts,
ruling-set sizes, BFS layer depth (the paper fixes 25 layers; our
unbounded layering should stay far below), and the phase's rounds.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    bench_params,
    mixed_workload,
    print_table,
    record_result,
    save_artifact,
    workload_classification,
)
from repro.constants import PAPER_BFS_DEPTH
from repro.core import delta_color_deterministic

_ROWS: list[dict] = []


@pytest.mark.parametrize("easy_fraction", [0.1, 0.25, 0.5, 1.0])
def test_easy_phase(benchmark, once, easy_fraction):
    num_cliques = 136
    instance = mixed_workload(num_cliques, easy_fraction=easy_fraction)
    classification = workload_classification(num_cliques, easy_fraction=easy_fraction)
    result = once(
        benchmark,
        delta_color_deterministic,
        instance.network,
        params=bench_params(),
        classification=classification,
    )
    record_result(benchmark, result)
    easy = result.stats["easy_phase"]
    row = {
        "label": f"easy={easy_fraction:.0%}",
        "loopholes": easy["loopholes"],
        "selected": easy["selected"],
        "layers": easy["layers"],
        "paper_depth": PAPER_BFS_DEPTH,
        "easy_rounds": result.ledger.rounds_for("easy"),
        "total_rounds": result.rounds,
    }
    _ROWS.append(row)
    assert easy["layers"] <= PAPER_BFS_DEPTH


def teardown_module(module):
    if not _ROWS:
        return
    print_table(
        ["case", "loopholes", "ruling set", "BFS layers",
         "paper's layer budget", "easy rounds", "total rounds"],
        [
            [r["label"], r["loopholes"], r["selected"], r["layers"],
             r["paper_depth"], r["easy_rounds"], r["total_rounds"]]
            for r in _ROWS
        ],
        title="E8 / Lemma 20: easy-clique phase",
    )
    save_artifact("e8_easy_phase", _ROWS)
