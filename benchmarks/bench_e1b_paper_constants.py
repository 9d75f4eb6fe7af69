"""E1b — Theorems 1/2 with the paper's exact constants.

Runs the full pipelines at epsilon = 1/63 on Delta = 63 instances (the
smallest Delta where the paper's epsilon admits non-trivial dense
graphs — remark below Definition 4) across an n-doubling sweep,
deterministic and randomized side by side.
"""

from __future__ import annotations

import pytest

from repro.acd import compute_acd
from repro.bench import print_table, record_result, save_artifact
from repro.constants import PAPER_PARAMETERS
from repro.core import (
    classify_cliques,
    delta_color_deterministic,
    delta_color_randomized,
)
from repro.graphs import hard_clique_graph

_ROWS: list[dict] = []
_CACHE: dict[int, tuple] = {}


def _setup(num_cliques: int):
    if num_cliques not in _CACHE:
        instance = hard_clique_graph(num_cliques, 63, seed=1)
        acd = compute_acd(instance.network)
        _CACHE[num_cliques] = (instance, classify_cliques(instance.network, acd))
    return _CACHE[num_cliques]


@pytest.mark.parametrize("num_cliques", [130, 260])
@pytest.mark.parametrize("method", ["deterministic", "randomized"])
def test_paper_constants(benchmark, once, num_cliques, method):
    instance, classification = _setup(num_cliques)
    if method == "deterministic":
        result = once(
            benchmark, delta_color_deterministic, instance.network,
            params=PAPER_PARAMETERS, classification=classification,
        )
    else:
        result = once(
            benchmark, delta_color_randomized, instance.network,
            params=PAPER_PARAMETERS, classification=classification, seed=0,
        )
    record_result(benchmark, result)
    row = {
        "label": f"{method} t={num_cliques}",
        "n": instance.n,
        "rounds": result.rounds,
        "messages": result.messages,
    }
    if method == "deterministic":
        row["q_eff"] = result.stats["phase1"]["subclique_count_effective"]
        row["heg_ratio"] = round(result.stats["phase1"]["heg_ratio"], 2)
        assert result.stats["phase2"]["incoming_bound_satisfied"]
    else:
        row["q_eff"] = "-"
        row["heg_ratio"] = "-"
    _ROWS.append(row)


def teardown_module(module):
    if not _ROWS:
        return
    print_table(
        ["case", "n", "rounds", "messages", "q_eff", "delta_H/r_H"],
        [
            [r["label"], r["n"], r["rounds"], r["messages"], r["q_eff"],
             r["heg_ratio"]]
            for r in sorted(_ROWS, key=lambda x: (x["label"]))
        ],
        title="E1b / Theorems 1-2 at the paper constants (eps=1/63, Delta=63)",
    )
    save_artifact("e1b_paper_constants", _ROWS)
