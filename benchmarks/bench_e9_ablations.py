"""E9 — Ablations of the paper's design choices.

Sweeps the knobs DESIGN.md calls out:

* sub-clique budget q (the paper's 28 vs smaller budgets) — fewer
  sub-cliques mean fewer outgoing F2 edges but identical correctness;
* degree-splitting accuracy epsilon' (paper: 1/100) — coarser splits
  need more repairs but cost fewer rounds;
* splitting disabled (iterations = 0) — incoming degrees blow up,
  demonstrating why Phase 2 exists (Lemma 13 -> Lemma 16);
* T-node activation probability — drives the shattering trade-off
  between pre-shattering success and component workload.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    hard_workload,
    print_table,
    record_result,
    save_artifact,
    workload_classification,
)
from repro.constants import AlgorithmParameters
from repro.core import delta_color_deterministic, delta_color_randomized

NUM_CLIQUES = 136
EPS = 1.0 / 8.0

_ROWS: list[dict] = []


@pytest.mark.parametrize("subclique_budget", [2, 4, 10, 28])
def test_subclique_budget(benchmark, once, subclique_budget):
    instance = hard_workload(NUM_CLIQUES)
    classification = workload_classification(NUM_CLIQUES)
    params = AlgorithmParameters(
        epsilon=EPS, subclique_count=subclique_budget
    )
    result = once(
        benchmark, delta_color_deterministic, instance.network,
        params=params, classification=classification,
    )
    record_result(benchmark, result)
    _ROWS.append(
        {
            "label": f"q budget={subclique_budget}",
            "rounds": result.rounds,
            "q_eff": result.stats["phase1"]["subclique_count_effective"],
            "ratio": round(result.stats["phase1"]["heg_ratio"], 2),
            "detail": f"f2={result.stats['phase2']['f2_size']}",
        }
    )


@pytest.mark.parametrize("split_epsilon", [1.0 / 100.0, 1.0 / 20.0, 1.0 / 4.0])
def test_split_accuracy(benchmark, once, split_epsilon):
    instance = hard_workload(NUM_CLIQUES)
    classification = workload_classification(NUM_CLIQUES)
    params = AlgorithmParameters(epsilon=EPS, split_epsilon=split_epsilon)
    result = once(
        benchmark, delta_color_deterministic, instance.network,
        params=params, classification=classification,
    )
    record_result(benchmark, result)
    phase2 = result.stats["phase2"]
    _ROWS.append(
        {
            "label": f"split eps'={split_epsilon:.3f}",
            "rounds": result.rounds,
            "q_eff": result.stats["phase1"]["subclique_count_effective"],
            "ratio": round(result.stats["phase1"]["heg_ratio"], 2),
            "detail": (
                f"split_rounds={phase2['split_rounds']} "
                f"repairs={phase2['repairs']} "
                f"worst_in={phase2['worst_incoming']}"
            ),
        }
    )


def test_splitting_disabled(benchmark, once):
    """iterations=0 keeps all of F2 before trimming: incoming degrees at
    the head cliques stay high until the final trim, showing the load
    Phase 2 removes."""
    instance = hard_workload(NUM_CLIQUES)
    classification = workload_classification(NUM_CLIQUES)
    params = AlgorithmParameters(epsilon=EPS, split_iterations=0)
    result = once(
        benchmark, delta_color_deterministic, instance.network,
        params=params, classification=classification,
    )
    record_result(benchmark, result)
    phase2 = result.stats["phase2"]
    _ROWS.append(
        {
            "label": "splitting disabled",
            "rounds": result.rounds,
            "q_eff": result.stats["phase1"]["subclique_count_effective"],
            "ratio": round(result.stats["phase1"]["heg_ratio"], 2),
            "detail": (
                f"trimmed={phase2['trimmed']} "
                f"worst_in={phase2['worst_incoming']} "
                f"gv_deg={result.stats['phase4a']['gv_max_degree']}"
            ),
        }
    )


@pytest.mark.parametrize("activation", [0.05, 1.0 / 3.0, 0.8])
def test_activation_probability(benchmark, once, activation):
    instance = hard_workload(NUM_CLIQUES)
    classification = workload_classification(NUM_CLIQUES)
    result = once(
        benchmark, delta_color_randomized, instance.network,
        params=AlgorithmParameters(epsilon=EPS), classification=classification, seed=1,
        activation_probability=activation,
    )
    record_result(benchmark, result)
    shattering = result.stats["shattering"]
    _ROWS.append(
        {
            "label": f"rand p={activation:.2f}",
            "rounds": result.rounds,
            "q_eff": "-",
            "ratio": "-",
            "detail": (
                f"t-nodes={shattering['good']} "
                f"bad={shattering['bad_cliques']} "
                f"maxcomp={shattering['max_component']}"
            ),
        }
    )


def teardown_module(module):
    if not _ROWS:
        return
    print_table(
        ["ablation", "rounds", "q_eff", "delta_H/r_H", "detail"],
        [
            [r["label"], r["rounds"], r["q_eff"], r["ratio"], r["detail"]]
            for r in _ROWS
        ],
        title="E9: ablations",
    )
    save_artifact("e9_ablations", _ROWS)
