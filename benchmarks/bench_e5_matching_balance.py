"""E5 — Lemmas 12/13: the F1 -> F2 -> F3 matching cascade.

Measures, per stage: matching size, per-clique outgoing (>= q for Type I
in F2, exactly 2 in F3) and incoming (below the Lemma 13 bound) edges,
and the repair/trim counts of the verified splitter.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    bench_params,
    hard_workload,
    print_table,
    save_artifact,
    workload_classification,
)
from repro.core import compute_balanced_matching, sparsify_matching
from repro.core.sparsify_phase import incoming_bound
from repro.local import RoundLedger

_ROWS: list[dict] = []


@pytest.mark.parametrize("num_cliques", [68, 136, 272])
def test_matching_cascade(benchmark, once, num_cliques):
    instance = hard_workload(num_cliques)
    classification = workload_classification(num_cliques)
    acd = classification.acd
    params = bench_params()
    clique_of = {
        v: index
        for index in classification.hard
        for v in acd.cliques[index]
    }

    def run():
        ledger = RoundLedger()
        balanced = compute_balanced_matching(
            instance.network, classification, params=params, ledger=ledger
        )
        sparsified = sparsify_matching(
            instance.network, classification, balanced,
            params=params, ledger=ledger,
        )
        return balanced, sparsified

    balanced, sparsified = once(benchmark, run)
    outgoing_f2 = balanced.outgoing_per_clique(clique_of)
    incoming_f2 = balanced.incoming_per_clique(clique_of)
    outgoing_f3: dict[int, int] = {}
    incoming_f3: dict[int, int] = {}
    for tail, head in sparsified.edges:
        outgoing_f3[clique_of[tail]] = outgoing_f3.get(clique_of[tail], 0) + 1
        incoming_f3[clique_of[head]] = incoming_f3.get(clique_of[head], 0) + 1

    row = {
        "label": f"t={num_cliques}",
        "f1": len(balanced.f1),
        "f2": len(balanced.edges),
        "f3": len(sparsified.edges),
        "q_eff": balanced.stats["subclique_count_effective"],
        "min_out_f2": min(outgoing_f2.values()),
        "max_in_f2": max(incoming_f2.values(), default=0),
        "out_f3": sorted(set(outgoing_f3.values())),
        "max_in_f3": max(incoming_f3.values(), default=0),
        "in_bound": round(incoming_bound(instance.delta, params.epsilon), 1),
        "repairs": sparsified.stats["repairs"],
        "trimmed": sparsified.stats["trimmed"],
    }
    _ROWS.append(row)
    assert row["min_out_f2"] >= row["q_eff"]
    assert row["out_f3"] == [2]
    assert row["max_in_f3"] < row["in_bound"]


def teardown_module(module):
    if not _ROWS:
        return
    print_table(
        ["case", "|F1|", "|F2|", "|F3|", "q_eff", "min out F2",
         "max in F2", "out F3", "max in F3", "Lemma13 bound",
         "repairs", "trimmed"],
        [
            [r["label"], r["f1"], r["f2"], r["f3"], r["q_eff"],
             r["min_out_f2"], r["max_in_f2"], r["out_f3"], r["max_in_f3"],
             r["in_bound"], r["repairs"], r["trimmed"]]
            for r in _ROWS
        ],
        title="E5 / Lemmas 12-13: matching cascade",
    )
    save_artifact("e5_matching_balance", _ROWS)
