"""E6 — Lemmas 15/16 and Figures 2/3: slack triads and the pair graph.

Counts triads (one per Type-I+ clique, vertex-disjoint), measures the
slack-pair conflict graph G_V's maximum degree against the Lemma 16
bound Delta - 2, and exports a Figure 2/3-style artifact (the triads
plus G_V's edges) for plotting.
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
from repro.core import (
    build_pair_conflict_graph,
    compute_balanced_matching,
    form_slack_triads,
    sparsify_matching,
)
from repro.local import RoundLedger
from repro.verify import check_lemma15, check_lemma16

_ROWS: list[dict] = []


@pytest.mark.parametrize("num_cliques", [68, 136, 272])
def test_triads_and_virtual_degree(benchmark, once, num_cliques):
    instance = hard_workload(num_cliques)
    classification = workload_classification(num_cliques)
    params = bench_params()

    def run():
        ledger = RoundLedger()
        balanced = compute_balanced_matching(
            instance.network, classification, params=params, ledger=ledger
        )
        sparsified = sparsify_matching(
            instance.network, classification, balanced,
            params=params, ledger=ledger,
        )
        triads, stats = form_slack_triads(
            instance.network, classification, sparsified,
            params=params, ledger=ledger,
        )
        return triads, stats

    triads, stats = once(benchmark, run)
    check_lemma15(instance.network, classification, triads)
    gv_degree = check_lemma16(instance.network, triads, instance.delta)
    virtual = build_pair_conflict_graph(instance.network, triads)
    row = {
        "label": f"t={num_cliques}",
        "triads": len(triads),
        "pair_vertices_worst": stats["worst_pair_vertices_per_clique"],
        "gv_nodes": virtual.n,
        "gv_edges": virtual.edge_count,
        "gv_max_degree": gv_degree,
        "lemma16_bound": instance.delta - 2,
    }
    _ROWS.append(row)
    if num_cliques == 68:
        save_artifact(
            "e6_figure2_3_structures",
            {
                "triads": [
                    {"clique": t.clique, "slack": t.slack, "pair": t.pair}
                    for t in triads
                ],
                "virtual_edges": virtual.edges(),
            },
        )


def teardown_module(module):
    if not _ROWS:
        return
    print_table(
        ["case", "triads", "worst pair-vertices/clique", "G_V nodes",
         "G_V edges", "G_V max degree", "Lemma 16 bound"],
        [
            [r["label"], r["triads"], r["pair_vertices_worst"],
             r["gv_nodes"], r["gv_edges"], r["gv_max_degree"],
             r["lemma16_bound"]]
            for r in _ROWS
        ],
        title="E6 / Lemmas 15-16, Figures 2-3: triads and G_V",
    )
    save_artifact("e6_triads_virtual_degree", _ROWS)
