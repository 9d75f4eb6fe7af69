"""E3b — The DCC barrier: loophole diameter vs round complexity.

Section 1.1 argues prior deterministic approaches are stuck because
their degree-choosable components have non-constant diameter and the
symmetry breaking between DCCs pays that diameter multiplicatively.
This experiment varies the *clique-graph girth* — girth-4 circulants
(shortest lifted loophole: 8 vertices) vs girth-6 projective planes
(12 vertices) — at matched n and Delta: the DCC baseline's rounds grow
with the loophole diameter and cross over our algorithm, whose
slack-triad machinery only ever touches constant-radius structures.
"""

from __future__ import annotations

import pytest

from repro.acd import compute_acd
from repro.baselines import dcc_layering_coloring
from repro.bench import print_table, record_result, save_artifact
from repro.constants import AlgorithmParameters
from repro.core import classify_cliques, delta_color_deterministic
from repro.graphs import hard_clique_graph, projective_plane_clique_graph

PARAMS = AlgorithmParameters(epsilon=1.0 / 8.0)
Q = 13  # Delta = 14, 366 cliques, n = 5124

_ROWS: list[dict] = []


def _instances():
    girth6 = projective_plane_clique_graph(Q)
    girth4 = hard_clique_graph(girth6.num_cliques, Q + 1, seed=1)
    return {"girth-4 (circulant)": girth4, "girth-6 (PG(2,13))": girth6}


@pytest.mark.parametrize("family", sorted(_instances()))
@pytest.mark.parametrize("algorithm", ["ours (Thm 1)", "DCC baseline"])
def test_girth_barrier(benchmark, once, family, algorithm):
    instance = _instances()[family]
    classification = classify_cliques(
        instance.network, compute_acd(instance.network, epsilon=PARAMS.epsilon)
    )
    if algorithm == "ours (Thm 1)":
        result = once(
            benchmark, delta_color_deterministic, instance.network,
            params=PARAMS, classification=classification,
        )
        dcc_size = "-"
    else:
        result = once(
            benchmark, dcc_layering_coloring, instance.network,
            params=PARAMS, classification=classification,
        )
        dcc_size = result.stats["max_dcc_size"]
    record_result(benchmark, result)
    _ROWS.append(
        {
            "family": family,
            "algorithm": algorithm,
            "n": instance.n,
            "delta": instance.delta,
            "dcc_size": dcc_size,
            "rounds": result.rounds,
        }
    )


def teardown_module(module):
    if not _ROWS:
        return
    rows = sorted(_ROWS, key=lambda r: (r["family"], r["algorithm"]))
    print_table(
        ["clique-graph family", "algorithm", "n", "Delta",
         "max DCC size", "rounds"],
        [
            [r["family"], r["algorithm"], r["n"], r["delta"],
             r["dcc_size"], r["rounds"]]
            for r in rows
        ],
        title="E3b: the DCC barrier — loophole diameter vs rounds",
    )
    save_artifact("e3b_girth", rows)
