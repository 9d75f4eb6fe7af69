"""The Figure 1 scenario: where does Delta-coloring sit?

The paper motivates Delta-coloring as the natural problem strictly
between the greedy regime ((Delta+1)-coloring, Theta(log* n)) and the
global regime.  This example runs every algorithm in the repository on
one dense hard instance and prints the measured landscape: greedy far
below, the paper's deterministic algorithm beating the DCC baseline,
and the randomized algorithms exponentially below the deterministic
ones.

Run:  python examples/complexity_landscape.py
"""

from __future__ import annotations

from repro import AlgorithmParameters, compute_acd, generators
from repro.baselines import (
    dcc_layering_coloring,
    ghkm_randomized_coloring,
    greedy_delta_plus_one,
)
from repro.bench import print_table
from repro.core import (
    classify_cliques,
    delta_color_deterministic,
    delta_color_randomized,
)


def main() -> None:
    params = AlgorithmParameters(epsilon=1.0 / 8.0)
    instance = generators.hard_clique_graph(num_cliques=68, delta=32, seed=1)
    # Line 1 of Algorithm 1 (ACD + hard/easy split) depends only on the
    # graph and epsilon: compute it once for all four Delta-colorings.
    shared = classify_cliques(
        instance.network, compute_acd(instance.network, epsilon=params.epsilon)
    )
    print(f"instance: {instance.describe()}")

    runs = [
        ("(Delta+1) greedy, randomized",
         greedy_delta_plus_one(instance.network, deterministic=False, seed=0)),
        ("(Delta+1) greedy, deterministic",
         greedy_delta_plus_one(instance.network)),
        ("Delta-coloring, ours randomized (Thm 2)",
         delta_color_randomized(instance.network, params=params,
                                classification=shared, seed=0)),
        ("Delta-coloring, GHKM-style baseline",
         ghkm_randomized_coloring(instance.network, params=params,
                                  classification=shared, seed=0)),
        ("Delta-coloring, ours deterministic (Thm 1)",
         delta_color_deterministic(instance.network, params=params,
                                   classification=shared)),
        ("Delta-coloring, DCC baseline",
         dcc_layering_coloring(instance.network, params=params,
                               classification=shared)),
    ]
    rows = [
        [label, result.num_colors, result.rounds, result.messages]
        for label, result in sorted(runs, key=lambda x: x[1].rounds)
    ]
    print_table(
        ["algorithm", "colors", "LOCAL rounds", "messages"],
        rows,
        title="Measured complexity landscape (cf. Figure 1)",
    )
    print("Reading: one color fewer costs substantially more rounds in "
          "both regimes, and randomization buys an order of magnitude — "
          "the structure of the paper's Figure 1.  (At fixed laptop-scale "
          "n the DCC baseline's totals can beat Theorem 1's: the paper's "
          "deterministic advantage is asymptotic in n; see EXPERIMENTS.md "
          "E3/E3b.)")


if __name__ == "__main__":
    main()
