"""One-shot demonstration at the paper's exact constants.

Builds a Delta = 63 hard instance (the smallest Delta where
epsilon = 1/63 admits non-trivial dense graphs), runs Theorem 1 and
Theorem 2, and prints the full story: classification, Lemma numbers,
round breakdowns, and the deterministic/randomized separation.

Run:  python scripts/run_paper_scale.py [num_cliques]
"""

from __future__ import annotations

import sys
import time

from repro import PAPER_PARAMETERS, compute_acd, generators, verify_coloring
from repro.core import (
    classify_cliques,
    delta_color_deterministic,
    delta_color_randomized,
)


def main() -> None:
    num_cliques = int(sys.argv[1]) if len(sys.argv) > 1 else 130
    print(f"building Delta=63 hard instance with {num_cliques} cliques...")
    started = time.time()
    instance = generators.hard_clique_graph(num_cliques, 63, seed=1)
    acd = compute_acd(instance.network)
    print(f"  {instance.describe()}, "
          f"{instance.network.edge_count} edges, "
          f"ACD: {acd.num_cliques} cliques / {len(acd.sparse)} sparse "
          f"({time.time() - started:.1f}s)\n")
    classification = classify_cliques(instance.network, acd)

    started = time.time()
    det = delta_color_deterministic(
        instance.network, params=PAPER_PARAMETERS,
        classification=classification,
    )
    verify_coloring(instance.network, det.colors, 63)
    print(f"Theorem 1 (deterministic): {det.rounds} LOCAL rounds "
          f"({time.time() - started:.1f}s wall)")
    phase1 = det.stats["phase1"]
    print(f"  Lemma 11: delta_H = {phase1['min_degree_H']}, "
          f"r_H = {phase1['rank_H']} "
          f"(ratio {phase1['heg_ratio']:.2f}, q_eff = "
          f"{phase1['subclique_count_effective']})")
    print(f"  Lemma 13: worst incoming {det.stats['phase2']['worst_incoming']} "
          f"< bound {det.stats['phase2']['incoming_bound']:.1f}")
    print(f"  Lemma 16: G_V max degree {det.stats['phase4a']['gv_max_degree']} "
          f"<= {63 - 2}")
    for phase, rounds in sorted(det.phase_rounds().items()):
        print(f"    {phase:<12} {rounds:>7} rounds")

    started = time.time()
    rand = delta_color_randomized(
        instance.network, params=PAPER_PARAMETERS,
        classification=classification, seed=0
    )
    verify_coloring(instance.network, rand.colors, 63)
    shattering = rand.stats["shattering"]
    print(f"\nTheorem 2 (randomized): {rand.rounds} LOCAL rounds "
          f"({time.time() - started:.1f}s wall)")
    print(f"  T-nodes: {shattering['good']} of "
          f"{shattering['hard_cliques']} cliques; "
          f"bad cliques: {shattering['bad_cliques']}, "
          f"max component: {shattering['max_component']}")

    print(f"\nseparation: deterministic / randomized = "
          f"{det.rounds / rand.rounds:.1f}x "
          "(the Figure 1 gap, measured)")


if __name__ == "__main__":
    main()
