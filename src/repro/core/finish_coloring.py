"""Phase 4B — Coloring the remaining hard vertices (Section 3.7, Lemma 17).

After the slack pairs are same-colored, two (deg+1)-list coloring
instances finish every hard clique:

1. ``V_rest``: hard vertices not in any slack triad whose neighbors all
   lie in hard cliques.  Every such vertex has an uncolored neighbor
   outside the instance — the clique's slack vertex (Type I+) or a
   clique-mate with an easy-clique neighbor (Type II) — so its list
   exceeds its instance degree.

   (The paper's prose defines ``V_rest`` as the vertices that *have* a
   neighbor outside the hard cliques; the proof of Lemma 17 requires the
   complement, which is what we implement — see DESIGN.md.)

2. The rest: slack vertices (two same-colored neighbors grant one unit
   of slack) and vertices with an uncolored easy-clique neighbor.

Both instances' list sizes are validated, so a violated slack argument
fails loudly rather than producing an improper coloring.
"""

from __future__ import annotations

import random
from typing import MutableSequence, Sequence

from repro.core.hardness import Classification
from repro.core.triads import SlackTriad
from repro.errors import InvariantViolation
from repro.local.ledger import RoundLedger
from repro.local.network import Network
from repro.obs.metrics import metric_observe
from repro.obs.spans import span
from repro.subroutines.deg_list_coloring import (
    deg_plus_one_list_coloring,
    randomized_list_coloring,
)

__all__ = ["color_instance", "finish_hard_cliques"]


def color_instance(
    network: Network,
    vertices: Sequence[int],
    colors: MutableSequence[int | None],
    palette: Sequence[int],
    *,
    label: str,
    ledger: RoundLedger,
    deterministic: bool = True,
    seed: int | None = None,
) -> None:
    """One (deg+1)-list coloring instance over the given uncolored vertices.

    Lists are the palette minus the colors of already-colored neighbors
    in the full graph; results are written into ``colors``.
    """
    vertices = [v for v in vertices if colors[v] is None]
    if not vertices:
        return
    metric_observe("instance.size", len(vertices))
    with span(label, ledger=ledger):
        sub, mapping = network.subnetwork(vertices, name=label)
        palette = list(palette)
        lists = []
        for v in mapping:
            forbidden = {
                colors[u]
                for u in network.adjacency[v]
                if colors[u] is not None
            }
            lists.append([c for c in palette if c not in forbidden])
        for index, v in enumerate(mapping):
            if len(lists[index]) <= sub.degree(index):
                raise InvariantViolation(
                    f"{label}: vertex {v} has {len(lists[index])} available "
                    f"colors but instance degree {sub.degree(index)}; the "
                    "slack argument of Lemma 17 failed"
                )
        if deterministic:
            chosen, result = deg_plus_one_list_coloring(sub, lists)
        else:
            chosen, result = randomized_list_coloring(sub, lists, seed=seed)
        ledger.charge_result(label, result)
        for index, v in enumerate(mapping):
            colors[v] = chosen[index]


def finish_hard_cliques(
    network: Network,
    classification: Classification,
    triads: Sequence[SlackTriad],
    colors: MutableSequence[int | None],
    palette: Sequence[int],
    *,
    ledger: RoundLedger | None = None,
    deterministic: bool = True,
    seed: int | None = None,
) -> None:
    """Run the two Lemma 17 instances, mutating ``colors``."""
    if ledger is None:
        ledger = RoundLedger()
    rng = random.Random(seed)
    hard_vertices = classification.hard_vertices()
    triad_vertices = {v for triad in triads for v in triad.vertices}

    v_rest = [
        v
        for v in sorted(hard_vertices)
        if v not in triad_vertices
        and colors[v] is None
        and hard_vertices.issuperset(network.adjacency[v])
    ]
    color_instance(
        network, v_rest, colors, palette,
        label="hard/phase4b/v-rest", ledger=ledger,
        deterministic=deterministic, seed=rng.randrange(2 ** 32),
    )

    remaining = [v for v in sorted(hard_vertices) if colors[v] is None]
    color_instance(
        network, remaining, colors, palette,
        label="hard/phase4b/remaining", ledger=ledger,
        deterministic=deterministic, seed=rng.randrange(2 ** 32),
    )
