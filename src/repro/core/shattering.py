"""Pre-shattering — random T-node placement (Section 4, after [GHKM21]).

Hard cliques repeatedly try to acquire a *T-node* (a slack triad): in
each iteration, every clique without one draws a random candidate — a
member ``u`` with an external neighbor ``w`` in another hard clique plus
a clique-mate ``v`` non-adjacent to ``w`` (Lemma 9, property 3
guarantees one) — and activates it with constant probability ``p``.
Activated candidates die when they share a vertex with another activated
or committed triad, or when their pairs are adjacent (the exact
conditions under which same-coloring both pairs with the reserved color
0 would be improper).  Survivors commit: their pair is colored 0 and
never revoked.

For the shattering guarantee the per-clique failure probability must
drop below ~1/Delta (so bad cliques do not percolate in the clique
graph); a constant number of iterations suffices for constant degree,
and ``O(log Delta)`` iterations in general — each iteration is O(1)
LOCAL rounds, all charged.  The resulting bad-clique component sizes are
the shattering statistic of experiment E2.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.acd.decomposition import ACD
from repro.core.hardness import Classification
from repro.core.triads import SlackTriad
from repro.errors import InvariantViolation
from repro.local.ledger import RoundLedger
from repro.local.network import Network

#: LOCAL rounds per placement iteration: candidate draw, activation
#: announcement, knockout, commit.
ITERATION_ROUNDS = 3

__all__ = ["ITERATION_ROUNDS", "ShatteringResult", "place_t_nodes"]


@dataclass
class ShatteringResult:
    """Committed T-nodes and the bad-clique components."""

    triads: list[SlackTriad]
    good: list[int]
    bad: list[int]
    #: connected components of bad cliques (lists of clique indices).
    components: list[list[int]]
    stats: dict = field(default_factory=dict)


def place_t_nodes(
    network: Network,
    classification: Classification,
    *,
    rng: random.Random,
    activation_probability: float = 1.0 / 3.0,
    max_iterations: int | None = None,
    target_bad_fraction: float | None = None,
    ledger: RoundLedger | None = None,
) -> ShatteringResult:
    """Iterated random T-node placement over the hard cliques."""
    if not 0 < activation_probability <= 1:
        raise InvariantViolation("activation probability must be in (0, 1]")
    if ledger is None:
        ledger = RoundLedger()
    delta = max(network.max_degree, 2)
    if max_iterations is None:
        max_iterations = max(8, math.ceil(6 * math.log2(delta)))
    if target_bad_fraction is None:
        target_bad_fraction = 1.0 / (2.0 * delta)

    acd = classification.acd
    hard = set(classification.hard)
    options = {
        index: _external_options(network, acd, index, hard)
        for index in classification.hard
    }

    committed: dict[int, SlackTriad] = {}
    committed_vertices: set[int] = set()
    committed_pair_region: set[int] = set()  # pairs plus their neighborhoods
    hopeless: set[int] = set()  # cliques bordering only easy cliques
    iterations = 0

    def pending() -> list[int]:
        return [
            index
            for index in classification.hard
            if index not in committed and index not in hopeless
        ]

    while pending() and iterations < max_iterations:
        iterations += 1
        candidates: dict[int, SlackTriad] = {}
        for index in pending():
            triad = _draw_candidate(
                network, acd.cliques[index], index, options[index], rng
            )
            if triad is None:
                hopeless.add(index)
            elif rng.random() < activation_probability:
                candidates[index] = triad

        # Knockout against committed triads (asymmetric: the newcomer
        # dies) and among this iteration's activations (symmetric).
        alive = {
            index: triad
            for index, triad in candidates.items()
            if not (set(triad.vertices) & committed_vertices)
            and not (set(triad.pair) & committed_pair_region)
        }
        items = sorted(alive.items())
        regions = {
            index: _pair_region(network, triad) for index, triad in items
        }
        dead: set[int] = set()
        for i, (index_a, triad_a) in enumerate(items):
            vertices_a = set(triad_a.vertices)
            for index_b, triad_b in items[i + 1:]:
                if vertices_a & set(triad_b.vertices) or (
                    regions[index_a] & set(triad_b.pair)
                ):
                    dead.add(index_a)
                    dead.add(index_b)
        for index, triad in items:
            if index in dead:
                continue
            committed[index] = triad
            committed_vertices.update(triad.vertices)
            committed_pair_region.update(regions[index])

        bad_fraction = (
            len(pending()) / len(classification.hard)
            if classification.hard
            else 0.0
        )
        if bad_fraction <= target_bad_fraction:
            break
    ledger.charge("preshatter/t-nodes", ITERATION_ROUNDS * max(iterations, 1))

    survivors = [committed[index] for index in sorted(committed)]
    good = sorted(committed)
    good_set = set(good)
    bad = [index for index in classification.hard if index not in good_set]

    components = _bad_components(network, classification, bad)
    sizes = sorted((len(c) for c in components), reverse=True)
    return ShatteringResult(
        triads=survivors,
        good=good,
        bad=bad,
        components=components,
        stats={
            "hard_cliques": len(classification.hard),
            "iterations": iterations,
            "good": len(good),
            "bad": len(bad),
            "hopeless": len(hopeless),
            "num_components": len(components),
            "component_sizes": sizes,
            "max_component": sizes[0] if sizes else 0,
        },
    )


def _external_options(
    network: Network, acd: ACD, index: int, hard: set[int]
) -> list[tuple[int, int]]:
    """The clique's T-node slack choices: ``(u, w)`` with ``u`` a member
    and ``w`` a neighbor of ``u`` in another hard clique."""
    clique_index = acd.clique_index
    return [
        (u, w)
        for u in acd.cliques[index]
        for w in network.adjacency[u]
        if clique_index[w] != index and clique_index[w] in hard
    ]


def _draw_candidate(
    network: Network,
    members: list[int],
    index: int,
    options: list[tuple[int, int]],
    rng: random.Random,
) -> SlackTriad | None:
    """One random candidate triad for a clique from its
    :func:`_external_options`, or None if it has none."""
    if not options:
        return None
    u, w = options[rng.randrange(len(options))]
    nw = network.neighbor_set(w)
    mates = [v for v in members if v != u and v not in nw]
    if not mates:
        raise InvariantViolation(
            f"clique {index}: external neighbor {w} is adjacent to every "
            "other member, violating Lemma 9 property 3"
        )
    v = mates[rng.randrange(len(mates))]
    return SlackTriad(clique=index, slack=u, pair=(w, v))


def _pair_region(network: Network, triad: SlackTriad) -> set[int]:
    region = set(triad.pair)
    for x in triad.pair:
        region.update(network.adjacency[x])
    return region


def _bad_components(
    network: Network, classification: Classification, bad: list[int]
) -> list[list[int]]:
    """Connected components of bad cliques under clique adjacency."""
    acd = classification.acd
    bad_set = set(bad)
    parent = {index: index for index in bad}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for index in bad:
        for v in acd.cliques[index]:
            for u in network.adjacency[v]:
                other = acd.clique_index[u]
                if other in bad_set and other != index:
                    ra, rb = find(index), find(other)
                    if ra != rb:
                        parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for index in bad:
        groups.setdefault(find(index), []).append(index)
    return [sorted(group) for group in groups.values()]
