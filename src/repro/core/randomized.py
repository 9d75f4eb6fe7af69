"""Algorithm 4 — randomized Delta-coloring of dense graphs (Theorem 2).

Structure (Section 4):

1. Large Delta (``Delta = omega(log^21 n)`` in the paper): a slack
   triad succeeds in every hard clique after O(1) expected retries, so
   repeated pre-shattering colors everything without components — our
   stand-in for the [FHM23] O(log* n) branch (see DESIGN.md).
2. Otherwise: pre-shattering places random T-nodes (color 0 on their
   pairs), the *bad* cliques shatter into small components, and each
   component runs the modified deterministic algorithm in parallel:

   * component-local classification with the extended *boundary*
     loopholes (vertices with an uncolored neighbor outside the
     component),
   * Phases 1–3 with colored vertices marked unusable (each clique
     loses at most a few proposals — Equation (1) has leeway, checked
     at runtime),
   * slack-pair coloring over the palette {1..Delta-1} so color-0
     pairs can never conflict,
   * the two Lemma 17 instances and a component-local Algorithm 3 over
     the boundary loopholes.

3. Good cliques finish globally (Lemma 17), then easy cliques and
   loopholes (Algorithm 3) — all with randomized subroutines.

Components run sequentially in the simulator but are vertex-disjoint
and independent, so the charged LOCAL cost is the *maximum* component
cost per phase, matching parallel execution.

:func:`preshatter` and :func:`finish_shattered` are the shattering
driver shared with the sparse extension (``core/sparse.py``), which
places sparse slack between the two, and with the GHKM-style baseline,
which passes its own component colorer.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from repro.constants import AlgorithmParameters, PAPER_PARAMETERS
from repro.core.deterministic import dense_setup, finish_result
from repro.core.easy_coloring import color_easy_and_loopholes
from repro.core.finish_coloring import color_instance
from repro.core.gc_pause import paused_collector
from repro.core.hardness import Classification
from repro.core.loopholes import Loophole, boundary_loophole
from repro.core.matching_phase import compute_balanced_matching
from repro.core.pair_coloring import color_slack_pairs
from repro.core.shattering import ShatteringResult, _bad_components, place_t_nodes
from repro.core.sparsify_phase import sparsify_matching
from repro.core.triads import SlackTriad, form_slack_triads
from repro.local.ledger import RoundLedger
from repro.local.network import Network
from repro.obs.metrics import metric_gauge
from repro.obs.spans import span
from repro.types import ColoringResult

__all__ = ["delta_color_randomized", "large_delta_threshold"]


def large_delta_threshold(n: int) -> float:
    """The paper's branch point is ``Delta = omega(log^21 n)``; at any
    laptop scale that never triggers, so the practical threshold below
    mirrors the *intent* (slack generation succeeds everywhere w.h.p.)
    with ``log^2 n``."""
    return math.log2(max(n, 2)) ** 2


@paused_collector
def delta_color_randomized(
    network: Network,
    *,
    params: AlgorithmParameters = PAPER_PARAMETERS,
    seed: int | None = None,
    activation_probability: float = 1.0 / 3.0,
    classification: Classification | None = None,
    force_branch: str | None = None,
    validate_input: bool = True,
    verify: bool = True,
) -> ColoringResult:
    """Delta-color a dense graph with the randomized algorithm (Theorem 2).

    ``force_branch`` can pin ``"large-delta"`` or ``"shattering"`` for
    experiments; by default the branch follows
    :func:`large_delta_threshold`.
    """
    branch = force_branch
    if branch is None:
        branch = (
            "large-delta"
            if network.max_degree >= large_delta_threshold(network.n)
            else "shattering"
        )
    if branch not in ("large-delta", "shattering"):
        raise ValueError(f"unknown branch {branch!r}")
    rng = random.Random(seed)
    setup = dense_setup(
        network, params=params, classification=classification,
        validate_input=validate_input,
    )
    ledger, palette, colors = setup.ledger, setup.palette, setup.colors
    classification = setup.classification

    stats: dict = {
        "delta": setup.delta,
        "n": network.n,
        "branch": branch,
        "hard_cliques": len(classification.hard),
        "easy_cliques": len(classification.easy),
    }

    # Both branches share the T-node + layering flow.  With large Delta
    # a denser placement makes every clique land inside the slack
    # horizon w.h.p. (no components at all — the [FHM23] substitute, see
    # DESIGN.md); otherwise components appear and are handled by the
    # modified deterministic algorithm.
    probability, max_iterations = (
        (0.5, 3) if branch == "large-delta" else (activation_probability, 2)
    )
    shattering = preshatter(
        network, classification, colors, rng=rng, ledger=ledger,
        activation_probability=probability, max_iterations=max_iterations,
    )
    stats["shattering"] = shattering.stats
    bad_cliques, component_sizes = finish_shattered(
        network, classification, shattering.triads, colors, palette,
        params=params, rng=rng, ledger=ledger,
        colorer=color_component, prefix="post-shattering",
    )
    stats["shattering"]["bad_cliques"] = len(bad_cliques)
    stats["shattering"]["num_components"] = len(component_sizes)
    stats["shattering"]["component_sizes"] = component_sizes
    stats["shattering"]["max_component"] = (
        component_sizes[0] if component_sizes else 0
    )
    if branch == "large-delta":
        # Components are not fatal — they are still colored — but they
        # mean the large-Delta precondition (slack everywhere w.h.p.)
        # did not hold at this Delta, which the stats expose.
        stats["large_delta_precondition_held"] = not component_sizes

    with span("easy", ledger=ledger):
        stats["easy_phase"] = color_easy_and_loopholes(
            network, classification, colors, palette,
            params=params, ledger=ledger, deterministic=False,
            seed=rng.randrange(2 ** 32),
        )

    return finish_result(
        network, setup, algorithm=f"randomized-delta-coloring[{branch}]",
        stats=stats, verify=verify,
    )


def preshatter(
    network: Network,
    classification: Classification,
    colors: list[int | None],
    *,
    rng: random.Random,
    ledger: RoundLedger,
    activation_probability: float,
    max_iterations: int,
) -> ShatteringResult:
    """Algorithm 4's pre-shattering: random T-nodes, whose same-colored
    pairs take color 0."""
    with span("preshatter", ledger=ledger):
        shattering = place_t_nodes(
            network, classification, rng=rng,
            activation_probability=activation_probability,
            max_iterations=max_iterations, target_bad_fraction=0.0,
            ledger=ledger,
        )
        for triad in shattering.triads:
            colors[triad.pair[0]] = 0
            colors[triad.pair[1]] = 0
    return shattering


def finish_shattered(
    network: Network,
    classification: Classification,
    triads: list[SlackTriad],
    colors: list[int | None],
    palette: list[int],
    *,
    params: AlgorithmParameters,
    rng: random.Random,
    ledger: RoundLedger,
    colorer: Callable[..., None],
    prefix: str,
) -> tuple[list[int], list[int]]:
    """Color the hard cliques after :func:`preshatter`.

    Slack propagates from the T-nodes through a constant number of BFS
    layers over the hard vertices; cliques beyond the horizon (or cut
    off once bad cliques are removed — a monotone fixpoint) form the
    shattered components.  ``colorer`` colors each component in place,
    charged under ``prefix``; then the T-node layers are colored
    outermost-first, then the slack vertices (their same-colored pair
    grants the final unit of slack).  Returns the bad cliques and the
    component sizes, largest first.
    """
    with span("preshatter", ledger=ledger):
        bad_cliques, depths, sub_mapping, fix_iterations = _shattered_cliques(
            network, classification, triads, colors,
            layer_depth=params.loophole_ruling_radius,
        )
        ledger.charge(
            "preshatter/layering-bfs",
            params.loophole_ruling_radius * max(fix_iterations, 1),
        )
        components = _bad_components(network, classification, bad_cliques)
    component_sizes = sorted((len(c) for c in components), reverse=True)
    metric_gauge("shattering.bad_cliques", len(bad_cliques))
    metric_gauge("shattering.num_components", len(components))
    metric_gauge(
        "shattering.max_component",
        component_sizes[0] if component_sizes else 0,
    )

    with span(prefix, ledger=ledger):
        worst_component_ledger: RoundLedger | None = None
        for component in components:
            component_ledger = RoundLedger()
            colorer(
                network, classification, component, colors, palette,
                params=params, ledger=component_ledger,
            )
            if (
                worst_component_ledger is None
                or component_ledger.total_rounds
                > worst_component_ledger.total_rounds
            ):
                worst_component_ledger = component_ledger
        if worst_component_ledger is not None:
            # Components are vertex-disjoint and run in parallel in the
            # LOCAL model: charge the most expensive one.
            ledger.merge(worst_component_ledger, prefix=prefix)

    with span("postprocess", ledger=ledger):
        _color_layers(
            network, depths, sub_mapping, colors, palette,
            ledger=ledger, rng=rng,
        )
        leftovers = [
            v
            for v in sorted(classification.hard_vertices())
            if colors[v] is None
        ]
        color_instance(
            network, leftovers, colors, palette,
            label="postprocess/slack-vertices", ledger=ledger,
            deterministic=False, seed=rng.randrange(2 ** 32),
        )
    return bad_cliques, component_sizes


def _shattered_cliques(
    network: Network,
    classification: Classification,
    triads: list,
    colors: list[int | None],
    *,
    layer_depth: int,
) -> tuple[list[int], list[int | None], list[int], int]:
    """Hard cliques beyond the T-node slack horizon (a monotone fixpoint).

    Returns the bad cliques, the final BFS depths over the remaining
    (good) uncolored hard vertices, the subnetwork vertex mapping those
    depths refer to, and the number of fixpoint iterations.
    """
    from repro.subroutines.bfs_layering import bfs_layers

    acd = classification.acd
    hard_vertices = classification.hard_vertices()
    slack_vertices = {t.slack for t in triads}
    excluded: set[int] = set()
    iterations = 0
    while True:
        iterations += 1
        vertices = [
            v
            for v in sorted(hard_vertices)
            if colors[v] is None and acd.clique_index[v] not in excluded
        ]
        sub, mapping = network.subnetwork(vertices, name="t-node-layers")
        position = {v: i for i, v in enumerate(mapping)}
        sources = [position[v] for v in sorted(slack_vertices) if v in position]
        depths, _ = bfs_layers(sub, sources)
        new_bad = {
            acd.clique_index[mapping[i]]
            for i, depth in enumerate(depths)
            if depth is None or depth > layer_depth
        }
        if new_bad <= excluded:
            return sorted(excluded), depths, mapping, iterations
        excluded |= new_bad


def _color_layers(
    network: Network,
    depths: list[int | None],
    mapping: list[int],
    colors: list[int | None],
    palette: list[int],
    *,
    ledger: RoundLedger,
    rng: random.Random,
) -> None:
    """Color the T-node layers outermost-first (depth 0 — the slack
    vertices — is left for the final instance)."""
    from repro.subroutines.bfs_layering import layers_to_lists

    layers = layers_to_lists(depths)
    for depth in range(len(layers) - 1, 0, -1):
        color_instance(
            network,
            [mapping[i] for i in layers[depth]],
            colors,
            palette,
            label=f"postprocess/layer-{depth}",
            ledger=ledger,
            deterministic=False,
            seed=rng.randrange(2 ** 32),
        )


def color_component(
    network: Network,
    classification: Classification,
    component: list[int],
    colors: list[int | None],
    palette: list[int],
    *,
    params: AlgorithmParameters,
    ledger: RoundLedger,
) -> None:
    """Post-shattering: the modified deterministic algorithm on one
    component of bad cliques (Section 4, Step 6)."""
    acd = classification.acd
    component_vertices = {
        v for index in component for v in acd.cliques[index]
    }

    # Extended loopholes: a vertex with an uncolored neighbor outside the
    # component keeps slack until the global finish, so its clique is
    # component-locally easy.
    local_easy: list[int] = []
    local_loopholes: dict[int, Loophole] = {}
    local_hard: list[int] = []
    for index in component:
        loophole = boundary_loophole(
            network, acd.cliques[index], colors, component_vertices
        )
        if loophole is None:
            local_hard.append(index)
        else:
            local_easy.append(index)
            local_loopholes[index] = loophole

    local = Classification(
        acd=acd,
        hard=local_hard,
        easy=local_easy,
        reasons={index: "boundary" for index in local_easy},
        loopholes=local_loopholes,
    )

    unusable = {v for v in component_vertices if colors[v] is not None}
    triads = []
    if local_hard:
        balanced = compute_balanced_matching(
            network, local, params=params, ledger=ledger,
            unusable_vertices=unusable,
        )
        sparsified = sparsify_matching(
            network, local, balanced, params=params, ledger=ledger
        )
        triads, _ = form_slack_triads(
            network, local, sparsified, params=params, ledger=ledger
        )
        pair_colors, _ = color_slack_pairs(
            network, triads, palette[1:],  # reserve color 0 for T-nodes
            existing_colors=colors, ledger=ledger,
        )
        for vertex, color in pair_colors.items():
            colors[vertex] = color

    # Lemma 17 instances, component-local.
    hard_local_vertices = {
        v for index in local_hard for v in acd.cliques[index]
    }
    triad_vertices = {v for triad in triads for v in triad.vertices}
    v_rest = [
        v
        for v in sorted(hard_local_vertices)
        if v not in triad_vertices
        and colors[v] is None
        and not any(
            colors[u] is None and u not in hard_local_vertices
            for u in network.adjacency[v]
        )
    ]
    color_instance(
        network, v_rest, colors, palette,
        label="component/v-rest", ledger=ledger,
    )
    remaining = [v for v in sorted(hard_local_vertices) if colors[v] is None]
    color_instance(
        network, remaining, colors, palette,
        label="component/remaining", ledger=ledger,
    )

    # Component-local Algorithm 3 over the boundary loopholes.
    if local_easy:
        color_easy_and_loopholes(
            network, local, colors, palette,
            params=params, ledger=ledger,
            restrict_to=sorted(component_vertices),
        )
