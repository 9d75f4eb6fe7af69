"""Randomized baseline in the [GHKM21] style.

The state-of-the-art randomized algorithm before this paper shatters
with T-nodes exactly as Theorem 2 does, but colors the leftover
components with a *suboptimal* deterministic routine of cost
``O(log^2 N)`` on size-``N`` components — the step the paper replaces.
This baseline mirrors that: identical pre-shattering and layering, but
components are colored with the DCC-layering approach (loopholes of
diameter up to the component's own clique-cycle length) instead of the
paper's balanced-matching machinery.  Experiment E3 compares the two
post-shattering costs directly.
"""

from __future__ import annotations

import random

from repro.baselines.dcc_layering import lifted_clique_cycle
from repro.constants import AlgorithmParameters, PAPER_PARAMETERS
from repro.core.deterministic import dense_setup, finish_result
from repro.core.easy_coloring import color_easy_and_loopholes
from repro.core.hardness import Classification
from repro.core.loopholes import Loophole, boundary_loophole
from repro.core.randomized import finish_shattered, preshatter
from repro.errors import GraphStructureError
from repro.local.ledger import RoundLedger
from repro.local.network import Network
from repro.types import ColoringResult

__all__ = ["ghkm_randomized_coloring"]


def ghkm_randomized_coloring(
    network: Network,
    *,
    params: AlgorithmParameters = PAPER_PARAMETERS,
    seed: int | None = None,
    activation_probability: float = 1.0 / 3.0,
    classification: Classification | None = None,
    validate_input: bool = True,
    verify: bool = True,
) -> ColoringResult:
    """Randomized Delta-coloring with the pre-paper post-shattering."""
    rng = random.Random(seed)
    setup = dense_setup(
        network, params=params, classification=classification,
        validate_input=validate_input,
    )
    classification, colors = setup.classification, setup.colors

    shattering = preshatter(
        network, classification, colors, rng=rng, ledger=setup.ledger,
        activation_probability=activation_probability, max_iterations=2,
    )
    bad_cliques, component_sizes = finish_shattered(
        network, classification, shattering.triads, colors, setup.palette,
        params=params, rng=rng, ledger=setup.ledger,
        colorer=_color_component_dcc, prefix="post-shattering-dcc",
    )

    stats = {
        "delta": setup.delta,
        "n": network.n,
        "shattering": shattering.stats,
        "bad_cliques": len(bad_cliques),
        "components": component_sizes,
        "easy_phase": color_easy_and_loopholes(
            network, classification, colors, setup.palette,
            params=params, ledger=setup.ledger, deterministic=False,
            seed=rng.randrange(2 ** 32),
        ),
    }
    return finish_result(
        network, setup, algorithm="ghkm-randomized-baseline",
        stats=stats, verify=verify,
    )


def _color_component_dcc(
    network: Network,
    classification: Classification,
    component: list[int],
    colors: list[int | None],
    palette: list[int],
    *,
    params: AlgorithmParameters,
    ledger: RoundLedger,
) -> None:
    """Color one bad component via DCC layering: boundary vertices (with
    an uncolored neighbor outside) or lifted clique cycles serve as the
    degree-choosable components."""
    acd = classification.acd
    component_vertices = {
        v for index in component for v in acd.cliques[index]
    }
    loopholes: dict[int, Loophole] = {}
    max_diameter = 1
    for index in component:
        boundary = boundary_loophole(
            network, acd.cliques[index], colors, component_vertices
        )
        if boundary is not None:
            loopholes[index] = boundary
            continue
        cycle = lifted_clique_cycle(network, acd, index)
        if cycle is not None and (
            not set(cycle.vertices) <= component_vertices
            or any(colors[v] is not None for v in cycle.vertices)
        ):
            cycle = None
        if cycle is None:
            raise GraphStructureError(
                f"component clique {index} has neither a boundary vertex "
                "nor an uncolored lifted cycle; the DCC baseline cannot "
                "color it"
            )
        loopholes[index] = cycle
        max_diameter = max(max_diameter, len(cycle.vertices) // 2)
    local = Classification(
        acd=acd,
        hard=[],
        easy=list(component),
        reasons={index: "dcc" for index in component},
        loopholes=loopholes,
    )
    ledger.charge("dcc/detection", max_diameter)
    color_easy_and_loopholes(
        network, local, colors, palette,
        params=params, ledger=ledger,
        restrict_to=sorted(component_vertices),
    )
