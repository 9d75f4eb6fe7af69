"""Algorithm 3 — Coloring easy cliques and loopholes (Section 3.9).

Once the hard cliques are colored, every remaining vertex sits in an
easy clique and each easy clique carries a witness loophole.  The
witness loopholes form the virtual graph ``G_L`` (nodes: loopholes;
edges: intersection or base adjacency).  A ruling set (here: an MIS,
which is a (2,1)- and hence also a 6-ruling set; see DESIGN.md) selects
pairwise non-adjacent loopholes; BFS layers the uncolored subgraph from
them, layers are colored outermost-first with (deg+1)-list instances —
every vertex keeps an uncolored neighbor one layer down — and the
selected loopholes are colored last by the exact deg-list solver of
Lemma 7.

The paper fixes 25 BFS layers; we layer the whole uncolored subgraph,
which is equivalent (the theory bounds the depth by a constant, verified
empirically in experiment E8).
"""

from __future__ import annotations

import random
from typing import MutableSequence, Sequence

from repro.constants import AlgorithmParameters, PAPER_PARAMETERS
from repro.core.finish_coloring import color_instance
from repro.core.hardness import Classification
from repro.core.loopholes import Loophole, color_loophole
from repro.errors import InvariantViolation
from repro.local.ledger import RoundLedger
from repro.local.network import Network
from repro.obs.metrics import metric_gauge
from repro.obs.spans import span
from repro.subroutines.bfs_layering import bfs_layers, layers_to_lists
from repro.subroutines.ruling_set import digit_ruling_set, ruling_set

#: Base rounds per G_L round: loopholes have diameter <= 3, so messages
#: between adjacent loopholes need at most 2*3 + 1 hops.
LOOPHOLE_ROUND_SCALE = 7

#: Digit base for the deterministic ruling set on G_L (the Lemma 19
#: rounds-vs-radius knob; the radius only stretches the BFS layering).
RULING_SET_DIGIT_BASE = 4

#: O(1) rounds for brute-forcing the constant-diameter selected loopholes.
BRUTEFORCE_ROUNDS = 3

__all__ = ["LOOPHOLE_ROUND_SCALE", "build_loophole_graph", "color_easy_and_loopholes"]


def build_loophole_graph(
    network: Network, loopholes: Sequence[Loophole]
) -> Network:
    """The virtual graph ``G_L``: loopholes, joined when they intersect
    or are adjacent in the base graph."""
    closed: list[set[int]] = []
    for loophole in loopholes:
        closure = set(loophole.vertices)
        for v in loophole.vertices:
            closure.update(network.adjacency[v])
        closed.append(closure)
    vertex_sets = [set(l.vertices) for l in loopholes]
    adjacency: list[list[int]] = [[] for _ in loopholes]
    for i in range(len(loopholes)):
        for j in range(i + 1, len(loopholes)):
            if closed[i] & vertex_sets[j]:
                adjacency[i].append(j)
                adjacency[j].append(i)
    uids = [
        min(network.uids[v] for v in loophole.vertices)
        for loophole in loopholes
    ]
    # Identical single-vertex loopholes cannot occur (one witness per
    # clique and propagation shares objects), but uids must be unique:
    # disambiguate duplicates deterministically.
    if len(set(uids)) != len(uids):
        seen: dict[int, int] = {}
        space = max(network.uids) + 1
        for index, uid in enumerate(uids):
            bump = seen.get(uid, 0)
            seen[uid] = bump + 1
            uids[index] = uid + bump * space
    # Symmetric by construction, so the structural re-check is skipped;
    # send validation stays on like on every other derived network.
    return Network(adjacency, uids, name="G_L", validate_structure=False)


def color_easy_and_loopholes(
    network: Network,
    classification: Classification,
    colors: MutableSequence[int | None],
    palette: Sequence[int],
    *,
    params: AlgorithmParameters = PAPER_PARAMETERS,
    ledger: RoundLedger | None = None,
    deterministic: bool = True,
    seed: int | None = None,
    restrict_to: Sequence[int] | None = None,
) -> dict:
    """Color every remaining vertex; returns Algorithm 3 statistics.

    ``restrict_to`` limits the phase to a vertex subset — used by the
    randomized algorithm's post-shattering, where each component colors
    only its own boundary cliques.
    """
    if ledger is None:
        ledger = RoundLedger()
    rng = random.Random(seed)
    scope = range(network.n) if restrict_to is None else sorted(set(restrict_to))
    uncolored = [v for v in scope if colors[v] is None]
    if not uncolored:
        return {"loopholes": 0, "selected": 0, "layers": 0}

    # Line 1: one witness loophole per easy clique; shared witnesses
    # (from propagation) are deduplicated.
    unique: dict[tuple[int, ...], Loophole] = {}
    for loophole in classification.loopholes.values():
        unique[loophole.vertices] = loophole
    loopholes = [unique[key] for key in sorted(unique)]
    if not loopholes:
        raise InvariantViolation(
            f"{len(uncolored)} uncolored vertices remain but no loopholes "
            "were recorded; the classification is inconsistent"
        )
    for loophole in loopholes:
        for v in loophole.vertices:
            if colors[v] is not None:
                raise InvariantViolation(
                    f"loophole vertex {v} was colored during the hard "
                    "phase; easy-clique propagation failed"
                )

    # Lines 2-3: ruling set on G_L.  Correctness needs independence
    # (selected loopholes must not touch) plus *some* domination radius
    # (the BFS layering below is unbounded), which is exactly why the
    # paper reaches for Lemma 19 here: on virtual graphs of degree up to
    # Delta^4, an MIS sweep would cost O(degree^2) classes while the
    # digit ruling set pays O(log_base(palette)) knockout phases for a
    # larger — harmless — domination radius.
    virtual = build_loophole_graph(network, loopholes)
    with span(
        "easy/ruling-set", ledger=ledger, scale=LOOPHOLE_ROUND_SCALE
    ):
        if deterministic:
            membership, _, rs_result = digit_ruling_set(
                virtual, RULING_SET_DIGIT_BASE
            )
        else:
            membership, rs_result = ruling_set(
                virtual,
                params.loophole_ruling_radius,
                deterministic=False,
                seed=rng.randrange(2 ** 32),
            )
        ledger.charge(
            "easy/ruling-set",
            rs_result.rounds * LOOPHOLE_ROUND_SCALE,
            rs_result.messages,
        )
    selected = [loopholes[i] for i in range(len(loopholes)) if membership[i]]
    metric_gauge("easy.loopholes", len(loopholes))
    metric_gauge("easy.selected_loopholes", len(selected))
    metric_gauge("easy.gl_max_degree", virtual.max_degree)

    # Line 4: BFS layering of the uncolored subgraph.
    with span("easy/bfs-layering", ledger=ledger):
        sub, mapping = network.subnetwork(uncolored, name="easy-subgraph")
        position = {v: i for i, v in enumerate(mapping)}
        sources = sorted(
            {position[v] for loophole in selected for v in loophole.vertices}
        )
        depths, bfs_result = bfs_layers(sub, sources)
        ledger.charge_result("easy/bfs-layering", bfs_result)
    if any(d is None for d in depths):
        missing = mapping[depths.index(None)]
        raise InvariantViolation(
            f"uncolored vertex {missing} is unreachable from every "
            "selected loophole; the easy phase cannot color it"
        )
    layers = layers_to_lists(depths)

    # Lines 5-7: color layers outermost-first.
    for depth in range(len(layers) - 1, 0, -1):
        color_instance(
            network,
            [mapping[i] for i in layers[depth]],
            colors,
            palette,
            label=f"easy/layer-{depth}",
            ledger=ledger,
            deterministic=deterministic,
            seed=rng.randrange(2 ** 32),
        )

    # Line 8: brute-force the selected loopholes (Lemma 7).
    with span("easy/loophole-bruteforce", ledger=ledger):
        for loophole in selected:
            lists = {}
            for v in loophole.vertices:
                forbidden = {
                    colors[u]
                    for u in network.adjacency[v]
                    if colors[u] is not None
                }
                lists[v] = [c for c in palette if c not in forbidden]
            assignment = color_loophole(network, loophole.vertices, lists)
            for v, color in assignment.items():
                colors[v] = color
        ledger.charge("easy/loophole-bruteforce", BRUTEFORCE_ROUNDS)

    return {
        "loopholes": len(loopholes),
        "selected": len(selected),
        "layers": len(layers),
        "gl_max_degree": virtual.max_degree,
    }
