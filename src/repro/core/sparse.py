"""Extension: Delta-coloring graphs *with* sparse vertices.

The paper's Theorems 1/2 cover dense graphs and its Section 1.1
explicitly leaves the sparse part as the open extension, noting that
for randomized algorithms sparse vertices are "extremely simple":
same-coloring two non-adjacent neighbors of a sparse vertex gives it
permanent slack (the mechanism of [EPS15]/[FHM23]).  This module
implements that extension in its natural regime:

1. *Slack placement.*  Every uncolored sparse vertex ``v`` of full
   degree Delta needs one duplicated color among its neighbors (degree
   < Delta vertices have slack for free).  Deficient vertices propose a
   *slack pair*: two non-adjacent uncolored sparse neighbors (both
   trial-eligible, see below) plus a common available color; proposals
   conflict when they share a vertex or would place the same color on
   adjacent vertices, conflicts are knocked out by uid, survivors
   commit — iterated until no vertex is deficient (Claim 1 guarantees
   sparse vertices many non-adjacent neighbor pairs, so a few rounds
   suffice w.h.p. when Delta is not tiny).

2. *Eligibility.*  Only sparse vertices with no hard-clique neighbor
   may be colored early: the dense pipeline's Lemma 17 arithmetic
   treats uncolored non-hard neighbors as slack sources, and
   eligibility makes that assumption true by construction.

3. The dense machinery (pre-shattering, components, layering, easy
   phase) then runs unchanged — already-colored sparse vertices only
   shrink color lists, which every instance accounts for — and a final
   (deg+1)-instance colors the remaining sparse vertices, whose slack
   the placement guaranteed.

Deficiency is *monotone*: coloring any neighbor removes one competitor
and at most one list color, so a satisfied vertex stays satisfied no
matter what the later phases do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import MutableSequence, Sequence

from repro.acd.decomposition import ACD
from repro.constants import AlgorithmParameters, PAPER_PARAMETERS
from repro.core.deterministic import dense_setup, finish_result
from repro.core.easy_coloring import color_easy_and_loopholes
from repro.core.finish_coloring import color_instance
from repro.core.hardness import Classification
from repro.core.randomized import color_component, finish_shattered, preshatter
from repro.errors import InvariantViolation
from repro.local.ledger import RoundLedger
from repro.local.network import Network
from repro.types import ColoringResult

#: LOCAL rounds per placement iteration: propose, knock out, commit.
PLACEMENT_ROUNDS = 3

__all__ = ["SparseSlackStats", "delta_color_general", "generate_sparse_slack"]


@dataclass
class SparseSlackStats:
    """Outcome of the sparse slack placement."""

    sparse_vertices: int
    initially_deficient: int
    pairs_placed: int
    iterations: int
    colored_early: int
    meta: dict = field(default_factory=dict)


def _deficit(
    network: Network,
    v: int,
    colors: Sequence[int | None],
    palette_size: int,
) -> int:
    """How many list colors ``v`` is short of (deg_uncolored + 1).

    Positive means ``v`` could end up stuck if everything around it gets
    colored with distinct colors; <= 0 means permanent slack.
    """
    colored: set[int] = set()
    uncolored = 0
    for u in network.adjacency[v]:
        color = colors[u]
        if color is None:
            uncolored += 1
        else:
            colored.add(color)
    return (uncolored + 1) - (palette_size - len(colored))


def generate_sparse_slack(
    network: Network,
    acd: ACD,
    colors: MutableSequence[int | None],
    palette: Sequence[int],
    *,
    rng: random.Random,
    hard_vertices: set[int],
    ledger: RoundLedger | None = None,
    max_iterations: int = 64,
) -> SparseSlackStats:
    """Give every sparse vertex permanent slack by same-coloring pairs.

    Mutates ``colors``; raises :class:`InvariantViolation` if some
    vertex stays deficient — outside the extension's regime (tiny
    Delta or adversarially pre-colored neighborhoods).
    """
    if ledger is None:
        ledger = RoundLedger()
    palette = list(palette)
    palette_size = len(palette)
    sparse = [v for v in acd.sparse]
    sparse_set = set(sparse)
    eligible = {
        v
        for v in sparse
        if not any(u in hard_vertices for u in network.adjacency[v])
    }

    def deficient() -> list[int]:
        return [
            v
            for v in sparse
            if colors[v] is None
            and _deficit(network, v, colors, palette_size) > 0
        ]

    initially = len(deficient())
    pairs_placed = 0
    iterations = 0
    while iterations < max_iterations:
        needing = deficient()
        if not needing:
            break
        iterations += 1
        # Parallel proposal round: each deficient vertex proposes one
        # same-colorable pair among its eligible sparse neighbors.
        proposals: list[tuple[int, int, int, int]] = []  # (uid, u, w, color)
        for v in needing:
            candidates = [
                u
                for u in network.adjacency[v]
                if u in eligible and colors[u] is None
            ]
            rng.shuffle(candidates)
            found = None
            for i, u in enumerate(candidates):
                nu = network.neighbor_set(u)
                for w in candidates[i + 1:]:
                    if w in nu:
                        continue
                    common = _common_available(
                        network, u, w, colors, palette
                    )
                    if common:
                        found = (u, w, rng.choice(common))
                        break
                if found:
                    break
            if found:
                proposals.append((network.uids[v], *found))

        if not proposals:
            break  # no progress possible; the final check reports
        # Knockout by proposer uid: commit greedily in uid order,
        # rejecting proposals that touch committed vertices or would put
        # a committed color next to itself.
        taken: set[int] = set()
        for _, u, w, color in sorted(proposals):
            if u in taken or w in taken or colors[u] is not None or (
                colors[w] is not None
            ):
                continue
            if any(colors[x] == color for x in network.adjacency[u]):
                continue
            if any(colors[x] == color for x in network.adjacency[w]):
                continue
            colors[u] = color
            colors[w] = color
            taken.add(u)
            taken.add(w)
            pairs_placed += 1
    ledger.charge("sparse/slack-placement", PLACEMENT_ROUNDS * max(iterations, 1))

    remaining = deficient()
    if remaining:
        raise InvariantViolation(
            f"sparse slack generation left {len(remaining)} deficient "
            f"vertices (e.g. {remaining[0]}) after {iterations} "
            "iterations; the graph is outside the extension's regime "
            "(sparse vertices need enough eligible non-adjacent "
            "neighbor pairs, cf. Claim 1)"
        )
    colored_early = sum(
        1 for v in sparse if colors[v] is not None
    )
    return SparseSlackStats(
        sparse_vertices=len(sparse),
        initially_deficient=initially,
        pairs_placed=pairs_placed,
        iterations=iterations,
        colored_early=colored_early,
        meta={"eligible": len(eligible), "sparse_set": len(sparse_set)},
    )


def _common_available(
    network: Network,
    u: int,
    w: int,
    colors: Sequence[int | None],
    palette: Sequence[int],
) -> list[int]:
    forbidden = {
        colors[x]
        for vertex in (u, w)
        for x in network.adjacency[vertex]
        if colors[x] is not None
    }
    return [c for c in palette if c not in forbidden]


def delta_color_general(
    network: Network,
    *,
    params: AlgorithmParameters = PAPER_PARAMETERS,
    seed: int | None = None,
    activation_probability: float = 1.0 / 3.0,
    classification: Classification | None = None,
    validate_input: bool = True,
    verify: bool = True,
) -> ColoringResult:
    """Randomized Delta-coloring of graphs that may have sparse vertices.

    The paper's open extension (Section 1.1), implemented in its easy
    randomized regime: sparse slack placement + the Theorem 2 machinery
    on the dense part + a final sparse instance.  Purely dense inputs
    take exactly the Theorem 2 path.
    """
    rng = random.Random(seed)
    setup = dense_setup(
        network, params=params, classification=classification,
        validate_input=validate_input,
        require_dense=False,
    )
    acd, classification = setup.acd, setup.classification
    ledger, palette, colors = setup.ledger, setup.palette, setup.colors

    stats: dict = {
        "delta": setup.delta,
        "n": network.n,
        "sparse_vertices": len(acd.sparse),
        "hard_cliques": len(classification.hard),
        "easy_cliques": len(classification.easy),
    }

    # --- Pre-shattering on the hard cliques (pairs take color 0). ------
    shattering = preshatter(
        network, classification, colors, rng=rng, ledger=ledger,
        activation_probability=activation_probability, max_iterations=2,
    )
    stats["shattering"] = shattering.stats

    # --- Sparse slack placement (the extension). ------------------------
    if acd.sparse:
        slack_stats = generate_sparse_slack(
            network, acd, colors, palette, rng=rng,
            hard_vertices=classification.hard_vertices(), ledger=ledger,
        )
        stats["sparse_slack"] = slack_stats

    # --- Theorem 2 machinery on the dense part. -------------------------
    bad_cliques, _ = finish_shattered(
        network, classification, shattering.triads, colors, palette,
        params=params, rng=rng, ledger=ledger,
        colorer=color_component, prefix="post-shattering",
    )
    stats["shattering"]["bad_cliques"] = len(bad_cliques)

    stats["easy_phase"] = color_easy_and_loopholes(
        network, classification, colors, palette,
        params=params, ledger=ledger, deterministic=False,
        seed=rng.randrange(2 ** 32),
        restrict_to=[
            v for v in range(network.n) if acd.clique_index[v] != -1
        ],
    )

    # --- Final sparse instance (slack guaranteed by placement). ---------
    remaining_sparse = [v for v in acd.sparse if colors[v] is None]
    color_instance(
        network, remaining_sparse, colors, palette,
        label="sparse/final-instance", ledger=ledger,
        deterministic=False, seed=rng.randrange(2 ** 32),
    )

    return finish_result(
        network, setup,
        algorithm="general-delta-coloring[sparse-extension]",
        stats=stats, verify=verify,
    )
