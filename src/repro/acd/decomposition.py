"""Almost-clique decomposition (ACD) — Lemma 2 of the paper.

The decomposition partitions the vertex set into sparse vertices and
almost-cliques ``C_1 .. C_t`` with, for epsilon = 1/63:

(i)   ``(1 - eps/4) * Delta <= |C_i| <= (1 + eps) * Delta``,
(ii)  every ``v in C_i`` has ``|N(v) ∩ C_i| >= (1 - eps) * Delta``,
(iii) every ``u not in C_i`` has ``|N(u) ∩ C_i| <= (1 - eps/2) * Delta``.

Construction follows the [HSS18]/[ACK19] recipe with the deterministic
postprocessing of [FHM23, HM24]: connected components of the friend graph
restricted to eta-dense vertices form candidate almost-cliques, then
components violating the size bound are dissolved and vertices violating
(ii) are peeled off into the sparse set until a fixpoint.

Implementation: friendship is one popcount of two neighbourhood bitsets
per edge; components come from a BFS over per-vertex friend lists in
order of their smallest vertex; the (ii) peel is a worklist over
in-component neighbour counts.  Peeling only ever removes vertices, so
it converges to the unique largest subset in which every member meets
(ii) — the greatest fixpoint — in any removal order.  The pre-rewrite
implementation is kept under ``tests/`` as the parity oracle (see
``tests/test_fastpath_parity.py``).

In the LOCAL model all of this is O(1) rounds — friendship and density
are 2-hop information and components of the friend graph have diameter 2
— so :func:`compute_acd` charges a small constant (:data:`ACD_ROUNDS`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constants import EPSILON
from repro.errors import InvariantViolation, NotDenseError
from repro.local.network import Network

#: LOCAL round cost of the O(1)-round ACD computation: 2 rounds to learn
#: the 2-hop ball (friendship + density), 2 rounds to agree on components
#: (diameter-2 friend components), and 2 postprocessing rounds.
ACD_ROUNDS = 6

#: Default friendship parameter.  The basic decomposition of [HSS18]
#: classifies with a moderate constant eta and postprocessing restores
#: the epsilon guarantees; eta must satisfy eta * Delta >= 2 for
#: clique-mates in a blown-up Delta-clique to count as friends.
DEFAULT_ETA = 0.3

__all__ = ["ACD", "ACD_ROUNDS", "DEFAULT_ETA", "compute_acd"]


@dataclass
class ACD:
    """Result of the almost-clique decomposition.

    ``clique_index[v]`` is the almost-clique of ``v`` or ``-1`` for
    sparse vertices.
    """

    epsilon: float
    cliques: list[list[int]]
    sparse: list[int]
    clique_index: list[int]
    rounds: int = ACD_ROUNDS
    meta: dict = field(default_factory=dict)

    @property
    def num_cliques(self) -> int:
        return len(self.cliques)

    @property
    def is_dense(self) -> bool:
        """Definition 4: the graph is dense iff no vertex is sparse."""
        return not self.sparse

    def require_dense(self) -> None:
        if not self.is_dense:
            raise NotDenseError(
                f"graph is not dense: {len(self.sparse)} sparse vertices "
                f"(Definition 4 requires none for the Theorem 1/2 algorithms)"
            )

    def external_neighbors(self, network: Network, v: int) -> list[int]:
        """Neighbors of ``v`` outside its almost-clique."""
        own = self.clique_index[v]
        return [u for u in network.adjacency[v] if self.clique_index[u] != own]


def compute_acd(
    network: Network,
    epsilon: float = EPSILON,
    *,
    eta: float = DEFAULT_ETA,
    strict: bool = True,
) -> ACD:
    """Compute an almost-clique decomposition per Lemma 2.

    Parameters
    ----------
    network: the input graph.
    epsilon: the ACD accuracy parameter (paper: 1/63).
    eta: friendship parameter of the basic decomposition.
    strict:
        When True, property (iii) is verified and a violation raises
        :class:`InvariantViolation`; the paper's postprocessing
        guarantees (iii) holds, so a violation indicates an input far
        outside the dense regime.
    """
    delta = network.max_degree
    n = network.n
    adjacency = network.adjacency
    threshold = (1.0 - eta) * delta

    # Friend lists: ``uv`` is a friend edge iff ``u`` and ``v`` share at
    # least ``(1 - eta) * Delta`` neighbours, read off a popcount of the
    # two neighbourhood bitsets; ``v`` is eta-dense iff it has at least
    # ``(1 - eta) * Delta`` friends.
    masks = [0] * n
    for v in range(n):
        mask = 0
        for u in adjacency[v]:
            mask |= 1 << u
        masks[v] = mask
    friends: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        mask_v = masks[v]
        later = [
            u for u in adjacency[v]
            if u > v and (mask_v & masks[u]).bit_count() >= threshold
        ]
        friends[v] += later
        for u in later:
            friends[u].append(v)

    # Components of the friend graph on dense vertices, by BFS in order of
    # their smallest vertex.  Sparse vertices start out "seen".
    seen = [len(f) < threshold for f in friends]
    components: list[list[int]] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        component = [root]
        for v in component:
            for u in friends[v]:
                if not seen[u]:
                    seen[u] = True
                    component.append(u)
        components.append(component)

    lower = (1.0 - epsilon / 4.0) * delta
    upper = (1.0 + epsilon) * delta
    inside_threshold = (1.0 - epsilon) * delta

    cliques: list[list[int]] = []
    clique_index = [-1] * n
    for component in components:
        # ``inside[v]`` counts v's neighbours that are kept or still
        # queued for removal.  A vertex of the greatest fixpoint never
        # drops below the threshold, and every vertex left at the end
        # meets it, so the peel ends exactly at the greatest fixpoint.
        keep = set(component)
        inside = {v: len(keep.intersection(adjacency[v])) for v in component}
        doomed = [v for v in component if inside[v] < inside_threshold]
        keep.difference_update(doomed)
        while doomed:
            for u in adjacency[doomed.pop()]:
                if u in keep:
                    inside[u] -= 1
                    if inside[u] < inside_threshold:
                        keep.discard(u)
                        doomed.append(u)
        if not keep or not lower <= len(keep) <= upper:
            continue
        index = len(cliques)
        clique = sorted(keep)
        cliques.append(clique)
        for v in clique:
            clique_index[v] = index

    sparse = [v for v in range(n) if clique_index[v] == -1]

    if strict:
        _check_outsider_bound(network, cliques, clique_index, epsilon, delta)

    return ACD(
        epsilon=epsilon,
        cliques=cliques,
        sparse=sparse,
        clique_index=clique_index,
        meta={"eta": eta, "delta": delta},
    )


def _check_outsider_bound(
    network: Network,
    cliques: list[list[int]],
    clique_index: list[int],
    epsilon: float,
    delta: int,
) -> None:
    """Verify ACD property (iii)."""
    bound = (1.0 - epsilon / 2.0) * delta
    for v in range(network.n):
        own = clique_index[v]
        # No single foreign clique can exceed the bound unless all of
        # them together do.
        indices = [clique_index[u] for u in network.adjacency[v]]
        foreign = len(indices) - indices.count(own)
        if own != -1:
            foreign -= indices.count(-1)
        if foreign <= bound:
            continue
        counts: dict[int, int] = {}
        for u in network.adjacency[v]:
            index = clique_index[u]
            if index != -1 and index != own:
                counts[index] = counts.get(index, 0) + 1
        for index, count in counts.items():
            if count > bound:
                raise InvariantViolation(
                    f"ACD property (iii) violated: vertex {v} has {count} "
                    f"neighbors in foreign almost-clique {index} "
                    f"(bound {bound:.1f}); the input is outside the regime "
                    "the Lemma 2 postprocessing handles"
                )
