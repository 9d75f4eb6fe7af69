"""Hard/easy almost-clique classification — Definitions 6/8 and Lemma 9.

Definition 8 calls an almost-clique *hard* when none of its vertices
belongs to a loophole of at most 6 vertices.  Enumerating all 6-vertex
loopholes costs O(Delta^5) per vertex, so the production classifier uses
four structural criteria, each of whose violations *witnesses* a small
loophole (the reverse direction of Lemma 9 and of the Lemma 10 proof):

H1. every vertex of C has degree exactly Delta
    (violation: the vertex itself is a type-1 loophole);
H2. C is a complete clique
    (violation: a non-adjacent pair u1, u2 plus two common neighbors
    u3, u4 form a non-clique 4-cycle — Lemma 9, property 1);
H3. no vertex outside C has two neighbors in C
    (violation: w, its neighbors u, v in C and a c2 in C non-adjacent
    to w form a non-clique 4-cycle — Lemma 9, property 3 / Figure 5);
H4. no edge (x, y) outside C has x adjacent to some u in C and y
    adjacent to a different v in C
    (violation: u-x-y-v-u is a non-clique 4-cycle; this is the
    configuration that would let two sub-clique members propose to the
    same matching edge, cf. the Lemma 10 proof).

Cliques classified *hard* here satisfy every structural property the
hard-clique pipeline (Phases 1–4) consumes, and every clique classified
*easy* carries a concrete loophole used by Algorithm 3.  A
Definition-8-easy clique whose only loopholes avoid all four patterns
(e.g. a 6-cycle leaving the clique's neighborhood) may be classified
hard; the pipeline still colors it correctly because all its invariants
are checked at runtime — see DESIGN.md.  :func:`classify_cliques_exact`
implements Definition 8 verbatim for cross-validation on small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.acd.decomposition import ACD
from repro.core.loopholes import Loophole, find_small_loophole
from repro.errors import InvariantViolation
from repro.local.network import Network

#: LOCAL rounds charged for the classification: the four criteria are
#: 3-hop information (H4 inspects edges between neighbors' neighbors).
CLASSIFY_ROUNDS = 3

__all__ = [
    "CLASSIFY_ROUNDS",
    "Classification",
    "classify_cliques",
    "classify_cliques_exact",
]


@dataclass
class Classification:
    """Hard/easy split of the almost-cliques plus loophole witnesses."""

    acd: ACD
    hard: list[int]
    easy: list[int]
    #: clique index -> the criterion that failed ("H1" .. "H4"), for stats.
    reasons: dict[int, str]
    #: one witness loophole per easy clique (vertices inside that clique
    #: appear in it, so every easy clique contains a loophole vertex).
    loopholes: dict[int, Loophole]
    rounds: int = CLASSIFY_ROUNDS
    meta: dict = field(default_factory=dict)

    @property
    def hard_set(self) -> set[int]:
        return set(self.hard)

    def hard_vertices(self) -> set[int]:
        """V_hard: all vertices in hard cliques."""
        return {
            v for index in self.hard for v in self.acd.cliques[index]
        }


def classify_cliques(
    network: Network, acd: ACD, *, delta: int | None = None
) -> Classification:
    """Classify every almost-clique of the ACD as hard or easy (H1–H4)."""
    if delta is None:
        delta = network.max_degree
    hard: list[int] = []
    easy: list[int] = []
    reasons: dict[int, str] = {}
    loopholes: dict[int, Loophole] = {}

    for index, members in enumerate(acd.cliques):
        witness = _h1_low_degree(network, members, delta)
        if witness is None:
            witness = _h2_non_clique(network, members)
        if witness is None:
            witness = _h3_shared_outside_neighbor(network, acd, index, members)
        if witness is None:
            witness = _h4_external_edge(network, acd, index, members)
        if witness is None:
            hard.append(index)
        else:
            reason, loophole = witness
            easy.append(index)
            reasons[index] = reason
            loopholes[index] = loophole

    # Propagation: a witness loophole may contain vertices of *other*
    # cliques (H3/H4 witnesses reach outside the violating clique).  By
    # Definition 8 any clique touched by a small loophole is easy, and
    # operationally those vertices must stay uncolored until Algorithm 3
    # so the loophole can be colored last.  The shared loophole itself is
    # the witness of the propagated clique, so one pass per new witness
    # suffices (processed worklist-style for witnesses added later).
    hard_set = set(hard)
    worklist = list(easy)
    while worklist:
        index = worklist.pop()
        for v in loopholes[index].vertices:
            other = acd.clique_index[v]
            if other in hard_set:
                hard_set.discard(other)
                easy.append(other)
                reasons[other] = "propagated"
                loopholes[other] = loopholes[index]
                worklist.append(other)
    hard = [index for index in hard if index in hard_set]

    return Classification(
        acd=acd, hard=hard, easy=easy, reasons=reasons, loopholes=loopholes
    )


def _h1_low_degree(
    network: Network, members: list[int], delta: int
) -> tuple[str, Loophole] | None:
    for v in members:
        if network.degree(v) < delta:
            return "H1", Loophole((v,), "low-degree")
    return None


def _h2_non_clique(
    network: Network, members: list[int]
) -> tuple[str, Loophole] | None:
    for i, u1 in enumerate(members):
        n1 = network.neighbor_set(u1)
        for u2 in members[i + 1:]:
            if u2 in n1:
                continue
            # Non-adjacent pair inside the AC: any two distinct common
            # neighbors u3, u4 close the non-clique 4-cycle u1-u3-u2-u4
            # (non-clique because u1, u2 are non-adjacent); at least two
            # exist by the Lemma 9 density argument whenever the ACD
            # size bounds hold.
            common = [w for w in network.adjacency[u2] if w in n1]
            if len(common) >= 2:
                return "H2", Loophole((u1, common[0], u2, common[1]), "even-cycle")
            raise InvariantViolation(
                f"AC contains non-adjacent pair ({u1}, {u2}) with fewer "
                "than two common neighbors; the ACD size bounds are violated"
            )
    return None


def _h3_shared_outside_neighbor(
    network: Network, acd: ACD, index: int, members: list[int]
) -> tuple[str, Loophole] | None:
    member_set = set(members)
    seen: dict[int, int] = {}
    for v in members:
        for w in network.adjacency[v]:
            if w in member_set:
                continue
            if w in seen and seen[w] != v:
                u = seen[w]
                # u - w - v - c2 - u with c2 in C non-adjacent to w.
                nw = network.neighbor_set(w)
                nu = network.neighbor_set(u)
                nv = network.neighbor_set(v)
                for c2 in members:
                    if c2 in (u, v) or c2 in nw:
                        continue
                    if c2 in nu and c2 in nv:
                        return "H3", Loophole((u, w, v, c2), "even-cycle")
                raise InvariantViolation(
                    f"outside vertex {w} adjacent to {u} and {v} in AC "
                    f"{index} but no witness c2 exists; ACD property (iii) "
                    "is violated"
                )
            seen[w] = v
    return None


def _h4_external_edge(
    network: Network, acd: ACD, index: int, members: list[int]
) -> tuple[str, Loophole] | None:
    member_set = set(members)
    # attachment[x] = the unique member of C adjacent to the outside
    # vertex x (unique because H3 passed).
    attachment: dict[int, int] = {}
    for v in members:
        for x in network.adjacency[v]:
            if x not in member_set:
                attachment[x] = v
    for x, u in attachment.items():
        for y in network.adjacency[x]:
            v = attachment.get(y)
            if v is not None and v != u and y != u and x != v:
                # u - x - y - v - u; u != v are adjacent (H2 passed), and
                # x has no second neighbor in C (H3 passed), so the
                # 4-cycle is not a clique.
                return "H4", Loophole((u, x, y, v), "even-cycle")
    return None


def classify_cliques_exact(
    network: Network, acd: ACD, *, delta: int | None = None, max_size: int = 6
) -> Classification:
    """Definition 8 verbatim: exhaustive small-loophole search.

    Exponential in ``max_size``; use on small graphs to cross-validate
    :func:`classify_cliques`.
    """
    if delta is None:
        delta = network.max_degree
    hard: list[int] = []
    easy: list[int] = []
    reasons: dict[int, str] = {}
    loopholes: dict[int, Loophole] = {}
    for index, members in enumerate(acd.cliques):
        witness: Loophole | None = None
        for v in members:
            witness = find_small_loophole(network, v, delta, max_size)
            if witness is not None:
                break
        if witness is None:
            hard.append(index)
        else:
            easy.append(index)
            reasons[index] = "exact"
            loopholes[index] = witness
    return Classification(
        acd=acd, hard=hard, easy=easy, reasons=reasons, loopholes=loopholes,
        meta={"mode": "exact", "max_size": max_size},
    )
