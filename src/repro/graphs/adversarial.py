"""Adversarial instance surgery: planting each structural violation.

Robustness testing needs instances that violate exactly one assumption
at a time.  Each function below takes a hard instance and performs
degree-preserving surgery planting one violation class:

* :func:`plant_shared_outside_neighbor` — an outside vertex with two
  neighbors in one clique (violates Lemma 9.3, classifier reason H3);
* :func:`plant_external_edge` — an edge between the external neighbors
  of two members of one clique (the Lemma 10 collision configuration,
  classifier reason H4);
* :func:`plant_nonclique_pair` — a non-adjacent pair inside two cliques
  via a degree-preserving 2-swap (Lemma 9.1, classifier reason H2);
* :func:`brooks_obstruction` — a (Delta+1)-clique, where Delta-coloring
  is impossible outright.

All surgeries return a *new* instance; the input is never mutated.
"""

from __future__ import annotations

from repro.errors import GraphStructureError
from repro.graphs.instance import DenseInstance
from repro.local.network import Network

__all__ = [
    "brooks_obstruction",
    "plant_external_edge",
    "plant_nonclique_pair",
    "plant_shared_outside_neighbor",
]


def _rebuild(instance: DenseInstance, edges: list[tuple[int, int]],
             extra_meta: dict) -> DenseInstance:
    network = Network.from_edges(
        instance.n, edges, instance.network.uids,
        name=f"{instance.network.name}[adversarial]",
    )
    meta = dict(instance.meta)
    meta.update(extra_meta)
    return DenseInstance(
        network=network,
        cliques=instance.cliques,
        clique_graph=instance.clique_graph,
        delta=instance.delta,
        meta=meta,
    )


def _adjacent_clique_edge(
    instance: DenseInstance, clique: int
) -> tuple[int, int, int]:
    """An inter-clique edge (u, w) with u in ``clique``, plus w's clique."""
    owner = instance.clique_of()
    for u, w in instance.network.edges():
        if owner[u] == clique and owner[w] != clique:
            return u, w, owner[w]
        if owner[w] == clique and owner[u] != clique:
            return w, u, owner[u]
    raise GraphStructureError(f"clique {clique} has no inter-clique edge")


def plant_shared_outside_neighbor(
    instance: DenseInstance, clique: int = 0
) -> DenseInstance:
    """Give an outside vertex a second neighbor in ``clique`` (H3),
    preserving every degree.

    Let ``u1 — w`` be the inter-clique edge from ``clique`` to ``w``'s
    clique ``D`` and ``u2 — x`` another member's inter-clique edge.  The
    2-swap deletes ``(u2, x)`` and one of ``w``'s internal edges
    ``(w, w')`` and adds ``(u2, w)`` and ``(x, w')``: all degrees stay
    Delta, ``w`` now sees both ``u1`` and ``u2`` in ``clique`` — the
    exact Figure 5 configuration — and ``D`` gains a non-adjacent pair.
    """
    network = instance.network
    owner = instance.clique_of()
    u1, w, d_index = _adjacent_clique_edge(instance, clique)
    u2, x = next(
        (a, b) if owner[a] == clique else (b, a)
        for a, b in network.edges()
        if clique in (owner[a], owner[b])
        and owner[a] != owner[b]
        and d_index not in (owner[a], owner[b])
        and u1 not in (a, b)
    )
    w_prime = next(
        v
        for v in instance.cliques[d_index]
        if v != w
        and v in network.adjacency[w]
        and v not in network.adjacency[x]
        and v != x
    )
    drop = {(min(u2, x), max(u2, x)), (min(w, w_prime), max(w, w_prime))}
    edges = [e for e in network.edges() if (min(*e), max(*e)) not in drop]
    edges += [(u2, w), (x, w_prime)]
    return _rebuild(
        instance,
        edges,
        {"adversarial": "shared-outside-neighbor", "clique": clique},
    )


def plant_external_edge(
    instance: DenseInstance, clique: int = 0
) -> DenseInstance:
    """Connect the external neighbors of two members of ``clique`` (H4),
    preserving every degree.

    With ``u1 — x`` and ``u2 — y`` inter-clique edges from ``clique``,
    the 2-swap deletes one internal edge of ``x`` and one of ``y`` and
    rewires their far endpoints to each other, freeing one degree at
    ``x`` and ``y`` for the adversarial edge ``(x, y)`` — the Lemma 10
    collision configuration — while ``x``'s and ``y``'s cliques each
    gain a non-adjacent pair.
    """
    owner = instance.clique_of()
    network = instance.network
    externals: list[int] = []
    for v in instance.cliques[clique]:
        w = next(
            (z for z in network.adjacency[v] if owner[z] != clique), None
        )
        if w is not None and owner[w] not in {owner[e] for e in externals}:
            externals.append(w)
        if len(externals) == 2:
            break
    if len(externals) < 2:
        raise GraphStructureError(f"clique {clique} has too few external edges")
    x, y = externals
    if y in network.adjacency[x]:
        raise GraphStructureError("the adversarial edge already exists")
    x_prime = next(
        v for v in instance.cliques[owner[x]]
        if v != x and v in network.adjacency[x]
    )
    y_prime = next(
        v for v in instance.cliques[owner[y]]
        if v != y
        and v in network.adjacency[y]
        and v not in network.adjacency[x_prime]
        and v != x_prime
    )
    drop = {(min(x, x_prime), max(x, x_prime)),
            (min(y, y_prime), max(y, y_prime))}
    edges = [e for e in network.edges() if (min(*e), max(*e)) not in drop]
    edges += [(x, y), (x_prime, y_prime)]
    return _rebuild(
        instance,
        edges,
        {"adversarial": "external-edge", "clique": clique},
    )


def plant_nonclique_pair(instance: DenseInstance, clique: int = 0) -> DenseInstance:
    """Degree-preserving 2-swap creating non-adjacent pairs (H2).

    Deletes one internal edge in ``clique`` and one in an adjacent
    clique, and rewires the four endpoints across the cliques: all
    degrees stay Delta, but both cliques now contain a non-adjacent
    member pair.
    """
    network = instance.network
    u, w, other = _adjacent_clique_edge(instance, clique)
    members_a = instance.cliques[clique]
    members_b = instance.cliques[other]
    a1, a2 = members_a[0], members_a[1]
    b1 = next(
        v for v in members_b
        if v not in network.adjacency[a1]
        and v not in network.adjacency[a2]
    )
    b2 = next(
        v for v in members_b
        if v != b1
        and v in network.adjacency[b1]
        and v not in network.adjacency[a1]
        and v not in network.adjacency[a2]
    )
    drop = {(min(a1, a2), max(a1, a2)), (min(b1, b2), max(b1, b2))}
    edges = [
        e for e in network.edges() if (min(*e), max(*e)) not in drop
    ]
    edges += [(a1, b1), (a2, b2)]
    return _rebuild(
        instance,
        edges,
        {"adversarial": "nonclique-pair", "cliques": [clique, other]},
    )


def brooks_obstruction(delta: int) -> Network:
    """A (Delta+1)-clique: the unique dense obstruction to Delta-coloring."""
    size = delta + 1
    return Network.from_edges(
        size,
        [(i, j) for i in range(size) for j in range(i + 1, size)],
        name="brooks-obstruction",
    )
