"""Structural validation helpers for generated instances."""

from __future__ import annotations

from repro.errors import GraphStructureError
from repro.graphs.instance import DenseInstance
from repro.local.network import Network

__all__ = [
    "assert_no_delta_plus_one_clique",
    "assert_regular",
    "check_instance",
    "count_inter_clique_multiplicity",
]


def assert_regular(network: Network, degree: int) -> None:
    """Raise unless every vertex has exactly the given degree."""
    for v in range(network.n):
        if network.degree(v) != degree:
            raise GraphStructureError(
                f"vertex {v} has degree {network.degree(v)}, expected {degree}"
            )


def assert_no_delta_plus_one_clique(network: Network) -> None:
    """Raise if the graph contains a (Delta+1)-clique.

    Brooks' theorem makes the (Delta+1)-clique the only dense obstruction
    to Delta-colorability (besides odd cycles, which have Delta = 2).  A
    (Delta+1)-clique forces each member's entire neighborhood inside the
    clique, so it suffices to check, per vertex, whether its closed
    neighborhood of size Delta+1 is fully connected — an O(Delta^2) local
    test rather than general clique finding.
    """
    delta = network.max_degree
    if delta <= 1:
        return
    adjacency = network.adjacency
    for v, neighbors in enumerate(adjacency):
        if len(neighbors) != delta:
            continue
        closed = {v, *neighbors}
        # Closed neighborhood of size Delta+1 is a clique iff every member
        # has degree Delta and all its neighbors inside it; ``issuperset``
        # keeps the O(Delta^2) pair test in C.
        if all(
            len(adjacency[u]) == delta and closed.issuperset(adjacency[u])
            for u in neighbors
        ):
            raise GraphStructureError(
                f"(Delta+1)-clique found around vertex {v}; "
                "Delta-coloring is impossible (Brooks' theorem)"
            )


def count_inter_clique_multiplicity(instance: DenseInstance) -> int:
    """Maximum number of edges between any pair of planted cliques.

    Hard instances require multiplicity 1: two edges between the same
    clique pair close a non-clique 4-cycle (a loophole).
    """
    owner = instance.clique_of()
    counts: dict[tuple[int, int], int] = {}
    for u, v in instance.network.edges():
        cu, cv = owner[u], owner[v]
        if cu != cv:
            key = (min(cu, cv), max(cu, cv))
            counts[key] = counts.get(key, 0) + 1
    return max(counts.values(), default=0)


def check_instance(
    instance: DenseInstance,
    *,
    expect_regular: bool = True,
    expect_cover: bool = True,
) -> None:
    """Validate the planted structure of a generated instance.

    Checks that the planted cliques partition the vertex set (unless
    ``expect_cover`` is False — sparse-mix instances deliberately leave
    blob vertices outside every clique) and are actual cliques, that the
    graph has no (Delta+1)-clique, and (for hard instances) that every
    vertex has degree exactly Delta.
    """
    network = instance.network
    seen: set[int] = set()
    for index, members in enumerate(instance.cliques):
        for v in members:
            if v in seen:
                raise GraphStructureError(f"vertex {v} in two planted cliques")
            seen.add(v)
        for i, a in enumerate(members):
            na = network.neighbor_set(a)
            for b in members[i + 1:]:
                if b in na or (min(a, b), max(a, b)) in _removed_edges(instance):
                    continue
                raise GraphStructureError(
                    f"planted clique {index} is missing edge ({a}, {b})"
                )
    if expect_cover and len(seen) != network.n:
        raise GraphStructureError("planted cliques do not cover the vertex set")
    if expect_regular:
        assert_regular(network, instance.delta)
    assert_no_delta_plus_one_clique(network)


def _removed_edges(instance: DenseInstance) -> set[tuple[int, int]]:
    """Edges intentionally removed by the mixed generator (easy cliques)."""
    easy = instance.meta.get("easy_cliques", [])
    removed = set()
    for index in easy:
        members = instance.cliques[index]
        removed.add((min(members[0], members[1]), max(members[0], members[1])))
    return removed
