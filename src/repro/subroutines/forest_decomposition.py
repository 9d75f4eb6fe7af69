"""H-partition and forest decomposition (Barenboim–Elkin).

A classic LOCAL substrate complementing the coloring toolbox: graphs of
arboricity ``a`` admit an *H-partition* — O(log n) classes such that
every vertex has at most ``(2 + eps) * a`` neighbors in its own or
higher classes — computed by repeatedly peeling low-degree vertices.
Orienting every edge toward the higher class (ties toward the higher
uid) gives an acyclic orientation with out-degree at most
``(2 + eps) * a``, and numbering each vertex's out-edges splits the
edge set into that many forests.

The peeling runs through the message-passing engine (one phase per
round; peeled vertices announce themselves so neighbors can decrement
their active degrees), so the O(log n) round bound is measured, not
assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import SubroutineError
from repro.local.algorithm import Api, DistributedAlgorithm
from repro.local.network import Network
from repro.local.node import Node
from repro.local.result import RunResult

__all__ = [
    "HPartition",
    "acyclic_orientation",
    "estimate_arboricity",
    "forest_decomposition",
    "h_partition",
    "verify_forests",
]


@dataclass
class HPartition:
    """An H-partition: ``class_of[v]`` with bounded up-degree."""

    class_of: list[int]
    num_classes: int
    arboricity_bound: int
    epsilon: float
    rounds: int
    meta: dict = field(default_factory=dict)


class _Peeling(DistributedAlgorithm):
    """One class per round: peel vertices of low active degree."""

    name = "h-partition-peeling"

    def __init__(self, threshold: float, max_phases: int):
        self.threshold = threshold
        self.max_phases = max_phases

    def on_start(self, node: Node, api: Api) -> None:
        node.state["active_degree"] = node.degree
        api.set_alarm(1)
        # Class 0 decisions happen in round 1 so everyone starts equal.

    def on_round(self, node: Node, api: Api, inbox) -> None:
        for _, _ in inbox:
            node.state["active_degree"] -= 1
        phase = api.round - 1
        if phase >= self.max_phases:
            return  # stays unpeeled; caller raises
        if node.state["active_degree"] <= self.threshold:
            api.broadcast("peeled")
            api.halt(phase)
            return
        api.set_alarm(api.round + 1)


def h_partition(
    network: Network,
    arboricity_bound: int,
    *,
    epsilon: float = 0.5,
) -> HPartition:
    """Compute an H-partition for the given arboricity bound.

    Raises :class:`SubroutineError` when the peeling does not finish
    within the theoretical class budget — the standard certificate that
    ``arboricity_bound`` is below the graph's true arboricity.
    """
    if arboricity_bound < 1:
        raise SubroutineError("arboricity bound must be >= 1")
    if epsilon <= 0:
        raise SubroutineError("epsilon must be positive")
    n = max(network.n, 2)
    threshold = (2.0 + epsilon) * arboricity_bound
    # Each phase peels at least an eps/(2+eps) fraction of the remaining
    # vertices when the bound is correct.
    max_phases = max(
        1,
        math.ceil(math.log(n) / math.log(1.0 + epsilon / 2.0)) + 1,
    )
    result = network.run(_Peeling(threshold, max_phases))
    if not result.all_halted:
        stuck = sum(1 for halted in result.halted if not halted)
        raise SubroutineError(
            f"H-partition did not converge within {max_phases} classes "
            f"({stuck} vertices left); arboricity exceeds "
            f"{arboricity_bound}"
        )
    class_of = [int(value) for value in result.outputs]
    return HPartition(
        class_of=class_of,
        num_classes=max(class_of, default=-1) + 1,
        arboricity_bound=arboricity_bound,
        epsilon=epsilon,
        rounds=result.rounds,
        meta={"threshold": threshold, "max_phases": max_phases},
    )


def estimate_arboricity(network: Network, *, epsilon: float = 0.5) -> int:
    """Smallest power-of-two arboricity bound the H-partition accepts.

    Doubling search; at most ``O(log Delta)`` H-partition attempts, each
    O(log n) rounds — the standard way to run Barenboim–Elkin without
    knowing the arboricity.
    """
    bound = 1
    while True:
        try:
            h_partition(network, bound, epsilon=epsilon)
            return bound
        except SubroutineError:
            bound *= 2
            if bound > max(network.max_degree, 1) * 2:
                raise


def acyclic_orientation(
    network: Network, partition: HPartition
) -> list[tuple[int, int]]:
    """Orient every edge toward the higher (class, uid) endpoint.

    The order is total, so the orientation is acyclic; every vertex's
    out-degree is bounded by its up-degree in the H-partition, i.e. at
    most ``(2 + eps) * a``.
    """
    def rank(v: int) -> tuple[int, int]:
        return (partition.class_of[v], network.uids[v])

    return [
        (u, v) if rank(u) < rank(v) else (v, u)
        for u, v in network.edges()
    ]


def forest_decomposition(
    network: Network,
    arboricity_bound: int | None = None,
    *,
    epsilon: float = 0.5,
) -> tuple[list[int], list[tuple[int, int]], HPartition]:
    """Partition the edges into ``<= (2 + eps) * a`` forests.

    Returns ``(forest_of, oriented_edges, partition)`` where
    ``forest_of[i]`` is the forest index of ``oriented_edges[i]`` (each
    vertex has at most one out-edge per forest, and every forest is
    acyclic because the underlying orientation is).
    """
    if arboricity_bound is None:
        arboricity_bound = estimate_arboricity(network, epsilon=epsilon)
    partition = h_partition(network, arboricity_bound, epsilon=epsilon)
    oriented = acyclic_orientation(network, partition)
    counter: dict[int, int] = {}
    forest_of = []
    for tail, _ in oriented:
        index = counter.get(tail, 0)
        counter[tail] = index + 1
        forest_of.append(index)
    return forest_of, oriented, partition


def verify_forests(
    network: Network,
    forest_of: Sequence[int],
    oriented: Sequence[tuple[int, int]],
) -> int:
    """Raise unless every class is a forest with out-degree <= 1.

    Returns the number of forests.
    """
    if len(forest_of) != len(oriented) or len(oriented) != network.edge_count:
        raise SubroutineError("forest labels must cover every edge once")
    out_seen: set[tuple[int, int]] = set()
    for (tail, head), forest in zip(oriented, forest_of):
        if head not in network.adjacency[tail]:
            raise SubroutineError(f"({tail}, {head}) is not an edge")
        key = (tail, forest)
        if key in out_seen:
            raise SubroutineError(
                f"vertex {tail} has two out-edges in forest {forest}"
            )
        out_seen.add(key)
    # Acyclicity per forest: follow out-edges; out-degree <= 1 makes each
    # forest a functional graph, so a cycle would revisit a vertex.
    num_forests = max(forest_of, default=-1) + 1
    for forest in range(num_forests):
        successor = {
            tail: head
            for (tail, head), f in zip(oriented, forest_of)
            if f == forest
        }
        for start in successor:
            seen = {start}
            current = start
            while current in successor:
                current = successor[current]
                if current in seen:
                    raise SubroutineError(f"cycle in forest {forest}")
                seen.add(current)
    return num_forests
