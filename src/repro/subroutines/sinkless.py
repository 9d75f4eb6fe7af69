"""Sinkless orientation, as a thin reduction to hyperedge grabbing.

The paper's Section 1.1 intuition builds slack triads from sinkless
orientation: orient the edges of a graph with minimum degree >= 3 so
every vertex has an outgoing edge.  As a rank-2 hypergraph this is
exactly HEG (each vertex grabs one incident edge, no edge grabbed
twice... a grabbed edge is oriented *out of* its grabber, and an edge
grabbed by nobody may be oriented arbitrarily).  Included both for
exposition and as an extra consumer test of the HEG solver.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SubroutineError
from repro.local.network import Network
from repro.local.result import RunResult
from repro.subroutines.heg import Hypergraph, hyperedge_grabbing

__all__ = ["sinkless_orientation", "verify_sinkless"]


def sinkless_orientation(
    network: Network,
    *,
    deterministic: bool = True,
    seed: int | None = None,
) -> tuple[list[tuple[int, int]], RunResult]:
    """Orient all edges so that every vertex has an outgoing edge.

    Requires minimum degree >= 3 (the classic feasibility threshold).
    Returns oriented edges ``(tail, head)`` covering every edge once.
    """
    min_degree = min((network.degree(v) for v in range(network.n)), default=0)
    if min_degree < 3:
        raise SubroutineError(
            f"sinkless orientation needs minimum degree >= 3, got {min_degree}"
        )
    edges = network.edges()
    h = Hypergraph(
        network.n, [tuple(e) for e in edges], vertex_uids=list(network.uids)
    )
    grab, result = hyperedge_grabbing(h, deterministic=deterministic, seed=seed)

    oriented: list[tuple[int, int]] = []
    grabbed_edges = {grab[v]: v for v in range(network.n)}
    for index, (u, v) in enumerate(edges):
        tail = grabbed_edges.get(index)
        if tail is None:
            oriented.append((u, v))  # unclaimed: arbitrary orientation
        else:
            oriented.append((tail, v if tail == u else u))
    return oriented, result


def verify_sinkless(network: Network, oriented: Sequence[tuple[int, int]]) -> None:
    """Raise unless every vertex (of degree >= 3) has an outgoing edge."""
    has_out = [False] * network.n
    for tail, head in oriented:
        if head not in network.adjacency[tail]:
            raise SubroutineError(f"oriented pair ({tail}, {head}) is not an edge")
        has_out[tail] = True
    for v in range(network.n):
        if network.degree(v) >= 3 and not has_out[v]:
            raise SubroutineError(f"vertex {v} is a sink")
