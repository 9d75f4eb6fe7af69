"""Maximal matching via MIS on the line network.

A matching of ``G`` is an independent set of ``G``'s line graph, and a
*maximal* matching is a *maximal* independent set.  One round on the
line network is simulated by two rounds on the base network (messages
between edges sharing an endpoint are relayed by that endpoint), so the
returned round counts are pre-scaled to base rounds.

The deterministic path (Linial on the line network + class sweep) costs
O(log* n + Delta^2) base rounds; the paper's black boxes ([PR01],
[GG24]) are faster, see the DESIGN.md substitution table.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.errors import SubroutineError
from repro.local.network import Network
from repro.local.result import RunResult
from repro.subroutines.mis import luby_mis, maximal_independent_set

#: Base rounds needed to simulate one line-network round.
LINE_ROUND_SCALE = 2

__all__ = ["LINE_ROUND_SCALE", "line_network", "maximal_matching", "verify_matching"]


def line_network(
    network: Network, edges: Sequence[tuple[int, int]] | None = None
) -> tuple[Network, list[tuple[int, int]]]:
    """Build the line network over a subset of edges.

    Node ``i`` of the returned network is ``edge_list[i]``; two edge
    nodes are adjacent when the edges share an endpoint.  Edge uids are
    derived canonically from endpoint uids so that symmetry breaking
    remains ID-based.
    """
    if edges is None:
        edge_list = network.edges()
    else:
        edge_list = [(min(u, v), max(u, v)) for u, v in edges]
        if len(set(edge_list)) != len(edge_list):
            raise SubroutineError("duplicate edges in the line-network subset")
        for u, v in edge_list:
            if v not in network.adjacency[u]:
                raise SubroutineError(f"({u}, {v}) is not an edge of the network")

    incident: dict[int, list[int]] = {}
    for index, (u, v) in enumerate(edge_list):
        incident.setdefault(u, []).append(index)
        incident.setdefault(v, []).append(index)

    adjacency: list[set[int]] = [set() for _ in edge_list]
    for members in incident.values():
        for i in members:
            for j in members:
                if i != j:
                    adjacency[i].add(j)

    id_space = max(network.uids) + 1 if network.n else 1
    uids = [
        min(network.uids[u], network.uids[v]) * id_space
        + max(network.uids[u], network.uids[v])
        for u, v in edge_list
    ]
    line = Network(
        [sorted(nbrs) for nbrs in adjacency],
        uids,
        name=f"{network.name}[line]",
        validate_structure=False,
    )
    return line, edge_list


def maximal_matching(
    network: Network,
    edges: Iterable[tuple[int, int]] | None = None,
    *,
    deterministic: bool = True,
    seed: int | None = None,
    rng: random.Random | None = None,
) -> tuple[list[tuple[int, int]], RunResult]:
    """Maximal matching over the given edge subset (default: all edges).

    Returns the matched edges and a :class:`RunResult` whose round count
    is already scaled to base-network rounds.
    """
    line, edge_list = line_network(network, None if edges is None else list(edges))
    if deterministic:
        membership, result = maximal_independent_set(line)
    else:
        membership, result = luby_mis(line, seed=seed, rng=rng)
    matching = [edge_list[i] for i, flag in enumerate(membership) if flag]
    verify_matching(network, matching, edge_list)
    scaled = RunResult(
        rounds=result.rounds * LINE_ROUND_SCALE,
        messages=result.messages,
        outputs=membership,
        halted=result.halted,
    )
    return matching, scaled


def verify_matching(
    network: Network,
    matching: Sequence[tuple[int, int]],
    candidate_edges: Sequence[tuple[int, int]] | None = None,
) -> None:
    """Raise unless ``matching`` is a matching, and maximal within the
    candidate edge set when one is given."""
    used: set[int] = set()
    for u, v in matching:
        if v not in network.adjacency[u]:
            raise SubroutineError(f"matching contains non-edge ({u}, {v})")
        if u in used or v in used:
            raise SubroutineError(f"matching is not a matching at edge ({u}, {v})")
        used.add(u)
        used.add(v)
    if candidate_edges is not None:
        for u, v in candidate_edges:
            if u not in used and v not in used:
                raise SubroutineError(
                    f"matching is not maximal: edge ({u}, {v}) is addable"
                )
