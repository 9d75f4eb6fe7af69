"""Frozen pre-rewrite ACD and Linial step: the parity oracles.

:func:`repro.acd.compute_acd` and :class:`repro.subroutines.LinialColoring`
were rewritten for throughput (friend lists + BFS + worklist peel for the
ACD; a shared per-step value table for Linial).  This module preserves
the original implementations verbatim so the parity suite
(``tests/test_fastpath_parity.py``) can assert the rewrites are
bit-identical:

* :func:`compute_acd_oracle` — per-edge popcount of neighbourhood
  bitsets stored in a tuple-keyed dict, union-find over dense friend
  edges, and a repeat-until-no-change property-(ii) peel;
* :class:`LinialOracle` — every node re-derives each neighbour's
  polynomial from its color at every step.
"""

from __future__ import annotations

from typing import Sequence

from repro.acd.decomposition import ACD, DEFAULT_ETA
from repro.constants import EPSILON
from repro.errors import InvariantViolation, SubroutineError
from repro.local.algorithm import Api
from repro.local.network import Network
from repro.local.node import Node
from repro.subroutines.linial import LinialColoring, _digits, _eval_poly

__all__ = ["LinialOracle", "compute_acd_oracle"]


def compute_acd_oracle(
    network: Network,
    epsilon: float = EPSILON,
    *,
    eta: float = DEFAULT_ETA,
    strict: bool = True,
) -> ACD:
    """The seed ``compute_acd``: same signature, same result, same errors."""
    delta = network.max_degree
    n = network.n
    friend_threshold = (1.0 - eta) * delta

    masks = [0] * n
    for v in range(n):
        mask = 0
        for u in network.adjacency[v]:
            mask |= 1 << u
        masks[v] = mask
    is_friend_edge: dict[tuple[int, int], bool] = {}
    friend_counts = [0] * n
    for v in range(n):
        mask_v = masks[v]
        for u in network.adjacency[v]:
            if u < v:
                continue
            friendly = (mask_v & masks[u]).bit_count() >= friend_threshold
            is_friend_edge[(v, u)] = friendly
            if friendly:
                friend_counts[v] += 1
                friend_counts[u] += 1
    density_threshold = (1.0 - eta) * delta
    dense = [friend_counts[v] >= density_threshold for v in range(n)]

    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (v, u), friendly in is_friend_edge.items():
        if friendly and dense[v] and dense[u]:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv

    components: dict[int, list[int]] = {}
    for v in range(n):
        if dense[v]:
            components.setdefault(find(v), []).append(v)

    lower = (1.0 - epsilon / 4.0) * delta
    upper = (1.0 + epsilon) * delta
    inside_threshold = (1.0 - epsilon) * delta

    cliques: list[list[int]] = []
    clique_index = [-1] * n
    for members in components.values():
        keep = set(members)
        changed = True
        while changed:
            changed = False
            for v in list(keep):
                inside = sum(1 for u in network.adjacency[v] if u in keep)
                if inside < inside_threshold:
                    keep.discard(v)
                    changed = True
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
    bound = (1.0 - epsilon / 2.0) * delta
    for v in range(network.n):
        counts: dict[int, int] = {}
        own = clique_index[v]
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


class LinialOracle(LinialColoring):
    """:class:`LinialColoring` with the seed per-node re-derivation step."""

    def on_round(self, node: Node, api: Api, inbox: Sequence[tuple[int, int]]) -> None:
        step = node.state["step"]
        q, k = self.schedule[step]
        own = _digits(node.state["color"], q, k + 1)
        neighbor_polys = [_digits(color, q, k + 1) for _, color in inbox]
        chosen_x = None
        for x in range(q):
            own_val = _eval_poly(own, x, q)
            if all(_eval_poly(p, x, q) != own_val for p in neighbor_polys):
                chosen_x = x
                break
        if chosen_x is None:
            raise SubroutineError(
                f"Linial step found no evaluation point (q={q}, k={k}); "
                "the input coloring was not proper"
            )
        node.state["color"] = chosen_x * q + _eval_poly(own, chosen_x, q)
        node.state["step"] = step + 1
        if node.state["step"] == len(self.schedule):
            api.halt(node.state["color"])
        else:
            api.broadcast(node.state["color"])
