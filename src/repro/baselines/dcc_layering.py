"""Deterministic DCC-style baseline (PS95/[GHKM21] flavor).

Prior deterministic Delta-coloring algorithms rely on degree-choosable
components (DCCs): every vertex lies in a deg-list-colorable subgraph of
possibly *logarithmic* diameter (here: a non-clique even cycle lifted
from a shortest cycle of the clique graph), a ruling set breaks symmetry
between the DCCs, and layered coloring finishes.  The symmetry breaking
pays the DCC diameter as a multiplicative factor, which is exactly the
``O(log n * log* n)`` barrier the paper's Section 1.1 describes and the
landscape experiment (E3) contrasts against Theorem 1.

Implementation: every clique of the ACD is treated as *easy* — easy
cliques keep their small witness loophole, hard cliques get a lifted
even cycle through a shortest clique-graph cycle — and Algorithm 3's
machinery (ruling set on the loophole graph, BFS layering, outermost-
first coloring, exact brute force last) colors the entire graph.  The
loophole-graph round scale is the measured maximum loophole diameter,
honestly reflecting the barrier.
"""

from __future__ import annotations

from collections import deque

from repro.acd.decomposition import ACD
from repro.constants import AlgorithmParameters, PAPER_PARAMETERS
from repro.core.deterministic import dense_setup, finish_result
from repro.core.easy_coloring import color_easy_and_loopholes
from repro.core.hardness import Classification
from repro.core.loopholes import Loophole, is_loophole
from repro.errors import GraphStructureError
from repro.local.network import Network
from repro.types import ColoringResult

__all__ = ["dcc_layering_coloring", "lifted_clique_cycle"]


def dcc_layering_coloring(
    network: Network,
    *,
    params: AlgorithmParameters = PAPER_PARAMETERS,
    classification: Classification | None = None,
    validate_input: bool = True,
    verify: bool = True,
) -> ColoringResult:
    """Delta-color a dense graph with the DCC-layering baseline."""
    setup = dense_setup(
        network, params=params, classification=classification,
        validate_input=validate_input,
    )
    acd, classification = setup.acd, setup.classification

    # Hard cliques get lifted clique-graph cycles as their DCCs; the
    # detection costs the cycle length in LOCAL rounds (gather).
    loopholes = dict(classification.loopholes)
    max_cycle = 0
    for index in classification.hard:
        cycle = lifted_clique_cycle(network, acd, index)
        if cycle is None:
            raise GraphStructureError(
                f"hard clique {index} lies on no clique-graph cycle; the "
                "DCC baseline needs a cyclic dense region"
            )
        loopholes[index] = cycle
        max_cycle = max(max_cycle, len(cycle.vertices))
    setup.ledger.charge("dcc/detection", max(max_cycle // 2, 1))

    everything_easy = Classification(
        acd=acd,
        hard=[],
        easy=list(range(acd.num_cliques)),
        reasons={
            index: classification.reasons.get(index, "dcc")
            for index in range(acd.num_cliques)
        },
        loopholes=loopholes,
    )
    stats = {
        "delta": setup.delta,
        "n": network.n,
        "num_cliques": acd.num_cliques,
        "max_dcc_size": max_cycle,
        "easy_phase": color_easy_and_loopholes(
            network, everything_easy, setup.colors, setup.palette,
            params=params, ledger=setup.ledger,
        ),
    }
    return finish_result(
        network, setup, algorithm="dcc-layering-baseline",
        stats=stats, verify=verify,
    )


def lifted_clique_cycle(
    network: Network, acd: ACD, index: int
) -> Loophole | None:
    """Lift a shortest clique-graph cycle through clique ``index`` to a
    non-clique even cycle of the base graph.

    A clique-graph cycle ``C = C_1, C_2, ..., C_k`` lifts by walking, in
    each ``C_i``, from the entry endpoint of the ``C_{i-1}``-``C_i`` edge
    to the exit endpoint of the ``C_i``-``C_{i+1}`` edge (adjacent inside
    the clique, or the same vertex); inter-clique hops alternate with
    intra-clique hops, giving an even cycle across >= 3 cliques — never a
    clique, hence a loophole (Definition 6, type 2).
    """
    # Build clique-level adjacency with a witness edge per clique pair.
    witness: dict[tuple[int, int], tuple[int, int]] = {}
    for u, v in network.edges():
        cu, cv = acd.clique_index[u], acd.clique_index[v]
        if cu == -1 or cv == -1 or cu == cv:
            continue
        key = (min(cu, cv), max(cu, cv))
        if key not in witness:
            witness[key] = (u, v) if cu < cv else (v, u)

    adjacency: dict[int, list[int]] = {}
    for a, b in witness:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)

    cycle = _shortest_cycle_through(adjacency, index)
    if cycle is None:
        return None

    # Lift: entry/exit vertices per clique along the cycle.
    lifted: list[int] = []
    k = len(cycle)
    for i in range(k):
        prev_clique = cycle[(i - 1) % k]
        this_clique = cycle[i]
        next_clique = cycle[(i + 1) % k]
        entry = _endpoint(witness, prev_clique, this_clique)
        exit_ = _endpoint(witness, next_clique, this_clique)
        if entry == exit_:
            lifted.append(entry)
        else:
            lifted.extend([entry, exit_])
    if len(lifted) % 2:
        # Parity fix: insert one extra intra-clique detour vertex in a
        # clique whose entry equals its exit (both neighbors stay
        # adjacent to the detour because the clique is complete).
        for i in range(k):
            this_clique = cycle[i]
            entry = _endpoint(witness, cycle[(i - 1) % k], this_clique)
            exit_ = _endpoint(witness, cycle[(i + 1) % k], this_clique)
            if entry == exit_:
                members = acd.cliques[this_clique]
                detour = next(
                    w
                    for w in members
                    if w != entry and w in network.adjacency[entry]
                )
                position = lifted.index(entry)
                lifted.insert(position + 1, detour)
                break
        else:
            return None
    if len(set(lifted)) != len(lifted):
        return None
    loophole = Loophole(tuple(lifted), "even-cycle")
    if not is_loophole(network, loophole, network.max_degree):
        return None
    return loophole


def _endpoint(
    witness: dict[tuple[int, int], tuple[int, int]], other: int, this: int
) -> int:
    """The witness-edge endpoint lying inside clique ``this``."""
    key = (min(other, this), max(other, this))
    pair = witness[key]
    return pair[0] if this == key[0] else pair[1]


def _shortest_cycle_through(
    adjacency: dict[int, list[int]], start: int
) -> list[int] | None:
    """Shortest cycle through ``start`` in the clique graph via BFS over
    its incident edges."""
    best: list[int] | None = None
    for first in adjacency.get(start, []):
        # BFS from `first` back to `start` avoiding the direct edge.
        parent = {first: start}
        queue = deque([first])
        found = None
        while queue and found is None:
            v = queue.popleft()
            for u in adjacency.get(v, []):
                if v == first and u == start:
                    continue
                if u == start:
                    found = v
                    break
                if u not in parent:
                    parent[u] = v
                    queue.append(u)
        if found is None:
            continue
        path = [found]
        while path[-1] != first:
            path.append(parent[path[-1]])
        cycle = [start] + list(reversed(path))
        if best is None or len(cycle) < len(best):
            best = cycle
    return best
