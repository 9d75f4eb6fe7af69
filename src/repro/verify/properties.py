"""Per-lemma invariant checkers.

Each function corresponds to a numbered statement of the paper; tests
and benchmarks call them against live pipeline objects, and the
experiment harness reports them as pass/fail columns.
"""

from __future__ import annotations

from typing import Sequence

from repro.constants import AlgorithmParameters, PAPER_PARAMETERS
from repro.core.hardness import Classification
from repro.core.matching_phase import BalancedMatching
from repro.core.pair_coloring import build_pair_conflict_graph
from repro.core.sparsify_phase import SparsifiedMatching, incoming_bound
from repro.core.triads import SlackTriad
from repro.errors import InvariantViolation
from repro.local.network import Network

__all__ = [
    "check_lemma2",
    "check_lemma9",
    "check_lemma12",
    "check_lemma13",
    "check_lemma15",
    "check_lemma16",
    "check_observation3",
    "check_oriented_matching",
]


def check_lemma9(
    network: Network, classification: Classification, delta: int | None = None
) -> None:
    """Lemma 9: hard cliques are cliques of degree-Delta vertices with no
    shared outside neighbor."""
    if delta is None:
        delta = network.max_degree
    acd = classification.acd
    for index in classification.hard:
        members = acd.cliques[index]
        member_set = set(members)
        expected_external = delta - len(members) + 1
        for v in members:
            if network.degree(v) != delta:
                raise InvariantViolation(
                    f"Lemma 9.2: hard-clique vertex {v} has degree "
                    f"{network.degree(v)} != {delta}"
                )
            external = [u for u in network.adjacency[v] if u not in member_set]
            if len(external) != expected_external:
                raise InvariantViolation(
                    f"Lemma 9.2: vertex {v} has {len(external)} external "
                    f"neighbors, expected {expected_external}"
                )
            nv = network.neighbor_set(v)
            for u in members:
                if u != v and u not in nv:
                    raise InvariantViolation(
                        f"Lemma 9.1: hard clique {index} misses edge ({v}, {u})"
                    )
        outside_hits: dict[int, int] = {}
        for v in members:
            for u in network.adjacency[v]:
                if u not in member_set:
                    outside_hits[u] = outside_hits.get(u, 0) + 1
        for u, hits in outside_hits.items():
            if hits > 1:
                raise InvariantViolation(
                    f"Lemma 9.3: outside vertex {u} has {hits} neighbors in "
                    f"hard clique {index}"
                )


def check_oriented_matching(
    network: Network, edges: Sequence[tuple[int, int]]
) -> None:
    """The F2/F3 edge sets are matchings of actual graph edges."""
    used: set[int] = set()
    for tail, head in edges:
        if head not in network.adjacency[tail]:
            raise InvariantViolation(f"({tail}, {head}) is not an edge")
        if tail in used or head in used:
            raise InvariantViolation(
                f"matching property violated at ({tail}, {head})"
            )
        used.add(tail)
        used.add(head)


def check_lemma12(
    network: Network,
    classification: Classification,
    balanced: BalancedMatching,
) -> None:
    """Lemma 12: F2 is an oriented matching and every Type I clique has
    at least the effective sub-clique count of outgoing edges."""
    check_oriented_matching(network, balanced.edges)
    clique_of = {
        v: index
        for index in classification.hard
        for v in classification.acd.cliques[index]
    }
    q = balanced.stats.get("subclique_count_effective", 0)
    outgoing = balanced.outgoing_per_clique(clique_of)
    for index in balanced.type1:
        if outgoing.get(index, 0) < q:
            raise InvariantViolation(
                f"Lemma 12: Type I clique {index} has {outgoing.get(index, 0)} "
                f"outgoing edges < q = {q}"
            )


def check_lemma13(
    network: Network,
    classification: Classification,
    sparsified: SparsifiedMatching,
    *,
    params: AlgorithmParameters = PAPER_PARAMETERS,
    strict_incoming: bool = True,
) -> None:
    """Lemma 13: F3 is an oriented matching; each Type I+ clique has
    exactly ``outgoing_kept`` outgoing edges; incoming edges stay below
    the bound (optional when running with scaled-down parameters)."""
    check_oriented_matching(network, sparsified.edges)
    acd = classification.acd
    clique_of = {
        v: index for index in classification.hard for v in acd.cliques[index]
    }
    outgoing: dict[int, int] = {}
    incoming: dict[int, int] = {}
    for tail, head in sparsified.edges:
        outgoing[clique_of[tail]] = outgoing.get(clique_of[tail], 0) + 1
        incoming[clique_of[head]] = incoming.get(clique_of[head], 0) + 1
    for index in sparsified.type1plus:
        if outgoing.get(index, 0) != params.outgoing_kept:
            raise InvariantViolation(
                f"Lemma 13: Type I+ clique {index} has "
                f"{outgoing.get(index, 0)} outgoing F3 edges, expected "
                f"{params.outgoing_kept}"
            )
    if strict_incoming:
        bound = incoming_bound(network.max_degree, params.epsilon)
        worst = max(incoming.values(), default=0)
        if worst >= bound:
            raise InvariantViolation(
                f"Lemma 13: a clique has {worst} incoming F3 edges "
                f">= bound {bound:.1f}"
            )


def check_lemma15(
    network: Network,
    classification: Classification,
    triads: Sequence[SlackTriad],
) -> None:
    """Lemma 15: triads are genuine, vertex-disjoint slack triads whose
    slack vertices sit in their own cliques."""
    acd = classification.acd
    seen: set[int] = set()
    for triad in triads:
        u = triad.slack
        w, v = triad.pair
        if acd.clique_index[u] != triad.clique:
            raise InvariantViolation(
                f"slack vertex {u} is not in clique {triad.clique}"
            )
        if v not in network.adjacency[u] or w not in network.adjacency[u]:
            raise InvariantViolation(
                f"triad {triad}: pair vertices must neighbor the slack vertex"
            )
        if w in network.adjacency[v]:
            raise InvariantViolation(f"triad {triad}: pair is adjacent")
        for x in triad.vertices:
            if x in seen:
                raise InvariantViolation(
                    f"Lemma 15.ii: triads overlap at vertex {x}"
                )
            seen.add(x)


def check_lemma16(
    network: Network, triads: Sequence[SlackTriad], delta: int | None = None
) -> int:
    """Lemma 16: the slack-pair conflict graph has max degree <= Delta-2.

    Returns the measured maximum degree.
    """
    if delta is None:
        delta = network.max_degree
    if not triads:
        return 0
    virtual = build_pair_conflict_graph(network, triads)
    if virtual.max_degree > delta - 2:
        raise InvariantViolation(
            f"Lemma 16: G_V max degree {virtual.max_degree} > Delta - 2 = "
            f"{delta - 2}"
        )
    return virtual.max_degree


def check_lemma2(network: Network, acd) -> None:
    """Lemma 2: the ACD's three properties hold for its epsilon."""
    delta = network.max_degree
    epsilon = acd.epsilon
    for index, members in enumerate(acd.cliques):
        if not (1 - epsilon / 4) * delta <= len(members) <= (1 + epsilon) * delta:
            raise InvariantViolation(
                f"Lemma 2 (i): almost-clique {index} has size {len(members)} "
                f"outside [{(1 - epsilon / 4) * delta:.1f}, "
                f"{(1 + epsilon) * delta:.1f}]"
            )
        member_set = set(members)
        for v in members:
            inside = sum(1 for u in network.adjacency[v] if u in member_set)
            if inside < (1 - epsilon) * delta:
                raise InvariantViolation(
                    f"Lemma 2 (ii): vertex {v} has only {inside} neighbors "
                    f"inside almost-clique {index}"
                )
    bound = (1 - epsilon / 2) * delta
    for v in range(network.n):
        counts: dict[int, int] = {}
        own = acd.clique_index[v]
        for u in network.adjacency[v]:
            index = acd.clique_index[u]
            if index != -1 and index != own:
                counts[index] = counts.get(index, 0) + 1
        for index, count in counts.items():
            if count > bound:
                raise InvariantViolation(
                    f"Lemma 2 (iii): vertex {v} has {count} neighbors in "
                    f"foreign almost-clique {index} (bound {bound:.1f})"
                )


def check_observation3(network: Network, acd) -> int:
    """Observation 3: every AC vertex has at most eps*Delta external
    neighbors.  Returns the measured maximum."""
    delta = network.max_degree
    bound = acd.epsilon * delta
    worst = 0
    for index, members in enumerate(acd.cliques):
        member_set = set(members)
        for v in members:
            external = sum(
                1 for u in network.adjacency[v] if u not in member_set
            )
            worst = max(worst, external)
            if external > bound:
                raise InvariantViolation(
                    f"Observation 3: vertex {v} of almost-clique {index} "
                    f"has {external} external neighbors (bound {bound:.1f})"
                )
    return worst
