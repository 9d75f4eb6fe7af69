"""Phase 3 — Forming slack triads (Section 3.5, Definition 14, Lemma 15).

From the two outgoing ``F3`` edges ``e1 = (u, w)`` and ``e2 = (v, v')``
of a Type-I+ clique ``C``, the triad is ``(u, v, w)``: slack vertex
``u = tail(e1)``, slack pair ``{w, v} = {head(e1), tail(e2)}``.  The
pair is non-adjacent because ``w`` already has its single ``C``-neighbor
``u`` (Lemma 9, property 3); the triads are vertex-disjoint because
``F3`` is a matching and both edges leave ``C`` (Lemma 15).  All three
properties of Lemma 15 are verified at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import AlgorithmParameters, PAPER_PARAMETERS
from repro.core.hardness import Classification
from repro.core.sparsify_phase import SparsifiedMatching, incoming_bound
from repro.errors import InvariantViolation
from repro.local.ledger import RoundLedger
from repro.local.network import Network
from repro.obs.metrics import metric_gauge
from repro.obs.spans import span

#: O(1) LOCAL rounds: triads are formed from 1-hop information.
TRIAD_ROUNDS = 1

__all__ = ["SlackTriad", "TRIAD_ROUNDS", "form_slack_triads"]


@dataclass(frozen=True)
class SlackTriad:
    """An ordered slack triad (Definition 14) owned by a hard clique."""

    clique: int
    slack: int
    pair: tuple[int, int]

    @property
    def vertices(self) -> tuple[int, int, int]:
        return (self.slack, self.pair[0], self.pair[1])


def form_slack_triads(
    network: Network,
    classification: Classification,
    sparsified: SparsifiedMatching,
    *,
    params: AlgorithmParameters = PAPER_PARAMETERS,
    ledger: RoundLedger | None = None,
) -> tuple[list[SlackTriad], dict]:
    """Build one slack triad per Type-I+ clique and verify Lemma 15.

    Returns the triads plus a stats dict with the Lemma 15 (iii)
    pair-vertex counts (experiment E6).
    """
    if ledger is None:
        ledger = RoundLedger()
    acd = classification.acd
    clique_of = {
        v: index
        for index in classification.hard
        for v in acd.cliques[index]
    }

    outgoing: dict[int, list[tuple[int, int]]] = {}
    for tail, head in sparsified.edges:
        outgoing.setdefault(clique_of[tail], []).append((tail, head))

    triads: list[SlackTriad] = []
    with span("hard/phase3/triads", ledger=ledger):
        for index in sparsified.type1plus:
            edges = sorted(
                outgoing.get(index, []), key=lambda e: network.uids[e[0]]
            )
            if len(edges) < 2:
                raise InvariantViolation(
                    f"Type I+ clique {index} has {len(edges)} outgoing F3 "
                    "edges; Lemma 13 guarantees exactly "
                    f"{params.outgoing_kept}"
                )
            (u, w), (v, _v_prime) = edges[0], edges[1]
            if w in network.adjacency[v]:
                raise InvariantViolation(
                    f"slack pair ({w}, {v}) of clique {index} is adjacent; "
                    "Lemma 9 property 3 (no outside vertex with two "
                    "neighbors in a hard clique) was violated"
                )
            if (
                v not in network.adjacency[u]
                or w not in network.adjacency[u]
            ):
                raise InvariantViolation(
                    f"triad ({u}, {v}, {w}) of clique {index} is not a "
                    "triad: both pair vertices must neighbor the slack "
                    "vertex"
                )
            triads.append(SlackTriad(clique=index, slack=u, pair=(w, v)))
        ledger.charge("hard/phase3/triads", TRIAD_ROUNDS)
    metric_gauge("phase3.num_triads", len(triads))

    _verify_disjoint(triads)

    # Lemma 15 property iii: count slack pair vertices per clique.  With
    # paper constants the count stays below the bound (it follows from
    # Lemma 13's incoming bound); with scaled-down test parameters the
    # pair-coloring phase re-checks the actual virtual degrees, so here
    # the numbers are only recorded for experiment E6.
    acd = classification.acd
    counts: dict[int, int] = {}
    for triad in triads:
        for vertex in triad.pair:
            index = acd.clique_index[vertex]
            counts[index] = counts.get(index, 0) + 1
    bound = incoming_bound(network.max_degree, params.epsilon) + 1
    stats = {
        "num_triads": len(triads),
        "worst_pair_vertices_per_clique": max(counts.values(), default=0),
        "pair_vertices_bound": bound,
    }
    return triads, stats


def _verify_disjoint(triads: list[SlackTriad]) -> None:
    seen: set[int] = set()
    for triad in triads:
        for vertex in triad.vertices:
            if vertex in seen:
                raise InvariantViolation(
                    f"slack triads are not vertex-disjoint at vertex "
                    f"{vertex} (Lemma 15, property ii)"
                )
            seen.add(vertex)
