"""Algorithm 1 — deterministic Delta-coloring of dense graphs (Theorem 1).

Pipeline:

1. ACD (Lemma 2) and hard/easy classification (Definitions 6/8).
2. Hard cliques (Algorithm 2): balanced matching -> sparsification ->
   slack triads -> slack-pair coloring -> two finishing instances.
3. Easy cliques and loopholes (Algorithm 3).

The returned :class:`~repro.types.ColoringResult` carries the verified
coloring, the per-phase round ledger (Lemma 18 / experiment E7), and the
structural statistics every experiment consumes.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.acd.decomposition import ACD, ACD_ROUNDS, compute_acd
from repro.constants import AlgorithmParameters, PAPER_PARAMETERS
from repro.core.easy_coloring import color_easy_and_loopholes
from repro.core.finish_coloring import finish_hard_cliques
from repro.core.gc_pause import paused_collector
from repro.core.hardness import CLASSIFY_ROUNDS, Classification, classify_cliques
from repro.core.matching_phase import compute_balanced_matching
from repro.core.pair_coloring import color_slack_pairs
from repro.core.sparsify_phase import sparsify_matching
from repro.core.triads import form_slack_triads
from repro.errors import GraphStructureError
from repro.graphs.validation import assert_no_delta_plus_one_clique
from repro.local.ledger import RoundLedger
from repro.local.network import Network
from repro.obs.metrics import metric_gauge
from repro.obs.spans import span
from repro.types import ColoringResult
from repro.verify.coloring import verify_coloring

__all__ = ["delta_color_deterministic"]


class DenseSetup(NamedTuple):
    """What line 1 of Algorithm 1 hands every Delta-coloring pipeline."""

    delta: int
    acd: ACD
    classification: Classification
    ledger: RoundLedger
    palette: list[int]
    colors: list[int | None]


def dense_setup(
    network: Network,
    *,
    params: AlgorithmParameters,
    classification: Classification | None,
    validate_input: bool,
    require_dense: bool = True,
) -> DenseSetup:
    """Line 1 of Algorithm 1: ACD (Lemma 2) and hard/easy classification
    (Definitions 6/8), shared by all Delta-coloring pipelines.

    Rejects Delta < 3 and, when ``validate_input`` is set, a
    (Delta+1)-clique.  A given ``classification`` (of this network at
    ``params.epsilon``; its ``.acd`` is the ACD) replaces both
    computations, which depend on nothing else: the rounds and gauges
    are the same either way, and no pipeline mutates it, so one
    classification may serve many runs.  ``require_dense=False`` admits
    sparse vertices (the sparse extension); otherwise they raise
    :class:`~repro.errors.NotDenseError`.
    """
    delta = network.max_degree
    if delta < 3:
        raise GraphStructureError(
            f"Delta = {delta}: the Delta-coloring problem is only "
            "considered for Delta >= 3 (Brooks' theorem handles smaller "
            "degrees separately)"
        )
    if validate_input:
        assert_no_delta_plus_one_clique(network)

    ledger = RoundLedger()
    palette = list(range(delta))
    with span("acd", ledger=ledger):
        acd = (
            compute_acd(network, params.epsilon)
            if classification is None
            else classification.acd
        )
        if require_dense:
            acd.require_dense()
        ledger.charge("acd", ACD_ROUNDS)
    with span("classify", ledger=ledger):
        if classification is None:
            classification = classify_cliques(network, acd, delta=delta)
        ledger.charge("classify", CLASSIFY_ROUNDS)
    metric_gauge("acd.num_cliques", acd.num_cliques)
    metric_gauge("classify.hard_cliques", len(classification.hard))
    metric_gauge("classify.easy_cliques", len(classification.easy))
    metric_gauge("palette.size", len(palette))
    return DenseSetup(
        delta, acd, classification, ledger, palette, [None] * network.n
    )


def finish_result(
    network: Network,
    setup: DenseSetup,
    *,
    algorithm: str,
    stats: dict,
    verify: bool,
) -> ColoringResult:
    """Verify the finished coloring (unless ``verify`` is off) and wrap it."""
    if verify:
        verify_coloring(network, setup.colors, setup.delta)
    return ColoringResult(
        colors=list(setup.colors),  # type: ignore[arg-type]
        num_colors=setup.delta,
        ledger=setup.ledger,
        algorithm=algorithm,
        stats=stats,
    )


@paused_collector
def delta_color_deterministic(
    network: Network,
    *,
    params: AlgorithmParameters = PAPER_PARAMETERS,
    classification: Classification | None = None,
    validate_input: bool = True,
    verify: bool = True,
) -> ColoringResult:
    """Delta-color a dense graph deterministically (Theorem 1).

    Raises :class:`~repro.errors.NotDenseError` when the ACD contains
    sparse vertices and :class:`~repro.errors.GraphStructureError` on a
    (Delta+1)-clique (where no Delta-coloring exists).
    """
    # --- Line 1: ACD and classification. --------------------------------
    setup = dense_setup(
        network, params=params, classification=classification,
        validate_input=validate_input,
    )
    ledger, palette, colors = setup.ledger, setup.palette, setup.colors
    classification = setup.classification

    stats: dict = {
        "delta": setup.delta,
        "n": network.n,
        "num_cliques": setup.acd.num_cliques,
        "hard_cliques": len(classification.hard),
        "easy_cliques": len(classification.easy),
    }

    # --- Line 2: color vertices in hard cliques (Algorithm 2). ----------
    triads = []
    if classification.hard:
        with span("hard", ledger=ledger):
            balanced = compute_balanced_matching(
                network, classification, params=params, ledger=ledger
            )
            stats["phase1"] = balanced.stats
            sparsified = sparsify_matching(
                network, classification, balanced, params=params, ledger=ledger
            )
            stats["phase2"] = sparsified.stats
            triads, triad_stats = form_slack_triads(
                network, classification, sparsified, params=params, ledger=ledger
            )
            stats["phase3"] = triad_stats
            pair_colors, pair_stats = color_slack_pairs(
                network, triads, palette, ledger=ledger
            )
            stats["phase4a"] = pair_stats
            for vertex, color in pair_colors.items():
                colors[vertex] = color
            finish_hard_cliques(
                network, classification, triads, colors, palette, ledger=ledger
            )

    # --- Line 3: color easy cliques and loopholes (Algorithm 3). --------
    with span("easy", ledger=ledger):
        stats["easy_phase"] = color_easy_and_loopholes(
            network, classification, colors, palette, params=params,
            ledger=ledger,
        )

    return finish_result(
        network, setup, algorithm="deterministic-delta-coloring",
        stats=stats, verify=verify,
    )
