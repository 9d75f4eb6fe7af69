"""Tests for Algorithm 2's phases (Lemmas 10-17)."""

from __future__ import annotations

import pytest

from repro.acd import compute_acd
from repro.core import (
    classify_cliques,
    color_slack_pairs,
    compute_balanced_matching,
    finish_hard_cliques,
    form_slack_triads,
    sparsify_matching,
)
from repro.constants import AlgorithmParameters
from repro.core import finish_coloring
from repro.core.finish_coloring import color_instance
from repro.errors import InvariantViolation, SubroutineError
from repro.graphs import hard_clique_graph
from repro.local import Network, RoundLedger
from repro.subroutines import deg_list_coloring
from repro.verify import (
    check_lemma12,
    check_lemma13,
    check_lemma15,
    check_lemma16,
)

PARAMS = AlgorithmParameters(epsilon=0.25)


@pytest.fixture(scope="module")
def pipeline(hard_instance, hard_acd):
    """One full hard-phase pipeline, shared across the module's tests."""
    network = hard_instance.network
    classification = classify_cliques(network, hard_acd)
    ledger = RoundLedger()
    balanced = compute_balanced_matching(
        network, classification, params=PARAMS, ledger=ledger
    )
    sparsified = sparsify_matching(
        network, classification, balanced, params=PARAMS, ledger=ledger
    )
    triads, triad_stats = form_slack_triads(
        network, classification, sparsified, params=PARAMS, ledger=ledger
    )
    return {
        "network": network,
        "classification": classification,
        "balanced": balanced,
        "sparsified": sparsified,
        "triads": triads,
        "triad_stats": triad_stats,
        "ledger": ledger,
    }


class TestPhase1:
    def test_lemma11_ratio(self, pipeline):
        stats = pipeline["balanced"].stats
        assert stats["min_degree_H"] > stats["rank_H"]
        assert stats["heg_ratio"] > 1.1

    def test_lemma12(self, pipeline):
        check_lemma12(
            pipeline["network"], pipeline["classification"], pipeline["balanced"]
        )

    def test_all_cliques_are_type1_on_all_hard_instance(self, pipeline):
        assert len(pipeline["balanced"].type1) == 34
        assert not pipeline["balanced"].type2

    def test_f2_heads_and_tails_in_different_cliques(self, pipeline):
        owner = {
            v: index
            for index, members in enumerate(
                pipeline["classification"].acd.cliques
            )
            for v in members
        }
        for tail, head in pipeline["balanced"].edges:
            assert owner[tail] != owner[head]

    def test_f1_is_maximal_matching(self, pipeline, hard_instance):
        f1 = pipeline["balanced"].f1
        used = {v for edge in f1 for v in edge}
        assert len(used) == 2 * len(f1)
        owner = hard_instance.clique_of()
        for u, v in hard_instance.network.edges():
            if owner[u] != owner[v]:
                assert u in used or v in used


class TestPhase2:
    def test_lemma13(self, pipeline):
        check_lemma13(
            pipeline["network"],
            pipeline["classification"],
            pipeline["sparsified"],
            params=PARAMS,
            strict_incoming=False,
        )

    def test_exactly_two_outgoing(self, pipeline):
        owner = {
            v: index
            for index, members in enumerate(
                pipeline["classification"].acd.cliques
            )
            for v in members
        }
        outgoing: dict[int, int] = {}
        for tail, _ in pipeline["sparsified"].edges:
            outgoing[owner[tail]] = outgoing.get(owner[tail], 0) + 1
        assert all(count == 2 for count in outgoing.values())
        assert len(outgoing) == 34

    def test_f3_subset_of_f2(self, pipeline):
        assert set(pipeline["sparsified"].edges) <= set(
            pipeline["balanced"].edges
        )

    def test_stats_recorded(self, pipeline):
        stats = pipeline["sparsified"].stats
        assert stats["f3_size"] == 2 * 34
        assert "worst_incoming" in stats


class TestPhase3:
    def test_lemma15(self, pipeline):
        check_lemma15(
            pipeline["network"], pipeline["classification"], pipeline["triads"]
        )

    def test_one_triad_per_clique(self, pipeline):
        assert len(pipeline["triads"]) == 34
        assert len({t.clique for t in pipeline["triads"]}) == 34

    def test_stats(self, pipeline):
        assert pipeline["triad_stats"]["num_triads"] == 34


class TestPhase4:
    def test_lemma16_degree_bound(self, pipeline, hard_instance):
        measured = check_lemma16(
            pipeline["network"], pipeline["triads"], hard_instance.delta
        )
        assert measured <= hard_instance.delta - 2

    def test_pairs_same_colored(self, pipeline, hard_instance):
        ledger = RoundLedger()
        palette = list(range(hard_instance.delta))
        assignment, stats = color_slack_pairs(
            pipeline["network"], pipeline["triads"], palette, ledger=ledger
        )
        for triad in pipeline["triads"]:
            w, v = triad.pair
            assert assignment[w] == assignment[v]
        assert ledger.total_rounds > 0

    def test_pair_coloring_respects_existing_colors(self, pipeline, hard_instance):
        network = pipeline["network"]
        existing: list[int | None] = [None] * network.n
        # Forbid color 0 everywhere by coloring nothing but shrinking
        # the palette instead; also exercise the existing_colors path by
        # pre-coloring one non-pair vertex.
        triad_vertices = {v for t in pipeline["triads"] for v in t.vertices}
        outsider = next(
            v for v in range(network.n) if v not in triad_vertices
        )
        existing[outsider] = 3
        palette = list(range(1, hard_instance.delta))
        assignment, _ = color_slack_pairs(
            pipeline["network"], pipeline["triads"], palette,
            existing_colors=existing, ledger=RoundLedger(),
        )
        for vertex, color in assignment.items():
            assert color >= 1
            if outsider in network.neighbor_set(vertex):
                assert color != 3

    def test_finish_colors_everything(self, pipeline, hard_instance):
        network = pipeline["network"]
        palette = list(range(hard_instance.delta))
        colors: list[int | None] = [None] * network.n
        assignment, _ = color_slack_pairs(
            network, pipeline["triads"], palette, ledger=RoundLedger()
        )
        for vertex, color in assignment.items():
            colors[vertex] = color
        finish_hard_cliques(
            network, pipeline["classification"], pipeline["triads"],
            colors, palette, ledger=RoundLedger(),
        )
        assert all(c is not None for c in colors)
        for u, v in network.edges():
            if colors[u] == colors[v]:
                # Same color is only legal for the non-adjacent pairs.
                assert v not in network.neighbor_set(u)


class TestColorInstance:
    """One (deg+1) list check per Lemma 17 instance, and the
    post-coloring check still in place."""

    @staticmethod
    def path():
        return Network.from_edges(4, [(0, 1), (1, 2), (2, 3)])

    def test_short_list_names_lemma17(self):
        with pytest.raises(InvariantViolation, match="Lemma 17"):
            color_instance(
                self.path(), range(4), [None] * 4, [0, 1],
                label="short", ledger=RoundLedger(),
            )

    @pytest.mark.parametrize("deterministic", [True, False])
    def test_kernels_skip_their_own_list_check(self, monkeypatch, deterministic):
        def fail(*args):
            raise AssertionError("validate_lists ran twice")

        monkeypatch.setattr(deg_list_coloring, "validate_lists", fail)
        colors: list[int | None] = [None, None, 2, None]
        color_instance(
            self.path(), range(4), colors, [0, 1, 2], label="ok",
            ledger=RoundLedger(), deterministic=deterministic, seed=1,
        )
        assert None not in colors
        assert all(colors[v] != colors[v + 1] for v in range(3))

    def test_improper_kernel_output_is_caught(self, monkeypatch):
        real = finish_coloring.deg_plus_one_list_coloring

        def improper(network, lists, **kwargs):
            _, result = real(network, lists, **kwargs)
            return [lists[v][0] for v in range(network.n)], result

        monkeypatch.setattr(finish_coloring, "deg_plus_one_list_coloring", improper)
        with pytest.raises(SubroutineError, match="conflict"):
            color_instance(
                self.path(), range(4), [None] * 4, [0, 1, 2],
                label="bad", ledger=RoundLedger(),
            )


class TestParameterEdgeCases:
    def test_tiny_delta_rejected_when_unsplittable(self):
        instance = hard_clique_graph(18, 8)
        acd = compute_acd(instance.network, epsilon=0.3)
        classification = classify_cliques(instance.network, acd)
        params = AlgorithmParameters(epsilon=0.3)
        # Delta = 8 cliques still admit q >= 2 here; the call must either
        # succeed or raise the explicit InvariantViolation, never produce
        # an invalid matching.
        try:
            balanced = compute_balanced_matching(
                instance.network, classification, params=params
            )
        except InvariantViolation:
            return
        check_lemma12(instance.network, classification, balanced)
