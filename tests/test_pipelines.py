"""End-to-end tests for Theorems 1 and 2."""

from __future__ import annotations

import copy

import pytest

from repro import delta_color, verify_coloring
from repro.constants import AlgorithmParameters
from repro.baselines import dcc_layering_coloring, ghkm_randomized_coloring
from repro.acd import compute_acd
from repro.core import (
    classify_cliques,
    delta_color_deterministic,
    delta_color_general,
    delta_color_randomized,
)
from repro.errors import GraphStructureError, NotDenseError
from repro.graphs import hard_clique_graph, hard_clique_torus, mixed_dense_graph
from repro.local import Network
from tests.conftest import random_network

PARAMS = AlgorithmParameters(epsilon=0.25)


class TestDeterministic:
    def test_all_hard_instance(self, hard_instance, hard_acd):
        result = delta_color_deterministic(hard_instance.network, params=PARAMS)
        verify_coloring(
            hard_instance.network, result.colors, hard_instance.delta
        )
        assert result.num_colors == 16
        assert result.rounds > 0
        colors = result.colors
        # Every hard clique is complete, so it uses the whole palette.
        assert all(
            len({colors[v] for v in members}) == 16
            for members in hard_acd.cliques
        )
        # Each of the 34 cliques planted a slack pair, so at least 34
        # vertices see two same-colored neighbors (a distance-2 pair).
        with_slack = sum(
            1 for row in hard_instance.network.adjacency
            if len({colors[u] for u in row}) < len(row)
        )
        assert with_slack >= 34

    def test_mixed_instance(self, mixed_instance):
        result = delta_color_deterministic(mixed_instance.network, params=PARAMS)
        verify_coloring(
            mixed_instance.network, result.colors, mixed_instance.delta
        )
        assert result.stats["easy_cliques"] == 10
        assert result.stats["easy_phase"]["loopholes"] == 10

    def test_seeded_instance(self):
        instance = hard_clique_graph(34, 16, seed=13)
        result = delta_color_deterministic(instance.network, params=PARAMS)
        verify_coloring(instance.network, result.colors, 16)

    def test_mostly_easy_instance(self):
        instance = mixed_dense_graph(34, 16, easy_fraction=0.9, seed=3)
        result = delta_color_deterministic(instance.network, params=PARAMS)
        verify_coloring(instance.network, result.colors, 16)

    def test_deterministic_is_reproducible(self, hard_instance):
        a = delta_color_deterministic(hard_instance.network, params=PARAMS)
        b = delta_color_deterministic(hard_instance.network, params=PARAMS)
        assert a.colors == b.colors
        assert a.rounds == b.rounds

    def test_phase_ledger_structure(self, hard_instance):
        result = delta_color_deterministic(hard_instance.network, params=PARAMS)
        breakdown = result.phase_rounds()
        assert {"acd", "classify", "hard"} <= set(breakdown)
        assert result.rounds == sum(breakdown.values())

    def test_torus_below_triad_regime_fails_loudly(self):
        """Delta = 4 cannot host two sub-cliques above the hypergraph
        rank, so the pipeline must refuse with a clear diagnosis instead
        of producing an improper coloring."""
        from repro.acd import compute_acd
        from repro.core.hardness import classify_cliques
        from repro.errors import InvariantViolation

        instance = hard_clique_torus(6, 6)
        params = AlgorithmParameters(epsilon=0.45)
        acd = compute_acd(instance.network, epsilon=0.45, eta=0.55)
        classification = classify_cliques(instance.network, acd)
        with pytest.raises(InvariantViolation, match="Delta is too small"):
            delta_color_deterministic(
                instance.network, params=params, classification=classification
            )

    def test_sparse_graph_rejected(self):
        net = random_network(60, 180, seed=5)
        with pytest.raises(NotDenseError):
            delta_color_deterministic(net, params=PARAMS)

    def test_delta_plus_one_clique_rejected(self):
        net = Network.from_edges(
            4, [(i, j) for i in range(4) for j in range(i + 1, 4)]
        )
        with pytest.raises(GraphStructureError):
            delta_color_deterministic(net, params=PARAMS)

    def test_tiny_delta_rejected(self):
        net = Network.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphStructureError, match="Delta"):
            delta_color_deterministic(net)


class TestRandomized:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_seeds(self, hard_instance, seed):
        result = delta_color_randomized(
            hard_instance.network, params=PARAMS, seed=seed
        )
        verify_coloring(hard_instance.network, result.colors, 16)

    def test_mixed_instance(self, mixed_instance):
        result = delta_color_randomized(
            mixed_instance.network, params=PARAMS, seed=7
        )
        verify_coloring(mixed_instance.network, result.colors, 16)

    def test_seed_reproducibility(self, hard_instance):
        a = delta_color_randomized(hard_instance.network, params=PARAMS, seed=11)
        b = delta_color_randomized(hard_instance.network, params=PARAMS, seed=11)
        assert a.colors == b.colors

    def test_components_path(self, hard_instance):
        """Low activation probability forces shattered components through
        the modified deterministic post-shattering."""
        exercised = False
        for seed in range(8):
            result = delta_color_randomized(
                hard_instance.network, params=PARAMS, seed=seed,
                activation_probability=0.02,
            )
            verify_coloring(hard_instance.network, result.colors, 16)
            if result.stats["shattering"]["bad_cliques"] > 0:
                exercised = True
        assert exercised

    def test_large_delta_branch(self, hard_instance):
        result = delta_color_randomized(
            hard_instance.network, params=PARAMS, seed=1,
            force_branch="large-delta",
        )
        verify_coloring(hard_instance.network, result.colors, 16)
        assert result.stats["branch"] == "large-delta"

    def test_randomized_faster_than_deterministic(self, hard_instance):
        det = delta_color_deterministic(hard_instance.network, params=PARAMS)
        rand = delta_color_randomized(
            hard_instance.network, params=PARAMS, seed=0
        )
        assert rand.rounds < det.rounds

    def test_unknown_branch_rejected(self, hard_instance, monkeypatch):
        def no_acd(*args, **kwargs):
            raise AssertionError("ACD computed before the branch check")

        for module in ("repro.core.deterministic", "repro.core.randomized"):
            monkeypatch.setattr(f"{module}.compute_acd", no_acd, raising=False)
        with pytest.raises(ValueError, match="branch"):
            delta_color_randomized(
                hard_instance.network, params=PARAMS, seed=0,
                force_branch="quantum",
            )


@pytest.mark.parametrize(
    "pipeline",
    [
        delta_color_deterministic,
        delta_color_randomized,
        delta_color_general,
        ghkm_randomized_coloring,
        dcc_layering_coloring,
    ],
)
def test_small_delta_rejected_uniformly(pipeline):
    cycle = Network.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(GraphStructureError, match="Delta = 2.*Brooks"):
        pipeline(cycle, params=PARAMS)


@pytest.mark.parametrize("kind", ["hard", "mixed"])
def test_shared_classification_is_never_mutated(
    kind, hard_instance, mixed_instance
):
    """One classification may serve many runs: no pipeline writes to it,
    and a run given it colors exactly as a run that computes its own."""
    network = (hard_instance if kind == "hard" else mixed_instance).network
    shared = classify_cliques(
        network, compute_acd(network, epsilon=PARAMS.epsilon)
    )
    before = copy.deepcopy(shared)
    given = delta_color_deterministic(
        network, params=PARAMS, classification=shared
    )
    fresh = delta_color_deterministic(network, params=PARAMS)
    assert given.colors == fresh.colors
    assert given.phase_rounds() == fresh.phase_rounds()
    for seed in (0, 1, 2):
        given = delta_color_randomized(
            network, params=PARAMS, seed=seed, classification=shared
        )
        if seed == 0:
            fresh = delta_color_randomized(network, params=PARAMS, seed=seed)
            assert given.colors == fresh.colors
            assert given.phase_rounds() == fresh.phase_rounds()
    assert shared == before


class TestPublicApi:
    def test_dispatch_deterministic(self, hard_instance):
        result = delta_color(hard_instance.network, epsilon=0.25)
        assert result.algorithm.startswith("deterministic")

    def test_dispatch_randomized(self, hard_instance):
        result = delta_color(
            hard_instance.network, method="randomized", epsilon=0.25, seed=0
        )
        assert result.algorithm.startswith("randomized")

    def test_unknown_method(self, hard_instance):
        with pytest.raises(ValueError, match="method"):
            delta_color(hard_instance.network, method="magic")

    def test_params_override_epsilon(self, hard_instance):
        result = delta_color(hard_instance.network, params=PARAMS, epsilon=0.5)
        verify_coloring(hard_instance.network, result.colors, 16)


@pytest.mark.slow
class TestPaperScale:
    def test_paper_constants_deterministic(self):
        instance = hard_clique_graph(130, 63, seed=1)
        result = delta_color_deterministic(instance.network)
        verify_coloring(instance.network, result.colors, 63)
        assert result.stats["phase1"]["heg_ratio"] > 1.1
        assert result.stats["phase2"]["incoming_bound_satisfied"]

    def test_paper_constants_randomized(self):
        instance = hard_clique_graph(130, 63, seed=1)
        result = delta_color_randomized(instance.network, seed=0)
        verify_coloring(instance.network, result.colors, 63)
