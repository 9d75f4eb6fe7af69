"""Tests for the randomized pipeline's internals (Section 4)."""

from __future__ import annotations

import random

import pytest

from repro.constants import AlgorithmParameters
from repro.core import classify_cliques, place_t_nodes
from repro.core.randomized import (
    _shattered_cliques,
    color_component,
    large_delta_threshold,
)
from repro.core.shattering import _bad_components
from repro.local import RoundLedger
from repro.verify import verify_coloring

PARAMS = AlgorithmParameters(epsilon=0.25)


@pytest.fixture(scope="module")
def classification(hard_instance, hard_acd):
    return classify_cliques(hard_instance.network, hard_acd)


class TestLargeDeltaThreshold:
    def test_monotone(self):
        assert large_delta_threshold(100) < large_delta_threshold(10 ** 6)

    def test_small_n(self):
        assert large_delta_threshold(1) == 1.0


class TestShatteredCliques:
    def test_no_triads_everything_bad(self, hard_instance, classification):
        colors: list[int | None] = [None] * hard_instance.n
        bad, depths, mapping, iterations = _shattered_cliques(
            hard_instance.network, classification, [], colors, layer_depth=6
        )
        assert sorted(bad) == sorted(classification.hard)
        assert iterations >= 1

    def test_full_coverage_no_bad(self, hard_instance, classification):
        rng = random.Random(0)
        placement = place_t_nodes(
            hard_instance.network, classification, rng=rng,
            max_iterations=4, target_bad_fraction=0.0,
        )
        colors: list[int | None] = [None] * hard_instance.n
        for triad in placement.triads:
            colors[triad.pair[0]] = 0
            colors[triad.pair[1]] = 0
        bad, depths, mapping, _ = _shattered_cliques(
            hard_instance.network, classification, placement.triads,
            colors, layer_depth=6,
        )
        assert not bad
        # Every uncolored hard vertex got a finite depth.
        assert all(d is not None for d in depths)

    def test_tight_horizon_creates_bad_cliques(
        self, hard_instance, classification
    ):
        rng = random.Random(1)
        placement = place_t_nodes(
            hard_instance.network, classification, rng=rng,
            activation_probability=0.05, max_iterations=1,
        )
        colors: list[int | None] = [None] * hard_instance.n
        for triad in placement.triads:
            colors[triad.pair[0]] = 0
            colors[triad.pair[1]] = 0
        bad, _, _, _ = _shattered_cliques(
            hard_instance.network, classification, placement.triads,
            colors, layer_depth=1,
        )
        # Depth 1 around a handful of T-nodes cannot cover 34 cliques.
        assert bad

    def test_depths_exclude_bad_cliques(self, hard_instance, classification):
        rng = random.Random(2)
        placement = place_t_nodes(
            hard_instance.network, classification, rng=rng,
            activation_probability=0.05, max_iterations=1,
        )
        colors: list[int | None] = [None] * hard_instance.n
        for triad in placement.triads:
            colors[triad.pair[0]] = 0
            colors[triad.pair[1]] = 0
        bad, depths, mapping, _ = _shattered_cliques(
            hard_instance.network, classification, placement.triads,
            colors, layer_depth=2,
        )
        acd = classification.acd
        bad_set = set(bad)
        for i, v in enumerate(mapping):
            assert acd.clique_index[v] not in bad_set
            assert depths[i] is not None and depths[i] <= 2


class TestColorComponent:
    def test_whole_graph_as_one_component(self, hard_instance, classification):
        """Zero T-nodes: the single component must color itself with the
        modified deterministic algorithm."""
        colors: list[int | None] = [None] * hard_instance.n
        components = _bad_components(
            hard_instance.network, classification, list(classification.hard)
        )
        assert len(components) == 1
        ledger = RoundLedger()
        color_component(
            hard_instance.network, classification, components[0],
            colors, list(range(16)), params=PARAMS, ledger=ledger,
        )
        verify_coloring(hard_instance.network, colors, 16)
        assert ledger.total_rounds > 0

    def test_small_component_uses_boundary_slack(
        self, hard_instance, classification
    ):
        """One bad clique surrounded by uncolored good cliques must be
        colored entirely through boundary loopholes."""
        colors: list[int | None] = [None] * hard_instance.n
        component = [classification.hard[0]]
        ledger = RoundLedger()
        color_component(
            hard_instance.network, classification, component,
            colors, list(range(16)), params=PARAMS, ledger=ledger,
        )
        members = classification.acd.cliques[component[0]]
        assert all(colors[v] is not None for v in members)
        outside = [
            v for v in range(hard_instance.n) if v not in set(members)
        ]
        assert all(colors[v] is None for v in outside)
