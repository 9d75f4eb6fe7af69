"""ID-robustness: symmetry breaking must work for any unique ID assignment.

All deterministic symmetry breaking in the LOCAL model goes through the
identifiers; these tests shuffle and inflate the uids and assert every
pipeline still produces verified colorings (with possibly different —
but always proper — outputs).
"""

from __future__ import annotations

import random

import pytest

from repro.constants import AlgorithmParameters
from repro.core import delta_color_deterministic, delta_color_randomized
from repro.graphs import hard_clique_graph, mixed_dense_graph
from repro.local import Network
from repro.verify.coloring import verify_coloring

PARAMS = AlgorithmParameters(epsilon=0.25)


def reuid(network: Network, seed: int, *, inflate: bool = False) -> Network:
    rng = random.Random(seed)
    uids = list(range(network.n))
    rng.shuffle(uids)
    if inflate:
        uids = [u * 9973 + 17 for u in uids]
    return Network(network.adjacency, uids, name=network.name, validate_structure=False)


class TestIdRobustness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_deterministic_under_shuffled_ids(self, hard_instance, seed):
        shuffled = reuid(hard_instance.network, seed)
        result = delta_color_deterministic(shuffled, params=PARAMS)
        verify_coloring(shuffled, result.colors, 16)

    def test_deterministic_under_inflated_ids(self, hard_instance):
        inflated = reuid(hard_instance.network, 4, inflate=True)
        result = delta_color_deterministic(inflated, params=PARAMS)
        verify_coloring(inflated, result.colors, 16)

    def test_randomized_under_shuffled_ids(self, hard_instance):
        shuffled = reuid(hard_instance.network, 5)
        result = delta_color_randomized(shuffled, params=PARAMS, seed=0)
        verify_coloring(shuffled, result.colors, 16)

    def test_mixed_instance_under_shuffled_ids(self):
        instance = mixed_dense_graph(34, 16, easy_fraction=0.3, seed=2)
        shuffled = reuid(instance.network, 6)
        result = delta_color_deterministic(shuffled, params=PARAMS)
        verify_coloring(shuffled, result.colors, 16)

    def test_different_ids_may_change_but_never_break_output(
        self, hard_instance
    ):
        a = delta_color_deterministic(
            reuid(hard_instance.network, 7), params=PARAMS
        )
        b = delta_color_deterministic(
            reuid(hard_instance.network, 8), params=PARAMS
        )
        # Both proper; equality is not required (and typically false).
        assert len(a.colors) == len(b.colors)


class TestExternalDegreeTwo:
    """Pipelines on k = 2 instances: heterogeneous anchors, possibly a
    few easy cliques from exotic loopholes (H4 hits)."""

    @pytest.fixture(scope="class")
    def k2_instance(self):
        return hard_clique_graph(64, 16, external_per_vertex=2, seed=1)

    def test_deterministic(self, k2_instance):
        result = delta_color_deterministic(k2_instance.network, params=PARAMS)
        verify_coloring(k2_instance.network, result.colors, 16)

    def test_randomized(self, k2_instance):
        result = delta_color_randomized(
            k2_instance.network, params=PARAMS, seed=0
        )
        verify_coloring(k2_instance.network, result.colors, 16)

    def test_lemma9_external_count(self, k2_instance):
        """Lemma 9.2 with |C| = Delta - 1: e_C = 2 external neighbors."""
        from repro.acd import compute_acd
        from repro.core import classify_cliques

        acd = compute_acd(k2_instance.network, epsilon=0.25)
        classification = classify_cliques(k2_instance.network, acd)
        net = k2_instance.network
        for index in classification.hard[:5]:
            members = set(acd.cliques[index])
            for v in members:
                external = [u for u in net.adjacency[v] if u not in members]
                assert len(external) == 16 - len(members) + 1 == 2
