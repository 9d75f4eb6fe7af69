"""Tests for the instance generators."""

from __future__ import annotations

import random

import pytest

from repro.errors import GraphStructureError
from repro.graphs import (
    check_instance,
    clique_blowup,
    count_inter_clique_multiplicity,
    hard_clique_graph,
    hard_clique_torus,
    isolated_cliques,
    mixed_dense_graph,
    regular_bipartite_graph,
)
from repro.local import Network


class TestRegularBipartite:
    def test_degrees(self):
        adjacency = regular_bipartite_graph(10, 4)
        assert all(len(nbrs) == 4 for nbrs in adjacency)

    def test_simple(self):
        adjacency = regular_bipartite_graph(10, 4)
        assert all(len(set(nbrs)) == len(nbrs) for nbrs in adjacency)

    def test_bipartite(self):
        half = 8
        adjacency = regular_bipartite_graph(half, 3)
        for left in range(half):
            assert all(nbr >= half for nbr in adjacency[left])

    def test_randomized_still_regular_and_simple(self):
        import random

        adjacency = regular_bipartite_graph(20, 18, random.Random(3))
        assert all(len(nbrs) == 18 for nbrs in adjacency)
        assert all(len(set(nbrs)) == len(nbrs) for nbrs in adjacency)

    def test_degree_exceeding_half_rejected(self):
        with pytest.raises(GraphStructureError):
            regular_bipartite_graph(3, 4)


class TestHardCliqueGraph:
    def test_structure_small(self, hard_instance):
        check_instance(hard_instance)
        assert hard_instance.delta == 16
        assert hard_instance.num_cliques == 34
        assert hard_instance.n == 34 * 16

    def test_single_inter_clique_edge(self, hard_instance):
        assert count_inter_clique_multiplicity(hard_instance) == 1

    def test_every_vertex_has_one_external_edge(self, hard_instance):
        owner = hard_instance.clique_of()
        network = hard_instance.network
        for v in range(network.n):
            external = [
                u for u in network.adjacency[v] if owner[u] != owner[v]
            ]
            assert len(external) == 1

    def test_seeded_generation_is_reproducible(self):
        a = hard_clique_graph(34, 16, seed=5)
        b = hard_clique_graph(34, 16, seed=5)
        assert a.network.edges() == b.network.edges()

    def test_different_seeds_differ(self):
        a = hard_clique_graph(34, 16, seed=5)
        b = hard_clique_graph(34, 16, seed=6)
        assert a.network.edges() != b.network.edges()

    def test_external_degree_two(self):
        instance = hard_clique_graph(64, 16, external_per_vertex=2, seed=1)
        check_instance(instance)
        owner = instance.clique_of()
        for v in range(instance.n):
            external = [
                u
                for u in instance.network.adjacency[v]
                if owner[u] != owner[v]
            ]
            assert len(external) == 2

    def test_odd_clique_count_rejected(self):
        with pytest.raises(GraphStructureError, match="even"):
            hard_clique_graph(33, 16)

    def test_too_few_cliques_rejected(self):
        with pytest.raises(GraphStructureError, match="num_cliques"):
            hard_clique_graph(10, 16)


class TestOtherGenerators:
    def test_torus(self):
        instance = hard_clique_torus(4, 4)
        check_instance(instance)
        assert instance.delta == 4
        assert instance.num_cliques == 16

    def test_torus_rejects_odd_dimensions(self):
        with pytest.raises(GraphStructureError):
            hard_clique_torus(3, 4)

    def test_isolated_cliques(self):
        instance = isolated_cliques(3, 5)
        assert instance.delta == 4
        assert instance.network.edge_count == 3 * 10

    def test_mixed_marks_easy_cliques(self, mixed_instance):
        easy = mixed_instance.meta["easy_cliques"]
        assert len(easy) == round(0.3 * 34)
        check_instance(mixed_instance, expect_regular=False)
        owner = mixed_instance.clique_of()
        degrees = [
            mixed_instance.network.degree(v) for v in range(mixed_instance.n)
        ]
        low = [v for v, d in enumerate(degrees) if d < 16]
        assert len(low) == 2 * len(easy)
        assert {owner[v] for v in low} == set(easy)

    def test_mixed_fraction_bounds(self):
        with pytest.raises(GraphStructureError):
            mixed_dense_graph(34, 16, easy_fraction=1.5)

    def test_blowup_rejects_wrong_degree(self):
        clique_graph = [[1], [0]]  # degree 1, but clique size 2 * k 1 = 2
        with pytest.raises(GraphStructureError, match="degree"):
            clique_blowup(clique_graph, 2, 1)

    def test_blowup_rejects_parallel_edges(self):
        clique_graph = [[1, 1], [0, 0]]
        with pytest.raises(GraphStructureError, match="parallel"):
            clique_blowup(clique_graph, 2, 1)


class TestProjectivePlane:
    def test_structure(self):
        from repro.graphs import projective_plane_clique_graph

        instance = projective_plane_clique_graph(5)
        check_instance(instance)
        assert instance.delta == 6
        assert instance.num_cliques == 2 * (25 + 5 + 1)
        assert count_inter_clique_multiplicity(instance) == 1

    def test_girth_six_clique_graph(self):
        """No two cliques share a neighbor pair (girth >= 6: any two
        clique-graph nodes have at most one common neighbor)."""
        from itertools import combinations

        from repro.graphs import projective_plane_clique_graph

        instance = projective_plane_clique_graph(3)
        neighbor_sets = [set(nbrs) for nbrs in instance.clique_graph]
        for a, b in combinations(range(instance.num_cliques), 2):
            assert len(neighbor_sets[a] & neighbor_sets[b]) <= 1

    def test_all_cliques_hard(self):
        from repro.acd import compute_acd
        from repro.core import classify_cliques
        from repro.graphs import projective_plane_clique_graph

        instance = projective_plane_clique_graph(7)
        acd = compute_acd(instance.network, epsilon=0.2)
        classification = classify_cliques(instance.network, acd)
        assert len(classification.hard) == instance.num_cliques

    def test_composite_q_rejected(self):
        from repro.graphs import projective_plane_clique_graph

        with pytest.raises(GraphStructureError, match="prime"):
            projective_plane_clique_graph(4)


class TestHeterogeneousCliques:
    def test_structure(self):
        from repro.graphs import heterogeneous_hard_cliques

        instance = heterogeneous_hard_cliques(2, 16, seed=1)
        check_instance(instance)
        assert instance.delta == 16
        sizes = {len(c) for c in instance.cliques}
        assert sizes == {15, 16}

    def test_heterogeneous_external_counts(self):
        from repro.graphs import heterogeneous_hard_cliques

        instance = heterogeneous_hard_cliques(2, 16, seed=1)
        owner = instance.clique_of()
        net = instance.network
        externals = set()
        for v in range(net.n):
            count = sum(1 for u in net.adjacency[v] if owner[u] != owner[v])
            externals.add(count)
        assert externals == {1, 2}  # e_C = 1 for larges, 2 for smalls

    def test_pipelines_color_it(self):
        from repro.constants import AlgorithmParameters
        from repro.core import delta_color_deterministic
        from repro.graphs import heterogeneous_hard_cliques
        from repro.verify import verify_coloring

        # Small cliques (size Delta - 1) need epsilon >= 4 / Delta for
        # the ACD size lower bound (1 - eps/4) * Delta; Delta = 16 with
        # epsilon = 1/4 sits exactly on that boundary.
        instance = heterogeneous_hard_cliques(1, 16, seed=2)
        result = delta_color_deterministic(
            instance.network, params=AlgorithmParameters(epsilon=0.25)
        )
        verify_coloring(instance.network, result.colors, 16)

    def test_bad_parameters_rejected(self):
        from repro.graphs import heterogeneous_hard_cliques

        with pytest.raises(GraphStructureError):
            heterogeneous_hard_cliques(0, 16)
        with pytest.raises(GraphStructureError):
            heterogeneous_hard_cliques(1, 3)


def _hard_via_edge_list(num_cliques, delta, seed, k=1):
    """``hard_clique_graph`` the edge-list way: clique edges, then one
    edge per clique-graph edge from shuffled member slots, all through
    ``Network.from_edges``."""
    s = delta - k + 1
    rng = random.Random(seed)
    clique_graph = regular_bipartite_graph(num_cliques // 2, s * k, rng)
    edges = []
    for i in range(num_cliques):
        members = range(i * s, (i + 1) * s)
        edges += [(a, b) for a in members for b in members if a < b]
    slot_iters = []
    for i in range(num_cliques):
        slots = [i * s + a for a in range(s) for _ in range(k)]
        rng.shuffle(slots)
        slot_iters.append(iter(slots))
    for i in range(num_cliques):
        for j in clique_graph[i]:
            if i < j:
                edges.append((next(slot_iters[i]), next(slot_iters[j])))
    return Network.from_edges(num_cliques * s, edges)


class TestDirectAdjacency:
    """The generators build adjacency lists directly; they must match
    what ``Network.from_edges`` gives for the same edges, order and
    all, since adjacency order feeds message delivery order."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 7919])
    @pytest.mark.parametrize("cliques, delta", [(16, 8), (68, 32)])
    def test_hard_matches_edge_list_path(self, cliques, delta, seed):
        direct = hard_clique_graph(cliques, delta, seed=seed).network
        reference = _hard_via_edge_list(cliques, delta, seed)
        assert direct.adjacency == reference.adjacency
        assert direct.uids == reference.uids

    @pytest.mark.parametrize("seed", [1, 2, 3, 7919])
    @pytest.mark.parametrize("cliques, delta", [(16, 8), (136, 32)])
    def test_mixed_matches_edge_list_path(self, cliques, delta, seed):
        mixed = mixed_dense_graph(cliques, delta, easy_fraction=0.25, seed=seed)
        hard = hard_clique_graph(cliques, delta, seed=seed).network
        removed = {
            tuple(sorted(mixed.cliques[index][:2]))
            for index in mixed.meta["easy_cliques"]
        }
        reference = Network.from_edges(
            hard.n, [e for e in hard.edges() if e not in removed]
        )
        assert mixed.network.adjacency == reference.adjacency
        assert mixed.network.edge_count == hard.edge_count - len(removed)
