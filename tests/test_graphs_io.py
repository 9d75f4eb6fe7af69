"""Tests for instance/coloring (de)serialization."""

from __future__ import annotations

import pytest

from repro.errors import GraphStructureError
from repro.graphs import (
    canonical_instance_hash,
    hard_clique_graph,
    load_coloring,
    load_instance,
    mixed_dense_graph,
    save_coloring,
    save_instance,
)


class TestInstanceIO:
    def test_roundtrip(self, tmp_path):
        instance = hard_clique_graph(34, 16, seed=3)
        path = tmp_path / "instance.json"
        save_instance(instance, path)
        loaded = load_instance(path)
        assert loaded.network.edges() == instance.network.edges()
        assert loaded.cliques == instance.cliques
        assert loaded.delta == instance.delta
        assert loaded.meta["seed"] == 3

    def test_uids_preserved(self, tmp_path):
        instance = hard_clique_graph(34, 16)
        instance.network.uids.reverse()
        path = tmp_path / "instance.json"
        save_instance(instance, path)
        assert load_instance(path).network.uids == instance.network.uids

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": 999}')
        with pytest.raises(GraphStructureError, match="format"):
            load_instance(path)


class TestCanonicalHash:
    def test_save_load_preserves_hash(self, tmp_path):
        instance = hard_clique_graph(16, 8, seed=3)
        path = tmp_path / "instance.json"
        save_instance(instance, path)
        assert load_instance(path).canonical_hash() == instance.canonical_hash()

    def test_save_load_preserves_hash_with_custom_uids(self, tmp_path):
        instance = hard_clique_graph(16, 8, seed=3)
        instance.network.uids.reverse()
        path = tmp_path / "instance.json"
        save_instance(instance, path)
        assert load_instance(path).canonical_hash() == instance.canonical_hash()

    def test_edge_order_is_canonicalized(self):
        instance = hard_clique_graph(16, 8, seed=1)
        edges = instance.network.edges()
        shuffled = list(reversed([(v, u) for u, v in edges]))
        assert canonical_instance_hash(
            instance.n, shuffled, instance.delta, instance.network.uids
        ) == instance.canonical_hash()

    def test_distinct_topologies_distinct_hashes(self):
        a = hard_clique_graph(16, 8, seed=1)
        b = hard_clique_graph(16, 8, seed=2)
        c = mixed_dense_graph(16, 8, easy_fraction=0.25, seed=1)
        assert len({a.canonical_hash(), b.canonical_hash(), c.canonical_hash()}) == 3

    def test_uids_are_part_of_the_key(self):
        # The pipeline breaks symmetry by uid, so a uid permutation can
        # change the coloring — it must not share a cache entry.
        instance = hard_clique_graph(16, 8, seed=1)
        before = instance.canonical_hash()
        instance.network.uids.reverse()
        assert instance.canonical_hash() != before

    def test_planted_structure_is_not_part_of_the_key(self):
        instance = hard_clique_graph(16, 8, seed=1)
        before = instance.canonical_hash()
        instance.meta["note"] = "changed"
        instance.cliques = [list(c) for c in reversed(instance.cliques)]
        assert instance.canonical_hash() == before

    def test_default_uids_match_explicit_range(self):
        instance = hard_clique_graph(16, 8, seed=1)
        edges = instance.network.edges()
        assert canonical_instance_hash(
            instance.n, edges, instance.delta
        ) == canonical_instance_hash(
            instance.n, edges, instance.delta, list(range(instance.n))
        )

    def test_digests_pinned(self):
        # Computed before the hash was streamed; any serialization drift
        # would re-key every cache and registry.  34816 edges span
        # several hash chunks.
        hard = hard_clique_graph(68, 32, seed=1)
        assert hard.canonical_hash() == (
            "72d89f9dcc28fbc072e414b764098ddb767d3d19941c18d53a25563e6ea5acb8"
        )
        mixed = mixed_dense_graph(16, 8, easy_fraction=0.25, seed=2)
        assert mixed.canonical_hash() == (
            "8638de18ec748a44a446877c5982d57b327e317f95e66d8c9ce86d3e8d12ae1f"
        )
        # Reversed and repeated pairs, explicit uids.
        edges = [(0, 1), (2, 1), (1, 2), (4, 3), (3, 0), (0, 1)]
        assert canonical_instance_hash(5, edges, 2, [9, 8, 7, 6, 5]) == (
            "d356bce73768075049261279a5a58bbc24a8ec1ec14958379f71eb9479298834"
        )


class TestColoringIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "coloring.json"
        save_coloring([0, 1, 2, 0], 3, path)
        colors, num_colors = load_coloring(path)
        assert colors == [0, 1, 2, 0]
        assert num_colors == 3
