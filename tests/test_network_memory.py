"""A Network holds one copy of its topology: the frozen adjacency.

Neighbor sets and edge lists are built on demand and never cached, so a
network costs its adjacency plus ``O(1)`` scalars however it is used.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro import delta_color
from repro.graphs import hard_clique_graph
from repro.local import DistributedAlgorithm, VirtualNetwork

#: Attributes of a :class:`Network` (a virtual network adds its own).
NETWORK_ATTRIBUTES = {
    "name", "adjacency", "n", "uids", "nodes",
    "_validate_sends", "_max_degree", "_edge_count",
}


class Echo(DistributedAlgorithm):
    """Every node unicasts its uid to each neighbor, then halts."""

    name = "echo"

    def on_start(self, node, api):
        for u in node.neighbors:
            api.send(u, node.uid)

    def on_round(self, node, api, inbox):
        api.halt(len(inbox))


def test_coloring_retains_no_per_vertex_caches():
    instance = hard_clique_graph(68, 32, seed=2)
    n = instance.n
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for method in ("deterministic", "randomized"):
            coloring = delta_color(
                instance.network, method=method, epsilon=1 / 8, seed=3
            )
            assert coloring.num_colors == instance.delta
        del coloring
        instance.canonical_hash()
        gc.collect()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (after - before) / n <= 256
    assert (peak - before) / n < 4500


def test_edges_and_neighbor_sets_are_fresh_and_equal():
    network = hard_clique_graph(16, 8, seed=1).network
    first, second = network.edges(), network.edges()
    assert first == second and first is not second
    for v in (0, network.n - 1):
        a, b = network.neighbor_set(v), network.neighbor_set(v)
        assert a == b == frozenset(network.adjacency[v])
        assert a is not b


def test_no_topology_copy_survives_use():
    base = hard_clique_graph(16, 8, seed=1).network
    induced, _ = base.subnetwork(range(base.n // 2))
    # One virtual node per planted clique: G_V is the clique graph.
    virtual = VirtualNetwork(base, [range(i, i + 8) for i in range(0, base.n, 8)])
    for network in (base, induced, virtual):
        result = network.run(Echo())
        assert result.messages == 2 * network.edge_count
        network.edges()
        network.neighbor_set(0)
        assert network.max_degree and network.edge_count
        extra = set(vars(network)) - NETWORK_ATTRIBUTES
        if isinstance(network, VirtualNetwork):
            assert extra == {"base", "groups", "round_scale", "owner"}
        else:
            assert not extra
