"""Regression tests for the engine-overhaul bugfixes.

Each class pins one of the fixes that shipped with the hot-path rewrite:
the subnetwork send-validation bypass (the headline bug), the tracer
quiet-fraction clamp, and the cached topology accessors.
"""

from __future__ import annotations

import pytest

from repro.core import Loophole, build_loophole_graph
from repro.errors import SimulationError
from repro.local import (
    DistributedAlgorithm,
    Network,
    Tracer,
    VirtualNetwork,
)


def path_network(n: int = 6) -> Network:
    return Network.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class SendToStranger(DistributedAlgorithm):
    """Node 0 sends to a vertex that is not its neighbor."""

    name = "send-to-stranger"

    def __init__(self, target: int):
        self.target = target

    def on_start(self, node, api):
        if node.index == 0:
            api.send(self.target, "hello")
        api.halt(None)

    def on_round(self, node, api, inbox):
        api.halt(None)


class TestSubnetworkSendValidation:
    """The headline bugfix: ``subnetwork`` used to construct the induced
    network with ``validate=False``, which silently disabled *send*
    validation as well as structure validation — an algorithm running on
    a subnetwork could message non-neighbors without an error."""

    def test_subnetwork_rejects_non_neighbor_send(self):
        # Induced sub-path 0-1-2 of a 6-path: node 0 and node 2 are not
        # adjacent, so the send must be rejected.
        sub, _ = path_network().subnetwork([0, 1, 2])
        with pytest.raises(SimulationError, match="non-neighbor"):
            sub.run(SendToStranger(2))

    def test_nested_subnetwork_still_validates(self):
        outer, _ = path_network(8).subnetwork([0, 1, 2, 3, 4])
        sub, _ = outer.subnetwork([0, 1, 2])
        with pytest.raises(SimulationError, match="non-neighbor"):
            sub.run(SendToStranger(2))

    def test_virtual_network_validates_sends(self):
        virtual = VirtualNetwork(
            path_network(), [[0, 1], [2, 3], [4, 5]]
        )
        # Virtual nodes 0 and 2 share no base edge.
        with pytest.raises(SimulationError, match="non-neighbor"):
            virtual.run(SendToStranger(2))

    def test_loophole_graph_validates_sends(self):
        # G_L over loopholes {0}, {1}, {4} of a 6-path joins only the
        # first two, so loophole 0 messaging loophole 2 breaks LOCAL.
        loopholes = [Loophole((v,), "low-degree") for v in (0, 1, 4)]
        virtual = build_loophole_graph(path_network(), loopholes)
        assert virtual.edges() == [(0, 1)]
        with pytest.raises(SimulationError, match="non-neighbor"):
            virtual.run(SendToStranger(2))

    def test_subnetwork_skips_structure_revalidation(self):
        # Structure was validated on the parent; the induced adjacency is
        # symmetric/loop-free by construction, so only sends are checked.
        sub, mapping = path_network().subnetwork([5, 3, 4])
        assert mapping == [3, 4, 5]
        assert sub._validate_sends  # sends stay validated on the induced net


class TestQuietFractionClamp:
    def test_negative_fraction_clamped_to_zero(self):
        tracer = Tracer()
        # More executed rounds than the final round count (e.g. a tracer
        # reused across runs) used to yield a negative fraction.
        for rnd in range(12):
            tracer.record(rnd, scheduled=1, delivered=0, halted_total=0)
        assert tracer.quiet_fraction(10) == 0.0

    def test_fraction_capped_at_one(self):
        assert Tracer().quiet_fraction(10) == 1.0

    def test_zero_rounds(self):
        assert Tracer().quiet_fraction(0) == 0.0

    def test_normal_fraction_unchanged(self):
        tracer = Tracer()
        for rnd in range(3):
            tracer.record(rnd, scheduled=2, delivered=1, halted_total=0)
        assert tracer.quiet_fraction(10) == pytest.approx(0.7)


class TestCachedAccessors:
    def test_edges_returns_fresh_list(self):
        network = path_network()
        edges = network.edges()
        edges.append((99, 100))  # mutating the copy must not poison the cache
        assert network.edges() == [(i, i + 1) for i in range(5)]

    def test_max_degree_cached_value_correct(self):
        network = path_network()
        assert network.max_degree == 2
        assert network.max_degree == 2  # second read hits the cache

    def test_subnetwork_inherits_nothing_stale(self):
        network = path_network()
        network.edges()  # populate parent caches
        sub, _ = network.subnetwork([0, 1, 2])
        assert sub.edges() == [(0, 1), (1, 2)]
        assert sub.max_degree == 2

    def test_api_send_rejects_negative_index(self):
        class SendNegative(DistributedAlgorithm):
            name = "send-negative"

            def on_start(self, node, api):
                api.send(-1, "x")

            def on_round(self, node, api, inbox):
                api.halt(None)

        with pytest.raises(SimulationError):
            path_network().run(SendNegative())
