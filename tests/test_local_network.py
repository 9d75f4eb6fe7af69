"""Tests for the LOCAL simulator engine."""

from __future__ import annotations

import pytest

from repro.errors import RoundLimitExceeded, SimulationError
from repro.local import DistributedAlgorithm, FaultPlan, Network


class Flood(DistributedAlgorithm):
    """Min-distance flood from the uid-0 node."""

    name = "flood"

    def on_start(self, node, api):
        if node.uid == 0:
            node.state["dist"] = 0
            api.broadcast(0)
            api.halt(0)

    def on_round(self, node, api, inbox):
        if "dist" in node.state:
            return
        dist = min(message for _, message in inbox) + 1
        node.state["dist"] = dist
        api.broadcast(dist)
        api.halt(dist)


class Silent(DistributedAlgorithm):
    name = "silent"

    def on_round(self, node, api, inbox):  # pragma: no cover
        raise AssertionError("silent algorithm must never be scheduled")


class AlarmClock(DistributedAlgorithm):
    name = "alarm"

    def __init__(self, when):
        self.when = when

    def on_start(self, node, api):
        api.set_alarm(self.when[node.index])

    def on_round(self, node, api, inbox):
        api.halt(api.round)


def path_network(n: int) -> Network:
    return Network.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestEngine:
    def test_flood_rounds_equal_eccentricity(self):
        net = path_network(6)
        result = net.run(Flood())
        assert result.outputs == [0, 1, 2, 3, 4, 5]
        assert result.rounds == 5

    def test_flood_messages_counted(self):
        net = path_network(3)
        result = net.run(Flood())
        assert result.messages > 0

    def test_silent_network_terminates_immediately(self):
        net = path_network(4)
        result = net.run(Silent())
        assert result.rounds == 0
        assert result.outputs == [None] * 4

    def test_alarm_fast_forward(self):
        net = path_network(3)
        result = net.run(AlarmClock([100, 200, 300]))
        assert result.outputs == [100, 200, 300]
        assert result.rounds == 300

    def test_round_limit_enforced(self):
        class Forever(DistributedAlgorithm):
            name = "forever"

            def on_start(self, node, api):
                api.set_alarm(1)

            def on_round(self, node, api, inbox):
                api.set_alarm(api.round + 1)

        net = path_network(2)
        with pytest.raises(RoundLimitExceeded):
            net.run(Forever(), max_rounds=50)

    def test_send_to_non_neighbor_rejected(self):
        class Bad(DistributedAlgorithm):
            name = "bad"

            def on_start(self, node, api):
                if node.index == 0:
                    api.send(2, "hi")

            def on_round(self, node, api, inbox):  # pragma: no cover
                pass

        net = path_network(3)
        with pytest.raises(SimulationError, match="non-neighbor"):
            net.run(Bad())

    def test_messages_to_halted_nodes_are_dropped(self):
        class PingHalted(DistributedAlgorithm):
            name = "ping-halted"

            def on_start(self, node, api):
                if node.index == 0:
                    api.halt("done")
                else:
                    api.send(0, "ping")
                    api.halt("sent")

            def on_round(self, node, api, inbox):  # pragma: no cover
                raise AssertionError("halted node scheduled")

        net = path_network(2)
        result = net.run(PingHalted())
        assert result.rounds == 0
        assert result.all_halted

    def test_state_reset_between_runs(self):
        net = path_network(4)
        first = net.run(Flood())
        second = net.run(Flood())
        assert first.outputs == second.outputs


class Chatter(DistributedAlgorithm):
    """Path 0 - 1 - 2: the ends send ``(tag, round)`` to the middle at
    rounds 0..``last``; the middle logs each run and halts at ``wake[-1]``.
    """

    name = "chatter"

    def __init__(self, wake, last=3):
        self.wake = wake
        self.last = last

    def on_start(self, node, api):
        node.state["log"] = []
        self.on_round(node, api, ())

    def on_round(self, node, api, inbox):
        if node.index == 1:
            node.state["log"].append((api.round, list(inbox)))
            later = [rnd for rnd in self.wake if rnd > api.round]
            if later:
                api.set_alarm(later[0])
            else:
                api.halt(node.state["log"])
        elif api.round <= self.last:
            api.send(1, ("ab"[node.index // 2], api.round))
            if api.round < self.last:
                api.set_alarm(api.round + 1)


class SleepingChatter(Chatter):
    name = "sleeping-chatter"
    wake_on_messages = False


class TestSleepingNodes:
    """``wake_on_messages = False``: only alarms schedule a node."""

    def test_runs_only_at_alarms_with_everything_since(self):
        result = path_network(3).run(SleepingChatter(wake=[0, 3, 6]))
        sent = lambda rnd: [(0, ("a", rnd)), (2, ("b", rnd))]  # noqa: E731
        assert result.outputs[1] == [
            (0, []),
            (3, sent(0) + sent(1) + sent(2)),
            (6, sent(3)),
        ]
        assert result.rounds == 6
        assert result.messages == 8

    def test_waking_twin_is_scheduled_by_every_message(self):
        result = path_network(3).run(Chatter(wake=[0, 3, 6]))
        assert [rnd for rnd, _ in result.outputs[1]] == [0, 1, 2, 3, 4, 6]

    def test_messages_after_halt_are_dropped(self):
        result = path_network(3).run(SleepingChatter(wake=[0, 2], last=5))
        assert [rnd for rnd, _ in result.outputs[1]] == [0, 2]
        assert result.halted[1]
        # The ends keep sending until round 5; nothing wakes the middle.
        assert result.rounds == 5
        assert result.messages == 12

    def test_crash_stops_a_sleeping_node(self):
        result = path_network(3).run(
            SleepingChatter(wake=[0, 3, 6]), faults=FaultPlan(crashes=((1, 3),))
        )
        assert result.outputs[1] is None
        assert not result.halted[1]
        assert result.crashed_nodes == [1]
        # Copies arriving from round 3 on are lost; the alarm never fires.
        assert result.dropped_messages == 4
        assert result.rounds == 3


class TestConstruction:
    def test_duplicate_uids_rejected(self):
        with pytest.raises(SimulationError, match="unique"):
            Network([[1], [0]], uids=[5, 5])

    def test_self_loop_rejected(self):
        with pytest.raises(SimulationError, match="self loop"):
            Network.from_edges(2, [(0, 0)])

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(SimulationError, match="asymmetric"):
            Network([[1], []])

    @pytest.mark.parametrize("edge", [(0, 5), (5, 0), (0, 3)])
    def test_out_of_range_edge_rejected(self, edge):
        with pytest.raises(SimulationError, match=rf"edge \({edge[0]}, {edge[1]}\)"):
            Network.from_edges(3, [edge])

    def test_parallel_edges_deduplicated(self):
        net = Network.from_edges(2, [(0, 1), (1, 0), (0, 1)])
        assert net.edge_count == 1

    def test_from_networkx(self):
        nx = pytest.importorskip("networkx")
        graph = nx.cycle_graph(5)
        net = Network.from_networkx(graph)
        assert net.n == 5
        assert net.edge_count == 5
        assert net.max_degree == 2

    def test_edges_are_canonical(self):
        net = path_network(4)
        assert net.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_degree_and_neighbor_set(self):
        net = path_network(3)
        assert net.degree(1) == 2
        assert net.neighbor_set(1) == frozenset({0, 2})

    def test_adjacency_is_immutable_after_construction(self):
        """Mutating adjacency would silently desync the lazy caches
        (``max_degree``, ``edge_count``) and any engine-side snapshots —
        before rows were frozen, appending a neighbor after first cached
        access left ``max_degree`` stale and ``edges()`` missing the new
        edge.  Now the mutation itself fails."""
        net = path_network(3)
        assert net.max_degree == 2          # populate the lazy caches
        assert net.edge_count == 2
        with pytest.raises(AttributeError):
            net.adjacency[0].append(2)      # type: ignore[attr-defined]
        with pytest.raises(TypeError):
            net.adjacency[0] = (1, 2)       # type: ignore[index]
        # The caches still answer from the unchanged topology.
        assert net.max_degree == 2
        assert net.edge_count == 2
        assert net.edges() == [(0, 1), (1, 2)]
        assert net.neighbor_set(0) == frozenset({1})


class TestSubnetwork:
    def test_induced_structure(self):
        net = Network.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        sub, mapping = net.subnetwork([0, 1, 2])
        assert mapping == [0, 1, 2]
        assert sub.edges() == [(0, 1), (1, 2)]

    def test_uids_inherited(self):
        net = Network.from_edges(4, [(0, 1), (2, 3)], uids=[10, 11, 12, 13])
        sub, mapping = net.subnetwork([2, 3])
        assert sub.uids == [12, 13]

    def test_empty_subnetwork(self):
        net = path_network(3)
        sub, mapping = net.subnetwork([])
        assert sub.n == 0 and mapping == []


class TestBandwidthAccounting:
    def test_message_words_scalars(self):
        from repro.local import message_words

        assert message_words(7) == 1
        assert message_words(None) == 1
        assert message_words(3.5) == 1

    def test_message_words_containers(self):
        from repro.local import message_words

        assert message_words((1, 2, 3)) == 3
        assert message_words({"a": 1}) == 2
        assert message_words(("x", (1, 2))) == 3

    def test_flood_is_congest_friendly(self):
        net = path_network(5)
        result = net.run(Flood(), measure_bandwidth=True)
        assert result.max_message_words == 1
        assert result.total_message_words == result.messages

    def test_bandwidth_off_by_default(self):
        net = path_network(4)
        result = net.run(Flood())
        assert result.max_message_words == 0

    def test_bandwidth_limit_enforced(self):
        class Fat(DistributedAlgorithm):
            name = "fat"

            def on_start(self, node, api):
                if node.index == 0:
                    api.send(1, tuple(range(100)))

            def on_round(self, node, api, inbox):  # pragma: no cover
                pass

        net = path_network(2)
        with pytest.raises(SimulationError, match="CONGEST"):
            net.run(Fat(), bandwidth_limit=4)

    def test_bandwidth_limit_allows_small_messages(self):
        net = path_network(5)
        result = net.run(Flood(), bandwidth_limit=2)
        assert result.outputs == [0, 1, 2, 3, 4]
