"""Chaos suite: deterministic fault injection in the LOCAL engine.

Covers the :class:`~repro.local.faults.FaultPlan` contract (validation,
noop detection), the three fault channels (message loss, crash-stop,
round budget), the determinism guarantee (same plan → bit-identical
result *including* fault accounting), parity of noop plans with the
fault-free hot path, and the graceful-degradation checker.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.local import (
    DistributedAlgorithm,
    FaultPlan,
    Network,
    Tracer,
)
from repro.verify import check_graceful_degradation
from tests.legacy_engine import force_legacy_engine


def path_network(n: int = 6) -> Network:
    return Network.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def random_network(n: int, m: int, seed: int) -> Network:
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Network.from_edges(n, sorted(edges))


class Flood(DistributedAlgorithm):
    """Node 0 floods a token; each node outputs the round it was reached."""

    name = "flood"

    def on_start(self, node, api):
        if node.index == 0:
            api.broadcast("go")
            api.halt(0)

    def on_round(self, node, api, inbox):
        api.broadcast("go")
        api.halt(api.round)


class Gossip(DistributedAlgorithm):
    """Spread uids for ``horizon`` rounds; outputs are drop-sensitive."""

    name = "gossip"

    def __init__(self, horizon: int = 4):
        self.horizon = horizon

    def on_start(self, node, api):
        node.state["seen"] = {node.uid}
        api.broadcast(node.uid)

    def on_round(self, node, api, inbox):
        seen = node.state["seen"]
        fresh = {uid for _, uid in inbox} - seen
        seen.update(fresh)
        if api.round >= self.horizon:
            api.halt(sorted(seen))
        elif fresh:
            api.broadcast(max(fresh))


class CrashedAlarm(DistributedAlgorithm):
    """Node 0 sets a late alarm; a crash before it fires must discard it."""

    name = "crashed-alarm"

    def on_start(self, node, api):
        if node.index == 0:
            api.set_alarm(5)
        elif node.index == 1:
            api.broadcast("x")

    def on_round(self, node, api, inbox):
        if node.index == 0:
            api.broadcast("boom")
        else:
            api.halt(api.round)


class TestFaultPlan:
    def test_default_is_noop(self):
        assert FaultPlan().is_noop
        assert FaultPlan(seed=99).is_noop  # seed alone injects nothing

    @pytest.mark.parametrize("plan_kwargs", [
        {"drop_probability": 0.1},
        {"crashes": ((0, 3),)},
        {"round_budget": 10},
    ])
    def test_any_fault_channel_is_not_noop(self, plan_kwargs):
        assert not FaultPlan(**plan_kwargs).is_noop

    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_drop_probability_range(self, bad):
        with pytest.raises(SimulationError, match="drop_probability"):
            FaultPlan(drop_probability=bad)

    @pytest.mark.parametrize("crash", [(-1, 0), (0, -2)])
    def test_negative_crash_entries(self, crash):
        with pytest.raises(SimulationError, match="crash"):
            FaultPlan(crashes=(crash,))

    def test_negative_budget(self):
        with pytest.raises(SimulationError, match="round_budget"):
            FaultPlan(round_budget=-1)

    def test_crash_schedule_validated_against_network(self):
        with pytest.raises(SimulationError, match="node 99"):
            path_network(4).run(Flood(), faults=FaultPlan(crashes=((99, 1),)))

    def test_duplicate_crash_entries_take_earliest(self):
        plan = FaultPlan(crashes=((2, 5), (2, 1)))
        assert plan.crash_rounds(4)[2] == 1


class TestDeterminism:
    PLAN = FaultPlan(seed=7, drop_probability=0.3, crashes=((3, 2),))

    def test_same_plan_is_bit_identical(self):
        network = random_network(40, 100, seed=5)
        first = network.run(Gossip(), faults=self.PLAN)
        second = network.run(Gossip(), faults=self.PLAN)
        assert first.outputs == second.outputs
        assert first.rounds == second.rounds
        assert first.messages == second.messages
        assert first.dropped_messages == second.dropped_messages
        assert first.crashed_nodes == second.crashed_nodes
        assert first.fault_summary() == second.fault_summary()

    def test_different_seed_rerolls_drops(self):
        network = random_network(40, 100, seed=5)
        base = network.run(Gossip(), faults=self.PLAN)
        other = network.run(
            Gossip(),
            faults=FaultPlan(seed=8, drop_probability=0.3, crashes=((3, 2),)),
        )
        # The drop pattern feeds the outputs; a reroll must diverge.
        assert (base.dropped_messages, base.outputs) != (
            other.dropped_messages, other.outputs
        )

    def test_noop_plan_matches_fault_free_run(self):
        network = random_network(30, 70, seed=2)
        plain = network.run(Gossip())
        noop = network.run(Gossip(), faults=FaultPlan(seed=123))
        assert noop.outputs == plain.outputs
        assert noop.rounds == plain.rounds
        assert noop.messages == plain.messages
        assert noop.dropped_messages == 0
        assert noop.crashed_nodes == []
        assert not noop.budget_exhausted

    def test_injected_loop_matches_hot_path_when_plan_is_harmless(self):
        """p=0 and no crashes, but a generous budget turns the fault hook
        on — it must reproduce the fault-free run bit for bit."""
        network = random_network(30, 70, seed=2)
        plain = network.run(Gossip())
        injected = network.run(Gossip(), faults=FaultPlan(round_budget=10_000))
        assert injected.outputs == plain.outputs
        assert injected.rounds == plain.rounds
        assert injected.messages == plain.messages
        assert not injected.budget_exhausted


class TestMessageLoss:
    def test_drop_everything(self):
        network = path_network(6)
        result = network.run(Gossip(), faults=FaultPlan(drop_probability=1.0))
        # Every round-0 broadcast is lost: nobody is ever scheduled.
        assert result.rounds == 0
        assert result.dropped_messages == result.messages > 0
        assert result.delivered_messages == 0
        assert result.outputs == [None] * 6

    def test_accounting_sums(self):
        network = random_network(40, 100, seed=5)
        result = network.run(
            Gossip(), faults=FaultPlan(seed=3, drop_probability=0.4)
        )
        assert 0 < result.dropped_messages < result.messages
        assert (
            result.delivered_messages
            == result.messages - result.dropped_messages
        )


class TestCrashStop:
    def test_crash_blocks_the_flood(self):
        network = path_network(6)
        result = network.run(Flood(), faults=FaultPlan(crashes=((2, 1),)))
        assert result.outputs == [0, 1, None, None, None, None]
        assert result.crashed_nodes == [2]
        # Node 1's broadcast to the dead node 2 is the only loss
        # (its copy to the halted node 0 is the usual silent drop).
        assert result.dropped_messages == 1

    def test_dead_on_arrival_never_starts(self):
        network = path_network(4)
        result = network.run(Flood(), faults=FaultPlan(crashes=((0, 0),)))
        assert result.rounds == 0
        assert result.messages == 0
        assert result.outputs == [None] * 4
        assert result.crashed_nodes == [0]

    def test_last_live_round_messages_still_delivered(self):
        """Crash-stop is not Byzantine recall: node 1 crashes at round 2,
        so what it sent in round 1 arrives and the flood continues."""
        network = path_network(4)
        result = network.run(Flood(), faults=FaultPlan(crashes=((1, 2),)))
        assert result.outputs == [0, 1, 2, 3]
        assert result.crashed_nodes == [1]

    def test_crashed_alarm_is_discarded(self):
        network = path_network(4)
        baseline = network.run(CrashedAlarm())
        assert baseline.rounds == 5  # the alarm fires and node 0 broadcasts
        result = network.run(CrashedAlarm(), faults=FaultPlan(crashes=((0, 3),)))
        assert result.rounds == 2  # nothing happens once the alarm is due
        assert result.outputs[0] is None

    def test_fault_summary_shape(self):
        network = path_network(6)
        result = network.run(Flood(), faults=FaultPlan(crashes=((2, 1),)))
        assert result.fault_summary() == {
            "dropped_messages": 1,
            "crashed_nodes": [2],
            "budget_exhausted": False,
            "rounds_survived": result.rounds,
        }


class TestRoundBudget:
    def test_budget_cuts_the_run(self):
        network = path_network(10)
        result = network.run(Flood(), faults=FaultPlan(round_budget=3))
        assert result.rounds == 3
        assert result.budget_exhausted
        assert result.outputs[:4] == [0, 1, 2, 3]
        assert result.outputs[4:] == [None] * 6

    def test_budget_zero_stops_before_round_one(self):
        network = path_network(4)
        result = network.run(Flood(), faults=FaultPlan(round_budget=0))
        assert result.rounds == 0
        assert result.budget_exhausted
        assert result.outputs == [0, None, None, None]

    def test_generous_budget_is_not_exhausted(self):
        network = path_network(4)
        result = network.run(Flood(), faults=FaultPlan(round_budget=100))
        assert not result.budget_exhausted
        assert result.outputs == [0, 1, 2, 3]


class TestEngineIntegration:
    def test_legacy_engine_rejects_faults(self):
        network = path_network(4)
        with force_legacy_engine():
            with pytest.raises(SimulationError, match="legacy"):
                network.run(Flood(), faults=FaultPlan(drop_probability=0.5))

    def test_legacy_engine_accepts_noop_plan(self):
        network = path_network(4)
        with force_legacy_engine():
            result = network.run(Flood(), faults=FaultPlan())
        assert result.outputs == [0, 1, 2, 3]

    def test_tracer_records_under_faults(self):
        network = path_network(6)
        tracer = Tracer()
        network.run(
            Flood(), tracer=tracer, faults=FaultPlan(crashes=((3, 2),))
        )
        assert tracer.samples  # per-round samples were recorded


class TestTracerParity:
    """Under a fault plan the tracer must account like a fault-free run:
    crashed nodes are never counted as scheduled, and dropped messages
    never count as delivered."""

    def test_harmless_plan_samples_match_hot_path(self):
        # A crash scheduled far beyond the run turns the fault hook on
        # without injecting anything; its samples must be bit-identical
        # to the fault-free run's.
        network = path_network(6)
        plain = Tracer()
        network.run(Flood(), tracer=plain)
        forced = Tracer()
        network.run(
            Flood(), tracer=forced,
            faults=FaultPlan(crashes=((0, 10 ** 6),)),
        )
        assert forced.samples == plain.samples

    def test_crashed_node_never_scheduled(self):
        # Flood on a path reaches node i in round i; node 3 crashes at
        # round 2, so only nodes 1 and 2 ever execute a round.
        network = path_network(6)
        tracer = Tracer()
        network.run(
            Flood(), tracer=tracer, faults=FaultPlan(crashes=((3, 2),))
        )
        assert sum(s.scheduled for s in tracer.samples) == 2

    def test_crashed_node_inbox_not_counted_as_delivered(self):
        # Node 2 crashes exactly when the flood token would reach it:
        # the token is dropped at delivery time (node 0's copy is a
        # silent halted-node drop), so the only delivery the samples may
        # count is node 1's token in round 1.
        network = path_network(4)
        tracer = Tracer()
        result = network.run(
            Flood(), tracer=tracer, faults=FaultPlan(crashes=((2, 2),))
        )
        assert result.messages == 3
        assert result.dropped_messages == 1
        assert sum(s.delivered for s in tracer.samples) == 1
        assert sum(s.scheduled for s in tracer.samples) == 1

    def test_dropped_messages_excluded_from_delivered(self):
        # Gossip nodes halt only at the horizon and never send to halted
        # nodes, so delivered must equal sent minus dropped exactly.
        network = random_network(12, 30, seed=3)
        tracer = Tracer()
        result = network.run(
            Gossip(horizon=4), tracer=tracer,
            faults=FaultPlan(seed=1, drop_probability=0.4),
        )
        assert result.dropped_messages > 0
        delivered = sum(s.delivered for s in tracer.samples)
        assert delivered == result.messages - result.dropped_messages


class TestGracefulDegradation:
    def triangle(self) -> Network:
        return Network.from_edges(3, [(0, 1), (1, 2), (0, 2)])

    def test_intact(self):
        report = check_graceful_degradation(self.triangle(), [0, 1, 2], 3)
        assert report.status == "intact"
        assert report.surviving_valid
        assert report.colored_live == 3

    def test_uncolored_live_node_degrades(self):
        report = check_graceful_degradation(self.triangle(), [0, 1, None], 3)
        assert report.status == "degraded"
        assert report.surviving_valid
        assert report.uncolored_live == (2,)

    def test_crashed_endpoint_edges_ignored(self):
        # 0 and 2 agree on color 0, but 2 crashed: no live-live conflict.
        report = check_graceful_degradation(
            self.triangle(), [0, 1, 0], 3, crashed=[2]
        )
        assert report.status == "degraded"
        assert report.surviving_valid
        assert report.live == (0, 1)
        assert report.crashed == (2,)

    def test_monochromatic_live_edge_violates(self):
        report = check_graceful_degradation(self.triangle(), [0, 0, 1], 3)
        assert report.status == "violated"
        assert not report.surviving_valid
        assert any("monochromatic" in v for v in report.violations)

    def test_out_of_range_color_violates(self):
        report = check_graceful_degradation(self.triangle(), [0, 1, 5], 3)
        assert report.status == "violated"
        assert any("outside" in v for v in report.violations)

    @pytest.mark.parametrize("garbage", ["red", 1.5, True])
    def test_non_integer_output_violates(self, garbage):
        report = check_graceful_degradation(
            self.triangle(), [0, 1, garbage], 3
        )
        assert report.status == "violated"

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            check_graceful_degradation(self.triangle(), [0, 1], 3)

    def test_summary_is_flat(self):
        report = check_graceful_degradation(
            self.triangle(), [0, 1, None], 3, crashed=[2]
        )
        assert report.summary() == {
            "status": "degraded",
            "live": 2,
            "crashed": 1,
            "colored_live": 2,
            "uncolored_live": 0,
            "violations": 0,
        }

    def test_end_to_end_crash_run_degrades_not_violates(self):
        network = path_network(6)
        result = network.run(Flood(), faults=FaultPlan(crashes=((2, 1),)))
        report = check_graceful_degradation(
            network, result.outputs, num_colors=10,
            crashed=result.crashed_nodes,
        )
        assert report.status == "degraded"
        assert report.surviving_valid
