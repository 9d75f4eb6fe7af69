"""Engine-parity suite: ``Network.run`` vs the frozen seed engine.

The overhaul of ``Network.run`` (preallocated inbox buffers, int
scheduling queue, lazy broadcast expansion, zero-cost bandwidth
accounting) must be observationally invisible: every ``RunResult`` —
rounds, messages, outputs, halt flags, bandwidth words — has to be
bit-identical to what the seed engine (``tests/legacy_engine.py``)
produces, across graph families, shuffled uids, and full pipelines
(whose RNG consumption order would drift on the first scheduling
difference).  The seed engine has no fault injection, so fault runs are
held to expectations pinned from the engine that predates the fault
hook.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.core.deterministic import delta_color_deterministic
from repro.core.randomized import delta_color_randomized
from repro.constants import AlgorithmParameters
from repro.graphs import hard_clique_graph, projective_plane_clique_graph
from repro.local import (
    DistributedAlgorithm,
    FaultPlan,
    Network,
    Tracer,
)
from repro.subroutines.deg_list_coloring import deg_plus_one_list_coloring
from repro.subroutines.linial import LinialColoring
from repro.subroutines.maximal_matching import maximal_matching
from repro.subroutines.mis import maximal_independent_set
from tests.legacy_engine import force_legacy_engine, run_legacy


def _random_network(n: int, m: int, seed: int, *, shuffle_uids: bool = False) -> Network:
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    uids = list(range(n))
    if shuffle_uids:
        rng.shuffle(uids)
    return Network.from_edges(n, sorted(edges), uids)


def _shuffled(network: Network, seed: int) -> Network:
    uids = list(network.uids)
    random.Random(seed).shuffle(uids)
    return Network(network.adjacency, uids, validate_structure=False)


#: name -> factory for a (network, algorithm-factory) pair.
FAMILIES = {
    "path": lambda: Network.from_edges(24, [(i, i + 1) for i in range(23)]),
    "hard-clique": lambda: hard_clique_graph(16, 8, seed=2).network,
    "pg-girth6": lambda: projective_plane_clique_graph(3).network,
    "gnm-random": lambda: _random_network(60, 150, 7),
    "gnm-shuffled": lambda: _random_network(60, 150, 7, shuffle_uids=True),
}


def assert_identical(fast, legacy):
    assert fast.rounds == legacy.rounds
    assert fast.messages == legacy.messages
    assert fast.outputs == legacy.outputs
    assert fast.halted == legacy.halted
    assert fast.max_message_words == legacy.max_message_words
    assert fast.total_message_words == legacy.total_message_words


class AlarmsAndUnicast(DistributedAlgorithm):
    """Mixes alarms, unicasts, and broadcasts to stress scheduling."""

    name = "alarms-and-unicast"

    def on_start(self, node, api):
        if node.index % 3 == 0:
            api.set_alarm(2 + node.index % 5)
        if node.neighbors:
            api.send(node.neighbors[0], node.uid)

    def on_round(self, node, api, inbox):
        total = node.state.get("total", 0) + sum(m for _, m in inbox)
        node.state["total"] = total
        if api.round >= 6:
            api.halt(total)
            return
        if inbox and node.neighbors:
            api.send(node.neighbors[total % len(node.neighbors)], total)
        else:
            api.broadcast(total)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_linial_parity(family):
    network = FAMILIES[family]()
    make = lambda: LinialColoring(max(network.uids) + 1, network.max_degree)  # noqa: E731
    fast = network.run(make(), measure_bandwidth=True)
    legacy = run_legacy(network, make(), measure_bandwidth=True)
    assert_identical(fast, legacy)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_mixed_schedule_parity(family):
    network = FAMILIES[family]()
    fast = network.run(AlarmsAndUnicast())
    legacy = run_legacy(network, AlarmsAndUnicast())
    assert_identical(fast, legacy)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_tracer_parity(family):
    network = FAMILIES[family]()
    fast_trace, legacy_trace = Tracer(), Tracer()
    network.run(AlarmsAndUnicast(), tracer=fast_trace)
    run_legacy(network, AlarmsAndUnicast(), tracer=legacy_trace)
    assert fast_trace.samples == legacy_trace.samples


@pytest.mark.parametrize("family", ["path", "hard-clique", "gnm-shuffled"])
def test_maximal_matching_parity(family):
    network = FAMILIES[family]()
    fast_matching, fast = maximal_matching(network)
    with force_legacy_engine():
        legacy_matching, legacy = maximal_matching(network)
    assert fast_matching == legacy_matching
    assert_identical(fast, legacy)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_list_coloring_sweep_parity(family):
    """The sweep sleeps through announcements (``wake_on_messages =
    False``); the seed engine wakes it for each one.  Same result."""
    network = FAMILIES[family]()
    rng = random.Random(5)
    lists = [
        rng.sample(range(2 * network.degree(v) + 2), network.degree(v) + 1)
        for v in range(network.n)
    ]
    fast_colors, fast = deg_plus_one_list_coloring(network, lists)
    with force_legacy_engine():
        legacy_colors, legacy = deg_plus_one_list_coloring(network, lists)
    assert fast_colors == legacy_colors
    assert_identical(fast, legacy)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_mis_sweep_parity(family):
    network = FAMILIES[family]()
    fast_members, fast = maximal_independent_set(network)
    with force_legacy_engine():
        legacy_members, legacy = maximal_independent_set(network)
    assert fast_members == legacy_members
    assert_identical(fast, legacy)


@pytest.mark.parametrize("shuffle_seed", [None, 11, 12])
def test_theorem1_pipeline_parity(shuffle_seed):
    instance = hard_clique_graph(16, 8, seed=3)
    network = instance.network
    if shuffle_seed is not None:
        network = _shuffled(network, shuffle_seed)
    params = AlgorithmParameters(epsilon=0.25)
    fast = delta_color_deterministic(network, params=params)
    with force_legacy_engine():
        legacy = delta_color_deterministic(network, params=params)
    assert fast.colors == legacy.colors
    assert fast.rounds == legacy.rounds
    assert fast.messages == legacy.messages
    assert fast.phase_rounds() == legacy.phase_rounds()


@pytest.mark.parametrize("seed", [0, 1])
def test_theorem2_pipeline_parity(seed):
    """Randomized pipeline: any scheduling drift would desynchronize the
    RNG consumption order and change the coloring."""
    instance = hard_clique_graph(32, 16, seed=4)
    params = AlgorithmParameters(epsilon=0.25)
    fast = delta_color_randomized(instance.network, params=params, seed=seed)
    with force_legacy_engine():
        legacy = delta_color_randomized(
            instance.network, params=params, seed=seed
        )
    assert fast.colors == legacy.colors
    assert fast.rounds == legacy.rounds
    assert fast.messages == legacy.messages


#: A plan that turns every fault channel of the hook on but injects
#: nothing: the crash and the budget lie beyond any run here, and the
#: drop stream is rolled for every copy but ``random()`` is below 1e-300
#: only when it returns exactly 0.0.
HARMLESS_PLAN = FaultPlan(
    seed=3, drop_probability=1e-300, crashes=((0, 10 ** 9),),
    round_budget=10 ** 9,
)


def assert_harmless(result):
    assert result.dropped_messages == 0
    assert result.crashed_nodes == []
    assert not result.budget_exhausted


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fault_hook_linial_parity(family):
    """With the fault hook on and nothing injected, ``Network.run`` still
    matches the seed engine, bandwidth accounting included."""
    network = FAMILIES[family]()
    make = lambda: LinialColoring(max(network.uids) + 1, network.max_degree)  # noqa: E731
    hooked = network.run(make(), measure_bandwidth=True, faults=HARMLESS_PLAN)
    legacy = run_legacy(network, make(), measure_bandwidth=True)
    assert_identical(hooked, legacy)
    assert_harmless(hooked)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fault_hook_mixed_schedule_parity(family):
    network = FAMILIES[family]()
    hooked = network.run(AlarmsAndUnicast(), faults=HARMLESS_PLAN)
    assert_identical(hooked, network.run(AlarmsAndUnicast()))
    assert_harmless(hooked)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fault_hook_tracer_parity(family):
    network = FAMILIES[family]()
    hooked_trace, legacy_trace = Tracer(), Tracer()
    network.run(AlarmsAndUnicast(), tracer=hooked_trace, faults=HARMLESS_PLAN)
    run_legacy(network, AlarmsAndUnicast(), tracer=legacy_trace)
    assert hooked_trace.samples == legacy_trace.samples


def test_force_legacy_engine_restores():
    fast_run = Network.run
    with force_legacy_engine():
        swapped = Network.run
        assert swapped is not fast_run
        with force_legacy_engine():
            assert Network.run is swapped
        assert Network.run is swapped
    assert Network.run is fast_run


# ---------------------------------------------------------------------------
# Fault injection: pinned expectations, RNG consumption order included.
# ---------------------------------------------------------------------------


class DropSensitiveGossip(DistributedAlgorithm):
    """Spread uids for a few rounds; outputs shift with any lost message."""

    name = "drop-sensitive-gossip"

    def on_start(self, node, api):
        node.state["seen"] = {node.uid}
        api.broadcast(node.uid)

    def on_round(self, node, api, inbox):
        seen = node.state["seen"]
        fresh = {uid for _, uid in inbox} - seen
        seen.update(fresh)
        if api.round >= 4:
            api.halt(sorted(seen))
        elif fresh:
            api.broadcast(max(fresh))


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


#: (plan, (rounds, messages, dropped, crashed, budget_exhausted, halted
#: count, outputs digest, halted digest)), recorded from the stand-alone
#: fault loop that preceded the hook in ``Network.run``.  A drop stream
#: consumed in any other order changes which copies are lost, and with
#: them the dropped count and the outputs.
PINNED_FAULT_RUNS = [
    (FaultPlan(drop_probability=0.3, seed=5),
     (4, 642, 205, [], False, 33, "a5bb53f47e4b7e07", "5313e35eb4062cf9")),
    (FaultPlan(crashes=((2, 2), (7, 3))),
     (4, 668, 28, [2, 7], False, 36, "788a2c0dc7ea4ccd", "240641c65e2e500e")),
    (FaultPlan(round_budget=3),
     (3, 680, 0, [], True, 0, "45bb6abd52b78e6b", "2c3faf4280e2b4e7")),
    (FaultPlan(drop_probability=0.15, crashes=((4, 2),), round_budget=4, seed=9),
     (4, 680, 127, [4], False, 37, "ca9793b8c47030fe", "d1230a2878a3e413")),
]


@pytest.mark.parametrize(
    "plan, expected", PINNED_FAULT_RUNS,
    ids=[f"plan{index}" for index in range(len(PINNED_FAULT_RUNS))],
)
def test_fault_plan_pinned(plan, expected):
    """Drops, crash-stop and budgets consume the plan's RNG in delivery
    order and account exactly as before the loop was shared."""
    result = _random_network(40, 90, 13).run(DropSensitiveGossip(), faults=plan)
    assert (
        result.rounds, result.messages, result.dropped_messages,
        result.crashed_nodes, result.budget_exhausted, sum(result.halted),
        _digest(result.outputs), _digest(result.halted),
    ) == expected


def test_fault_plan_tracer_pinned():
    plan = FaultPlan(drop_probability=0.2, crashes=((3, 2),), seed=7)
    tracer = Tracer()
    result = _random_network(40, 90, 13).run(
        DropSensitiveGossip(), tracer=tracer, faults=plan
    )
    assert [
        (s.round, s.scheduled, s.delivered, s.halted_total)
        for s in tracer.samples
    ] == [(1, 40, 134, 0), (2, 38, 142, 0), (3, 39, 123, 0), (4, 38, 119, 38)]
    assert (
        result.rounds, result.messages, result.dropped_messages,
        result.crashed_nodes, result.budget_exhausted, _digest(result.outputs),
    ) == (4, 669, 151, [3], False, "77f522d95793c0a7")
