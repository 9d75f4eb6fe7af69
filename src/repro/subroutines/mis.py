"""Maximal independent set: deterministic sweep and Luby's algorithm.

The deterministic variant runs Linial and then adds each color class in
order (a node joins unless a neighbor already joined) — O(log* n +
Delta^2) rounds.  The randomized variant is Luby's algorithm: each round
active nodes draw a random priority, local maxima join, and joined nodes
knock their neighbors out — O(log n) rounds w.h.p.

MIS doubles as a ruling set (a (2,1)-ruling set) and, on line networks,
as maximal matching.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.errors import SubroutineError
from repro.local.algorithm import Api, DistributedAlgorithm
from repro.local.network import Network
from repro.local.node import Node
from repro.local.result import RunResult
from repro.subroutines.linial import LinialColoring

__all__ = ["maximal_independent_set", "luby_mis", "verify_mis"]


class _SweepMIS(DistributedAlgorithm):
    """Greedy MIS over the classes of a proper coloring.

    A node acts only at its class round, so an ``"in"`` announcement
    does not wake it; it reads them all then.
    """

    name = "mis-sweep"
    wake_on_messages = False

    def __init__(self, classes: Sequence[int]):
        self.classes = classes

    def on_start(self, node: Node, api: Api) -> None:
        node.state["blocked"] = False
        api.set_alarm(self.classes[node.index] + 1)

    def on_round(self, node: Node, api: Api, inbox: Sequence[tuple[int, str]]) -> None:
        if inbox:
            node.state["blocked"] = True
        if api.round != self.classes[node.index] + 1:
            return
        if node.state["blocked"]:
            api.halt(False)
        else:
            api.broadcast("in")
            api.halt(True)


def maximal_independent_set(
    network: Network, *, id_space: int | None = None
) -> tuple[list[bool], RunResult]:
    """Deterministic MIS; returns membership flags and the run cost."""
    if id_space is None:
        id_space = max(network.uids) + 1 if network.n else 1
    linial_result = network.run(LinialColoring(id_space, network.max_degree))
    classes = [node.state["color"] for node in network.nodes]
    sweep_result = network.run(_SweepMIS(classes))
    membership = [bool(node.output) for node in network.nodes]
    verify_mis(network, membership)
    return membership, RunResult(
        rounds=linial_result.rounds + sweep_result.rounds,
        messages=linial_result.messages + sweep_result.messages,
        outputs=membership,
        halted=sweep_result.halted,
    )


class _LubyMIS(DistributedAlgorithm):
    """Luby's randomized MIS with uid tie-breaking."""

    name = "mis-luby"

    def __init__(self, rng: random.Random):
        self.rng = rng

    def on_start(self, node: Node, api: Api) -> None:
        node.state["active_neighbors"] = set(node.neighbors)
        self._draw(node, api)

    def _draw(self, node: Node, api: Api) -> None:
        priority = (self.rng.random(), node.uid)
        node.state["priority"] = priority
        for u in node.state["active_neighbors"]:
            api.send(u, ("prio", priority))
        api.set_alarm(api.round + 1)

    def on_round(self, node: Node, api: Api, inbox: Sequence[tuple[int, tuple]]) -> None:
        active = node.state["active_neighbors"]
        best_neighbor = None
        for sender, (kind, value) in inbox:
            if kind == "in":
                api.halt(False)
                # Tell remaining active neighbors we dropped out so they
                # can shrink their competitor sets.
                for u in active:
                    if u != sender:
                        api.send(u, ("out", None))
                return
            if kind == "out":
                active.discard(sender)
            elif kind == "prio":
                if best_neighbor is None or value > best_neighbor:
                    best_neighbor = value
        mine = node.state["priority"]
        if best_neighbor is None or mine > best_neighbor:
            for u in active:
                api.send(u, ("in", None))
            api.halt(True)
            return
        self._draw(node, api)


def luby_mis(
    network: Network, *, seed: int | None = None, rng: random.Random | None = None
) -> tuple[list[bool], RunResult]:
    """Luby's MIS; O(log n) rounds w.h.p."""
    if rng is None:
        rng = random.Random(seed)
    result = network.run(_LubyMIS(rng))
    membership = [bool(node.output) for node in network.nodes]
    verify_mis(network, membership)
    return membership, result


def verify_mis(network: Network, membership: Sequence[bool]) -> None:
    """Raise unless ``membership`` is independent and maximal."""
    for v in range(network.n):
        if membership[v]:
            for u in network.adjacency[v]:
                if membership[u]:
                    raise SubroutineError(f"MIS not independent: edge ({v}, {u})")
        elif not any(membership[u] for u in network.adjacency[v]):
            raise SubroutineError(f"MIS not maximal: vertex {v} uncovered")
