"""(deg+1)-list coloring — the coloring workhorse of the paper.

An instance gives every vertex ``v`` a color list with ``|L(v)| >=
deg(v) + 1`` (degree within the instance).  Then a greedy order always
succeeds; distributedly we compute an O(Delta^2) Linial coloring and
sweep its classes in order: when class ``c`` is processed, every vertex
of the class picks the smallest list color not taken by an
already-colored neighbor and announces it.  Vertices of the same class
are non-adjacent, so the sweep is conflict-free.

The deterministic round complexity is O(log* n + Delta'^2) for instance
degree Delta'; the paper uses [MT20]/[GG24] black boxes with better
bounds, which our ledger keeps visible as separate entries (see
DESIGN.md substitution table).  A randomized trial-based variant with
O(log n) w.h.p. rounds is also provided.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.errors import SubroutineError
from repro.local.algorithm import Api, DistributedAlgorithm
from repro.local.network import Network
from repro.local.node import Node
from repro.local.result import RunResult
from repro.subroutines.linial import LinialColoring, linial_palette_bound

__all__ = [
    "deg_plus_one_list_coloring",
    "randomized_list_coloring",
    "validate_lists",
]


def validate_lists(network: Network, lists: Sequence[Sequence[int]]) -> None:
    """Check the (deg+1) precondition; raises SubroutineError otherwise."""
    if len(lists) != network.n:
        raise SubroutineError("one color list per vertex required")
    for v in range(network.n):
        if len(set(lists[v])) <= network.degree(v):
            raise SubroutineError(
                f"vertex {v}: list of size {len(set(lists[v]))} but degree "
                f"{network.degree(v)}; (deg+1)-list coloring needs "
                "|L(v)| >= deg(v) + 1"
            )


class _SweepListColoring(DistributedAlgorithm):
    """Phase 2 of the deterministic algorithm: the color-class sweep.

    ``classes`` is a proper coloring of the network (from Linial); each
    node sets an alarm at its class round and, when its class is up,
    picks the smallest list color its earlier neighbors did not
    announce.  Announcements do not wake a node: it reads them all at
    its class round.
    """

    name = "deg+1-sweep"
    wake_on_messages = False

    def __init__(self, lists: Sequence[Sequence[int]], classes: Sequence[int]):
        self.lists = lists
        self.classes = classes

    def on_start(self, node: Node, api: Api) -> None:
        node.state["taken"] = set()
        api.set_alarm(self.classes[node.index] + 1)

    def on_round(self, node: Node, api: Api, inbox: Sequence[tuple[int, int]]) -> None:
        taken = node.state["taken"]
        for _, color in inbox:
            taken.add(color)
        if api.round != self.classes[node.index] + 1:
            return  # an engine that wakes on messages woke us early
        for color in self.lists[node.index]:
            if color not in taken:
                api.broadcast(color)
                api.halt(color)
                return
        raise SubroutineError(
            f"vertex {node.index} ran out of list colors during the sweep; "
            "the (deg+1) precondition was violated"
        )


def deg_plus_one_list_coloring(
    network: Network,
    lists: Sequence[Sequence[int]],
    *,
    id_space: int | None = None,
    validate: bool = True,
) -> tuple[list[int], RunResult]:
    """Deterministic (deg+1)-list coloring.

    Returns the chosen colors and a combined :class:`RunResult` whose
    round count covers both the Linial phase and the sweep.
    """
    if validate:
        validate_lists(network, lists)
    if id_space is None:
        id_space = max(network.uids) + 1 if network.n else 1
    delta = network.max_degree

    linial = LinialColoring(id_space, delta)
    linial_result = network.run(linial)
    classes = [node.state["color"] for node in network.nodes]
    assert max(classes, default=0) < linial_palette_bound(delta)

    sweep = _SweepListColoring(lists, classes)
    sweep_result = network.run(sweep)

    colors = [node.output for node in network.nodes]
    if validate:
        _assert_proper_from_lists(network, colors, lists)
    combined = RunResult(
        rounds=linial_result.rounds + sweep_result.rounds,
        messages=linial_result.messages + sweep_result.messages,
        outputs=colors,
        halted=sweep_result.halted,
    )
    return colors, combined


def _assert_proper_from_lists(
    network: Network, colors: list[int], lists: Sequence[Sequence[int]]
) -> None:
    for v in range(network.n):
        if colors[v] is None or colors[v] not in lists[v]:
            raise SubroutineError(f"vertex {v} got color {colors[v]} outside its list")
        for u in network.adjacency[v]:
            if colors[u] == colors[v]:
                raise SubroutineError(
                    f"sweep produced a conflict on edge ({v}, {u})"
                )


class _RandomTrialColoring(DistributedAlgorithm):
    """Randomized list coloring by synchronized color trials.

    Each round every uncolored node tries a random color from its list
    minus the colors taken by colored neighbors and keeps it if no
    uncolored neighbor tried the same color.  With (deg+1) lists, a node
    succeeds with constant probability per round, so all nodes finish in
    O(log n) rounds w.h.p.
    """

    name = "deg+1-random"

    def __init__(self, lists: Sequence[Sequence[int]], rng: random.Random):
        self.lists = lists
        self.rng = rng

    def on_start(self, node: Node, api: Api) -> None:
        node.state["taken"] = set()
        node.state["trial"] = None
        self._try(node, api)

    def _try(self, node: Node, api: Api) -> None:
        available = [c for c in self.lists[node.index] if c not in node.state["taken"]]
        if not available:
            raise SubroutineError(
                f"vertex {node.index} ran out of colors in randomized trials"
            )
        trial = self.rng.choice(available)
        node.state["trial"] = trial
        api.broadcast(("trial", trial))
        # The alarm guarantees the node is re-scheduled to evaluate its
        # trial even when all its neighbors have already halted (their
        # dropped messages would otherwise never wake it).
        api.set_alarm(api.round + 1)

    def on_round(self, node: Node, api: Api, inbox: Sequence[tuple[int, tuple]]) -> None:
        taken = node.state["taken"]
        conflict = False
        trial = node.state["trial"]
        for _, (kind, color) in inbox:
            if kind == "final":
                taken.add(color)
                if color == trial:
                    conflict = True
            elif kind == "trial" and color == trial:
                conflict = True
        if trial is not None and not conflict:
            api.broadcast(("final", trial))
            api.halt(trial)
            return
        self._try(node, api)


def randomized_list_coloring(
    network: Network,
    lists: Sequence[Sequence[int]],
    *,
    seed: int | None = None,
    rng: random.Random | None = None,
    validate: bool = True,
) -> tuple[list[int], RunResult]:
    """Randomized (deg+1)-list coloring in O(log n) rounds w.h.p."""
    if validate:
        validate_lists(network, lists)
    if rng is None:
        rng = random.Random(seed)
    result = network.run(_RandomTrialColoring(lists, rng))
    colors = [node.output for node in network.nodes]
    if validate:
        _assert_proper_from_lists(network, colors, lists)
    return colors, result
