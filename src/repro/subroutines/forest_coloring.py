"""Cole–Vishkin forest coloring: 3 colors in O(log* n) rounds.

The classic algorithm on rooted forests: every vertex repeatedly
recodes its color as ``2 * i + bit_i`` where ``i`` is the lowest bit at
which it differs from its parent — mapping ``m`` colors to
``2 * ceil(log2 m)`` per round and reaching 6 colors in O(log* n)
rounds.  Then, for each retiring class c in {5, 4, 3}, one *shift-down*
round (every non-root adopts its parent's color, roots re-pick inside
{0, 1, 2}) makes all siblings monochromatic, and one *recolor* round
lets class-c vertices choose a color from {0, 1, 2} avoiding their
parent's color and their children's (now common) color.

Composes with :mod:`repro.subroutines.forest_decomposition`: a graph of
arboricity ``a`` splits into O(a) forests, each 3-colorable in
O(log* n) rounds — the Barenboim–Elkin route to coloring sparse graphs
that complements the paper's dense-graph machinery.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import SubroutineError
from repro.local.algorithm import Api, DistributedAlgorithm
from repro.local.network import Network
from repro.local.node import Node
from repro.local.result import RunResult

__all__ = ["cv_forest_coloring", "verify_forest_coloring"]


def _cv_steps(id_space: int) -> int:
    """Number of recoding rounds to reach 6 colors from ``id_space``."""
    m = max(id_space, 7)
    steps = 0
    while m > 6:
        m = max(6, 2 * math.ceil(math.log2(m)))
        steps += 1
        if steps > 64:  # pragma: no cover - log* converges far sooner
            raise SubroutineError("Cole-Vishkin failed to converge")
    return steps


class _ColeVishkin(DistributedAlgorithm):
    """CV recoding + shift-down on a rooted forest network.

    The network must BE the forest: every edge is a parent link, so a
    node's neighbors are exactly its parent and children.
    """

    name = "cole-vishkin"

    def __init__(self, parent: Sequence[int], id_space: int):
        self.parent = parent
        self.steps = _cv_steps(id_space)

    def on_start(self, node: Node, api: Api) -> None:
        node.state["color"] = node.uid
        node.state["phase"] = 0
        node.state["parent_color"] = None
        node.state["child_colors"] = {}
        api.broadcast(("color", node.uid))
        api.set_alarm(1)

    def on_round(self, node: Node, api: Api, inbox) -> None:
        parent = self.parent[node.index]
        for sender, (_, color) in inbox:
            if sender == parent:
                node.state["parent_color"] = color
            else:
                node.state["child_colors"][sender] = color
        parent_color = node.state["parent_color"]
        phase = node.state["phase"]
        color = node.state["color"]

        if phase < self.steps:
            # Recoding against the parent (roots use a dummy reference).
            if parent != -1 and parent_color is not None:
                reference = parent_color
            else:
                reference = color + 1
            diff = color ^ reference
            bit_index = (diff & -diff).bit_length() - 1
            color = 2 * bit_index + ((color >> bit_index) & 1)
        else:
            q = phase - self.steps
            if q >= 6:
                api.halt(color)
                return
            retiring = 5 - q // 2
            if q % 2 == 0:
                # Shift-down: adopt the parent's color; roots re-pick a
                # small color different from their own.
                if parent == -1:
                    color = next(
                        c for c in (0, 1, 2) if c != color
                    )
                else:
                    color = parent_color
            else:
                # Recolor the retiring class from {0, 1, 2}: after the
                # shift-down all children share one color, so at most
                # two values are forbidden.
                if color == retiring:
                    forbidden = set(node.state["child_colors"].values())
                    if parent != -1:
                        forbidden.add(parent_color)
                    color = next(
                        c for c in (0, 1, 2) if c not in forbidden
                    )
        node.state["color"] = color
        node.state["phase"] = phase + 1
        api.broadcast(("color", color))
        api.set_alarm(api.round + 1)


def cv_forest_coloring(
    network: Network,
    parent: Sequence[int],
    *,
    id_space: int | None = None,
) -> tuple[list[int], RunResult]:
    """3-color a rooted forest in O(log* n) + O(1) rounds.

    ``parent[v]`` gives the rooted structure (-1 for roots); the
    network's edges must be exactly the parent links.
    """
    if len(parent) != network.n:
        raise SubroutineError("one parent entry per vertex required")
    non_roots = 0
    for v, p in enumerate(parent):
        if p == -1:
            continue
        non_roots += 1
        if p not in network.adjacency[v]:
            raise SubroutineError(f"parent {p} of {v} is not a neighbor")
    if non_roots != network.edge_count:
        raise SubroutineError(
            "the network must be exactly the rooted forest (every edge a "
            "parent link)"
        )
    if id_space is None:
        id_space = max(network.uids) + 1 if network.n else 1
    result = network.run(_ColeVishkin(list(parent), id_space))
    colors = [int(c) for c in result.outputs]
    verify_forest_coloring(parent, colors)
    return colors, result


def verify_forest_coloring(
    parent: Sequence[int], colors: Sequence[int]
) -> None:
    """Raise unless every child differs from its parent and colors < 3."""
    for v, p in enumerate(parent):
        if not 0 <= colors[v] < 3:
            raise SubroutineError(
                f"vertex {v} has color {colors[v]} outside {{0, 1, 2}}"
            )
        if p != -1 and colors[v] == colors[p]:
            raise SubroutineError(
                f"child {v} and parent {p} share color {colors[v]}"
            )
