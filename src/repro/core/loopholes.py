"""Loopholes — Definition 6 and the deg-list coloring of Lemma 7.

A *loophole* is a subgraph from which a partial Delta-coloring can
always be completed: a vertex of degree < Delta, or a non-clique even
cycle.  The paper only uses loopholes of at most 6 vertices
(Definition 8); this module provides

* :class:`Loophole` — a concrete loophole with its witness kind,
* :func:`find_small_loophole` — an exact per-vertex search for a
  loophole of at most ``max_size`` vertices (used by tests and small
  graphs to cross-validate the structural classification of
  ``repro.core.hardness``),
* :func:`boundary_loophole` — the Section 4 boundary loophole of a
  clique in a shattered component,
* :func:`color_loophole` — exact deg-list coloring of a constant-size
  loophole by backtracking; succeeds whenever every vertex's list is at
  least its induced degree (Lemma 7 / [ERT79]), which the callers
  guarantee by coloring loopholes last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import InvariantViolation
from repro.local.network import Network

__all__ = [
    "Loophole",
    "boundary_loophole",
    "color_loophole",
    "find_small_loophole",
    "is_loophole",
]


@dataclass(frozen=True)
class Loophole:
    """A concrete loophole: its vertex set and the witnessing shape.

    ``kind`` is one of ``"low-degree"`` (Definition 6, type 1),
    ``"even-cycle"`` (type 2, a non-clique even cycle given in cycle
    order), or ``"boundary"`` — the Section 4 extension used during
    post-shattering: a vertex with an uncolored neighbor outside the
    small component, which therefore has slack exactly like a
    low-degree vertex.
    """

    vertices: tuple[int, ...]
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("low-degree", "even-cycle", "boundary"):
            raise InvariantViolation(f"unknown loophole kind {self.kind!r}")
        if self.kind in ("low-degree", "boundary") and len(self.vertices) != 1:
            raise InvariantViolation(
                f"{self.kind} loopholes are single vertices"
            )
        if self.kind == "even-cycle" and (
            len(self.vertices) < 4 or len(self.vertices) % 2
        ):
            raise InvariantViolation("even-cycle loopholes need even length >= 4")



def boundary_loophole(
    network: Network,
    clique: Sequence[int],
    colors: Sequence[int | None],
    region: set[int],
) -> Loophole | None:
    """The Section 4 boundary loophole of a clique, if it has one.

    That is the first uncolored vertex of ``clique`` with an uncolored
    neighbor outside ``region`` (a shattered component's vertices); it
    keeps slack until that neighbor is colored.
    """
    for v in clique:
        if colors[v] is None and any(
            colors[u] is None and u not in region for u in network.adjacency[v]
        ):
            return Loophole((v,), "boundary")
    return None

def is_loophole(
    network: Network,
    loophole: Loophole,
    delta: int,
    *,
    uncolored_outside: set[int] | None = None,
) -> bool:
    """Check a claimed loophole against Definition 6.

    Boundary loopholes (the Section 4 extension) are valid relative to a
    set of vertices known to stay uncolored; pass it via
    ``uncolored_outside``.
    """
    if loophole.kind == "boundary":
        if uncolored_outside is None:
            return True  # contextual; cannot be checked locally
        v = loophole.vertices[0]
        return any(u in uncolored_outside for u in network.adjacency[v])
    if loophole.kind == "low-degree":
        return network.degree(loophole.vertices[0]) < delta
    cycle = loophole.vertices
    k = len(cycle)
    for i in range(k):
        if cycle[(i + 1) % k] not in network.adjacency[cycle[i]]:
            return False
    if len(set(cycle)) != k:
        return False
    # Non-clique: some pair non-adjacent.
    return any(
        cycle[j] not in network.adjacency[cycle[i]]
        for i in range(k)
        for j in range(i + 1, k)
    )


def find_small_loophole(
    network: Network, v: int, delta: int, max_size: int = 6
) -> Loophole | None:
    """Exact search for a loophole of at most ``max_size`` vertices at ``v``.

    Checks the degree condition, then enumerates simple cycles of even
    length 4 .. max_size through ``v`` via DFS, returning the first
    non-clique one.  Cost is O(Delta^(max_size - 1)) in the worst case;
    intended for tests and small graphs — the production classification
    in :mod:`repro.core.hardness` uses O(poly Delta) structural checks.
    """
    if network.degree(v) < delta:
        return Loophole((v,), "low-degree")
    for length in range(4, max_size + 1, 2):
        cycle = _find_nonclique_cycle(network, v, length)
        if cycle is not None:
            return Loophole(tuple(cycle), "even-cycle")
    return None


def _find_nonclique_cycle(network: Network, v: int, length: int) -> list[int] | None:
    """First simple non-clique cycle of exactly ``length`` through ``v``."""
    path = [v]
    on_path = {v}

    def dfs() -> list[int] | None:
        if len(path) == length:
            if path[0] in network.adjacency[path[-1]] and _is_nonclique(
                network, path
            ):
                return list(path)
            return None
        for u in network.adjacency[path[-1]]:
            if u in on_path:
                continue
            path.append(u)
            on_path.add(u)
            found = dfs()
            if found is not None:
                return found
            on_path.discard(u)
            path.pop()
        return None

    return dfs()


def _is_nonclique(network: Network, vertices: Sequence[int]) -> bool:
    return any(
        vertices[j] not in network.adjacency[vertices[i]]
        for i in range(len(vertices))
        for j in range(i + 1, len(vertices))
    )


def color_loophole(
    network: Network,
    loophole_vertices: Sequence[int],
    lists: dict[int, list[int]],
) -> dict[int, int]:
    """Exact list coloring of a small induced subgraph by backtracking.

    ``lists[v]`` must contain at least the induced degree of ``v`` many
    colors (the deg-list condition of Lemma 7); for a genuine loophole
    colored last this always holds and the search always succeeds.
    Raises :class:`InvariantViolation` otherwise — the callers treat
    that as an algorithm bug, not as an input error.
    """
    vertices = list(loophole_vertices)
    order = sorted(vertices, key=lambda v: len(lists[v]))
    inside = set(vertices)
    assignment: dict[int, int] = {}
    # Depth-first search with an explicit stack (a self-calling closure
    # would be cyclic garbage): ``next_choice[i]`` is the position in
    # ``lists[order[i]]`` to resume from when the search returns to i.
    next_choice = [0] * len(order)
    i = 0
    while 0 <= i < len(order):
        v = order[i]
        assignment.pop(v, None)
        options = lists[v]
        for position in range(next_choice[i], len(options)):
            color = options[position]
            if not any(
                assignment.get(u) == color
                for u in network.adjacency[v]
                if u in inside
            ):
                assignment[v] = color
                next_choice[i] = position + 1
                i += 1
                break
        else:
            next_choice[i] = 0
            i -= 1

    if i < 0:
        raise InvariantViolation(
            f"loophole {vertices} is not colorable from its lists; "
            "this contradicts Lemma 7 (deg-list colorability) — the "
            "surrounding algorithm violated the coloring order"
        )
    return assignment
