"""Linial's color reduction: an O(Delta^2)-coloring in O(log* n) rounds.

This is the deterministic symmetry-breaking workhorse [Lin92]: starting
from the unique identifiers (an ``m``-coloring for ``m`` = ID-space
size), each round reduces the number of colors using polynomial set
systems until O(Delta^2) colors remain.  Every color-class *sweep*
subroutine in this package (list coloring, MIS, maximal matching) runs
Linial first and then processes classes in order.

Reduction step.  With current palette ``[m]`` and a prime ``q > k *
Delta`` such that ``q^(k+1) >= m``, interpret a color as a polynomial of
degree <= k over ``F_q`` (its base-q digits).  Two distinct polynomials
agree on at most ``k`` points, so among ``q > k * Delta`` evaluation
points each node ``v`` finds an ``x`` with ``p_v(x) != p_u(x)`` for all
neighbors ``u``; the new color ``(x, p_v(x))`` lives in ``[q^2]``.  All
nodes recolor simultaneously and properness is preserved.  Iterating
reaches a fixpoint of at most ``(2 * Delta + 2)^2`` colors after
O(log* m) rounds.

Evaluation.  Each step keeps a value table ``tables[step][x][color] =
p_color(x)``, filled on first lookup and shared by all nodes and by
every instance whose schedule has the same ``(q, k)`` step (a bounded
cache of at most 16 steps, each column holding at most
:data:`COLUMN_LIMIT` colors), so a node reads its neighbours' values
at ``x`` instead of re-deriving their polynomials.  This stays within
the LOCAL model: the table memoises a pure function of ``(color, q,
k)`` that any node could compute itself, and a node looks up only its
own color and the colors in its inbox.  Colors, messages and rounds are exactly those
of per-node re-derivation (kept under ``tests/`` as the parity oracle).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from repro.errors import SubroutineError
from repro.local.algorithm import Api, DistributedAlgorithm
from repro.local.network import Network
from repro.local.node import Node
from repro.local.result import RunResult

__all__ = ["LinialColoring", "linial_coloring", "linial_palette_bound", "next_prime"]


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    if x % 2 == 0:
        return x == 2
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True


def next_prime(x: int) -> int:
    """Smallest prime strictly greater than ``x``."""
    candidate = x + 1
    while not _is_prime(candidate):
        candidate += 1
    return candidate


def _digits(value: int, base: int, count: int) -> list[int]:
    out = []
    for _ in range(count):
        out.append(value % base)
        value //= base
    return out


#: Most colors one value column keeps; later lookups are computed.
COLUMN_LIMIT = 1 << 16


class _ValueColumn(dict[int, int]):
    """``color -> p_color(x)`` over ``F_q`` at one point ``x``, filled on
    lookup up to :data:`COLUMN_LIMIT` colors."""

    def __init__(self, x: int, q: int, k: int):
        super().__init__()
        self.x, self.q, self.k = x, q, k

    def __missing__(self, color: int) -> int:
        value = _eval_poly(_digits(color, self.q, self.k + 1), self.x, self.q)
        if len(self) < COLUMN_LIMIT:
            self[color] = value
        return value


@lru_cache(maxsize=16)
def _value_columns(q: int, k: int) -> tuple[_ValueColumn, ...]:
    """The ``q`` value columns of one ``(q, k)`` step, shared by every
    instance whose schedule has that step; the least recently used of
    more than 16 steps is dropped."""
    return tuple(_ValueColumn(x, q, k) for x in range(q))


def _reduction_schedule(m: int, delta: int) -> list[tuple[int, int]]:
    """Sequence of ``(q, k)`` reduction steps from palette ``m``.

    Each step maps ``[m]`` into ``[q**2]`` with ``q`` prime, ``q > k *
    delta`` and ``q**(k+1) >= m``; the main loop stops when no step
    shrinks the palette bound (``q**2 >= m``), which happens at
    ``m = O(delta**2)``.

    A final *compaction* step is appended whenever the residual palette
    exceeds a few multiples of ``q = next_prime(2 * delta)``: the step
    is proper-preserving for any such ``q`` (``q > 2 * delta``
    evaluation points versus at most ``2 * delta`` forbidden values),
    and although its worst case is still ``q**2`` colors, the
    greedy-first evaluation point concentrates the *realized* colors
    near ``O(delta)`` — which is what the color-class sweeps downstream
    actually pay for.
    """
    degree = max(delta, 1)
    schedule: list[tuple[int, int]] = []
    guard = 0
    while True:
        guard += 1
        if guard > 64:  # log* of anything practical is < 10
            raise SubroutineError("Linial reduction schedule failed to converge")
        best: tuple[int, int] | None = None
        k = 1
        while True:
            q = next_prime(k * degree)
            if q ** (k + 1) >= m:
                if q * q < m:
                    best = (q, k)
                break
            k += 1
        if best is None:
            break
        schedule.append(best)
        m = best[0] ** 2
    # Compaction applies only when no reduction step ran at all (the
    # classes would otherwise be raw identifiers): a genuine reduction
    # step already concentrates its output near O(delta), and re-mapping
    # an already-compact coloring spreads it out again.
    q2 = next_prime(2 * degree)
    if not schedule and m > 6 * q2 and q2 ** 3 >= m:
        schedule.append((q2, 2))
    return schedule


def linial_palette_bound(delta: int) -> int:
    """Upper bound on the final palette size.

    The reduction stops at palette ``m`` once no ``(q, k)`` step makes
    progress.  A ``k = 2`` step with ``q = next_prime(2 * delta)`` makes
    progress whenever ``q**2 < m`` (since ``q**3 >= m`` holds long before
    that), so the fixpoint is at most ``next_prime(2 * delta)**2``.
    """
    return next_prime(2 * max(delta, 1)) ** 2


class LinialColoring(DistributedAlgorithm):
    """Message-passing implementation of iterated Linial reduction.

    Parameters
    ----------
    id_space:
        A known upper bound on ``uid + 1`` over all nodes (in the LOCAL
        model, ``n`` — or the ID space — is global knowledge).
    delta:
        Maximum degree of the network the schedule is planned for.
    """

    name = "linial"

    def __init__(self, id_space: int, delta: int):
        if id_space < 1:
            raise SubroutineError("id_space must be positive")
        self.schedule = _reduction_schedule(id_space, delta)
        # tables[step][x][color] = p_color(x) over F_q, filled on first use.
        self.tables = [_value_columns(q, k) for q, k in self.schedule]

    def on_start(self, node: Node, api: Api) -> None:
        node.state["color"] = node.uid
        node.state["step"] = 0
        if not self.schedule:
            api.halt(node.state["color"])
            return
        api.broadcast(node.uid)
        if not node.neighbors:
            self._finish_isolated(node, api)

    def _finish_isolated(self, node: Node, api: Api) -> None:
        # No neighbors: every reduction step may pick x = 0 immediately.
        color = node.state["color"]
        for q, _ in self.schedule:
            color %= q  # the constant coefficient: p_color(0)
        node.state["color"] = color
        api.halt(color)

    def on_round(self, node: Node, api: Api, inbox: Sequence[tuple[int, int]]) -> None:
        step = node.state["step"]
        q, k = self.schedule[step]
        own = node.state["color"]
        colors = [color for _, color in inbox]
        for x, values in enumerate(self.tables[step]):
            own_val = values[own]
            if own_val not in map(values.__getitem__, colors):
                break
        else:
            raise SubroutineError(
                f"Linial step found no evaluation point (q={q}, k={k}); "
                "the input coloring was not proper"
            )
        node.state["color"] = x * q + own_val
        node.state["step"] = step + 1
        if node.state["step"] == len(self.schedule):
            api.halt(node.state["color"])
        else:
            api.broadcast(node.state["color"])


def _eval_poly(coeffs: list[int], x: int, q: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = (value * x + c) % q
    return value


def linial_coloring(
    network: Network, *, id_space: int | None = None, delta: int | None = None
) -> tuple[list[int], RunResult]:
    """Compute an O(Delta^2)-coloring of the network.

    Returns the colors (proper, in ``range(linial_palette_bound(delta))``)
    and the simulator result carrying the round/message cost.
    """
    if id_space is None:
        id_space = max(network.uids) + 1
    if delta is None:
        delta = network.max_degree
    algorithm = LinialColoring(id_space, delta)
    result = network.run(algorithm)
    colors = [node.state["color"] for node in network.nodes]
    return colors, result
