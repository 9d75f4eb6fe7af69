"""Base class for message-passing algorithms run by the simulator.

An algorithm is written from the point of view of a single node, in the
classic synchronous LOCAL style:

* :meth:`on_start` runs once for every node in round 0.  It typically
  sends the node's initial messages and/or sets an alarm.
* :meth:`on_round` runs for a node in every round in which the node is
  *scheduled*: it received at least one message in the previous round, or
  an alarm it set is due.  Unscheduled nodes cost nothing, which lets the
  engine fast-forward through quiet rounds (e.g. empty color classes of a
  color-class sweep) without losing round-count fidelity.

  The exception is an algorithm whose class sets ``wake_on_messages =
  False``: a message only joins the receiver's inbox, and the node runs
  at its alarm rounds alone, seeing everything that arrived since its
  previous run in delivery order.  The two color-class sweeps
  (``deg+1-sweep``, ``mis-sweep``) do, since their nodes act only in
  their own class round; a tracer therefore counts fewer scheduled
  nodes for them, while their :class:`~repro.local.result.RunResult` is
  unchanged.

Nodes communicate only with neighbors; the engine raises
:class:`repro.errors.SimulationError` on any attempt to send elsewhere,
which keeps the implementations honest to the LOCAL model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

from repro.errors import SimulationError
from repro.local.node import Node

#: Outbox destination marker meaning "all neighbors of the sender".  A
#: broadcast is recorded as a single outbox row and expanded against the
#: immutable adjacency at delivery time, so broadcasting costs O(1) here
#: instead of O(degree) tuple allocations.
BROADCAST = -1


class Api:
    """Per-run facade the engine hands to algorithm callbacks.

    The same instance is reused across callbacks; it always refers to the
    node currently being scheduled.  Outbox rows are ``(dst, src,
    payload)`` with ``dst == BROADCAST`` denoting a broadcast to every
    neighbor of ``src``.
    """

    __slots__ = ("_network", "_node", "_outbox", "_alarms", "round")

    def __init__(self, network) -> None:
        self._network = network
        self._node: Node | None = None
        self._outbox: list[tuple[int, int, Any]] = []
        self._alarms: list[tuple[int, int]] = []
        self.round = 0

    def _bind(self, node: Node, rnd: int) -> None:
        self._node = node
        self.round = rnd

    def send(self, neighbor: int, message: Any) -> None:
        """Send a message to one neighbor, delivered next round."""
        if neighbor < 0:
            raise SimulationError(
                f"node {self._node.index} sent to invalid index {neighbor}"
            )
        self._outbox.append((neighbor, self._node.index, message))

    def broadcast(self, message: Any) -> None:
        """Send the same message to every neighbor."""
        self._outbox.append((BROADCAST, self._node.index, message))

    def set_alarm(self, rnd: int) -> None:
        """Request to be scheduled (again) in round ``rnd`` (> current)."""
        if rnd <= self.round:
            raise ValueError(f"alarm round {rnd} not in the future (now {self.round})")
        self._alarms.append((rnd, self._node.index))

    def output(self, value: Any) -> None:
        """Publish this node's output value."""
        self._node.output = value

    def halt(self, value: Any = None) -> None:
        """Publish an output (if given) and stop participating."""
        if value is not None:
            self._node.output = value
        self._node.halted = True


class DistributedAlgorithm(ABC):
    """A synchronous message-passing algorithm.

    Subclasses may keep global *read-only* configuration (palettes,
    parameters, RNG seeds) as attributes, but all per-node mutable state
    must live in ``node.state`` — this mirrors the fact that in the LOCAL
    model there is no shared memory.
    """

    #: Human-readable name used in ledgers and errors.
    name: str = "algorithm"

    #: ``False``: messages never schedule a node; it runs at its alarm
    #: rounds only, with every message received since its previous run.
    wake_on_messages: bool = True

    def on_start(self, node: Node, api: Api) -> None:
        """Round-0 hook; default does nothing."""

    @abstractmethod
    def on_round(self, node: Node, api: Api, inbox: Sequence[tuple[int, Any]]) -> None:
        """Handle one scheduled round.

        ``inbox`` is a sequence of ``(sender_index, message)`` pairs for
        messages sent to this node in the previous round (possibly empty
        when the node was scheduled by an alarm only); with
        ``wake_on_messages = False``, for every message sent to it since
        its previous run.
        """
