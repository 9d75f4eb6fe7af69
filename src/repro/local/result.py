"""Result record for one simulated LOCAL algorithm execution."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class RunResult:
    """Outcome of :meth:`repro.local.network.Network.run`.

    Attributes
    ----------
    rounds:
        Number of synchronous rounds that elapsed, including quiet rounds
        that were fast-forwarded over (a LOCAL algorithm idling until an
        alarm still spends those rounds).
    messages:
        Total number of point-to-point messages *sent* (each copy of a
        broadcast counts once), including copies silently discarded at
        halted nodes and copies lost to fault injection.
    outputs:
        Per-node outputs indexed by node index, as published via
        ``api.output(value)``; ``None`` for nodes that never published.
    halted:
        Per-node halt flags at termination.
    dropped_messages:
        Messages lost to fault injection (random drops plus deliveries
        to crashed nodes); always 0 on a fault-free run.  ``messages``
        keeps counting *sent* messages, so delivered = messages −
        dropped_messages (modulo the silent drops at halted nodes that
        the fault-free engine also performs).
    crashed_nodes:
        Indices of nodes whose scheduled crash-stop actually took
        effect before the run ended (empty on fault-free runs).
    budget_exhausted:
        True when a :class:`~repro.local.faults.FaultPlan` round budget
        cut the execution off; ``rounds`` then reports the rounds the
        system survived and ``outputs`` whatever was published by then.
    """

    rounds: int
    messages: int
    outputs: list[Any]
    halted: list[bool] = field(default_factory=list)
    dropped_messages: int = 0
    crashed_nodes: list[int] = field(default_factory=list)
    budget_exhausted: bool = False

    @property
    def all_halted(self) -> bool:
        return all(self.halted) if self.halted else True

    @property
    def delivered_messages(self) -> int:
        """Sent messages minus fault-injected losses."""
        return self.messages - self.dropped_messages

    def fault_summary(self) -> dict[str, Any]:
        """Flat fault-accounting dict for artifact rows."""
        return {
            "dropped_messages": self.dropped_messages,
            "crashed_nodes": list(self.crashed_nodes),
            "budget_exhausted": self.budget_exhausted,
            "rounds_survived": self.rounds,
        }
