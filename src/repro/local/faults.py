"""Deterministic fault injection for the LOCAL engine.

The paper analyzes a fault-free synchronous LOCAL model; this module
adds the machinery to ask "and what if rounds were *not* reliable?"
without giving up reproducibility.  A :class:`FaultPlan` describes a
failure scenario — per-delivery message-drop probability, crash-stop
schedules for individual nodes, and an optional round budget after
which the execution is cut off — and is injected into a run via
``network.run(algorithm, faults=plan)``.

Determinism contract
--------------------
A plan is *fully seeded*: every drop decision comes from a private
``random.Random(plan.seed)`` stream consumed in the engine's (itself
deterministic) delivery order, and crash/budget events are fixed
schedules.  The same ``(network, algorithm, plan)`` triple therefore
yields a bit-identical :class:`~repro.local.result.RunResult` —
including the fault accounting — on every run, in any process, which
is what makes chaos experiments regression-testable.

Fault semantics
---------------
* **Message loss.**  Each point-to-point delivery (each copy of a
  broadcast counts separately) to a live, non-halted node is dropped
  independently with probability ``drop_probability``.  ``messages``
  in the result still counts *sent* messages — exactly as the
  fault-free engine does — while ``dropped_messages`` counts the
  losses, so delivered = sent − dropped (− the silent drops at halted
  nodes that the fault-free engine also performs).  Bandwidth words
  are charged at send time: a dropped message still occupied the link.
* **Crash-stop.**  A node with crash round ``c`` executes ``on_start``
  (if ``c > 0``) and ``on_round`` for rounds ``< c``, then stops
  forever: it is never scheduled again, its alarms are discarded, and
  every message that would reach it in round ``>= c`` is lost (counted
  in ``dropped_messages``).  ``c = 0`` means the node was dead on
  arrival and not even initialized.  Messages the node sent in its
  last live round are delivered — crash-stop, not Byzantine recall.
* **Round budget.**  When ``round_budget = B`` is set, the execution is
  cut off before simulating any round ``> B``; the result reports
  ``rounds = B`` (the rounds survived) with ``budget_exhausted=True``
  and whatever outputs the nodes had published by then.  This models
  "the system died at round B" — unlike ``max_rounds``, which treats
  overrun as an error and raises.

A plan is a hook on the one engine loop, :meth:`Network.run
<repro.local.network.Network.run>`: it supplies the crash schedule
(:meth:`FaultPlan.crash_rounds`), the seeded drop stream
(:meth:`FaultPlan.drop_stream`) and the round budget, and the loop
consults them at delivery, alarm and round-counter time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.errors import SimulationError

__all__ = ["FaultPlan"]

#: Crash-round sentinel meaning "never crashes".
_NEVER = float("inf")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, reproducible failure scenario for one engine run.

    Attributes
    ----------
    seed:
        Seed of the private drop-decision RNG.  Two runs with the same
        plan are bit-identical; changing only ``seed`` re-rolls which
        messages are lost.
    drop_probability:
        Probability in ``[0, 1]`` that any single delivery is lost.
    crashes:
        ``(node_index, crash_round)`` pairs; the node is dead from the
        start of ``crash_round`` on (``0`` = dead on arrival).
    round_budget:
        Optional cut-off: the run is stopped before any round beyond
        this budget executes and the partial result is returned.
    """

    seed: int = 0
    drop_probability: float = 0.0
    crashes: tuple[tuple[int, int], ...] = ()
    round_budget: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability <= 1.0:
            raise SimulationError(
                f"drop_probability {self.drop_probability} outside [0, 1]"
            )
        for node, rnd in self.crashes:
            if node < 0 or rnd < 0:
                raise SimulationError(
                    f"invalid crash entry ({node}, {rnd}): negative values"
                )
        if self.round_budget is not None and self.round_budget < 0:
            raise SimulationError(
                f"round_budget {self.round_budget} is negative"
            )

    @property
    def is_noop(self) -> bool:
        """True when the plan injects nothing (fault-free hot path)."""
        return (
            self.drop_probability == 0.0
            and not self.crashes
            and self.round_budget is None
        )

    def crash_rounds(self, n: int) -> list[float]:
        """Per-node crash round (``inf`` = never), validated against n."""
        rounds: list[float] = [_NEVER] * n
        for node, rnd in self.crashes:
            if node >= n:
                raise SimulationError(
                    f"crash schedule names node {node}, network has {n}"
                )
            rounds[node] = min(rounds[node], rnd)
        return rounds

    def drop_stream(self) -> Callable[[], float] | None:
        """The seeded per-delivery drop roll (None when nothing drops)."""
        if self.drop_probability == 0.0:
            return None
        return random.Random(self.seed).random
