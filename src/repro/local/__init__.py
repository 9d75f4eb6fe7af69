"""Synchronous LOCAL-model simulator.

This subpackage is the execution substrate for every algorithm in the
repository: a message-passing engine with honest round accounting
(:class:`Network`), per-node algorithm callbacks
(:class:`DistributedAlgorithm`), seeded fault injection
(:class:`FaultPlan`), virtual-graph adapters (:class:`VirtualNetwork`),
radius-k gathering (:func:`gather_balls`), and phase ledgers
(:class:`RoundLedger`).
"""

from repro.local.algorithm import BROADCAST, Api, DistributedAlgorithm
from repro.local.faults import FaultPlan
from repro.local.gather import Ball, ball, ball_vertices, gather_balls
from repro.local.ledger import LedgerEntry, RoundLedger
from repro.local.network import DEFAULT_MAX_ROUNDS, Network
from repro.local.node import Node
from repro.local.result import RunResult
from repro.local.trace import RoundSample, Tracer
from repro.local.virtual import VirtualNetwork

__all__ = [
    "Api",
    "BROADCAST",
    "Ball",
    "DEFAULT_MAX_ROUNDS",
    "DistributedAlgorithm",
    "FaultPlan",
    "LedgerEntry",
    "Network",
    "Node",
    "RoundLedger",
    "RoundSample",
    "RunResult",
    "Tracer",
    "VirtualNetwork",
    "ball",
    "ball_vertices",
    "gather_balls",
]
