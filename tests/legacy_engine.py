"""The pre-overhaul (seed) simulation engine: the parity oracle.

The hot path of :meth:`repro.local.network.Network.run` was rewritten for
throughput (preallocated inbox buffers, int scheduling queue, lazy
broadcast expansion).  This module preserves the original engine
verbatim — per-message validation through ``neighbor_set`` lookups, a
fresh dict-of-lists inbox per round, ``sorted(set(...))`` scheduling, and
``Api._bind`` per node per round — so that

* the engine-parity suite can assert the rewrite produces bit-identical
  :class:`~repro.local.result.RunResult` records, and
* ``benchmarks/bench_engine_microbench.py`` can record the before/after
  rounds-per-second trajectory against a live baseline instead of a
  stale number.

:func:`force_legacy_engine` swaps ``Network.run`` for this engine for the
duration of its scope, which lets entire pipelines (Theorem 1 /
Theorem 2, which spawn many internal runs on subnetworks and virtual
graphs) be replayed on the seed engine end to end.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Any

from repro.errors import RoundLimitExceeded, SimulationError
from repro.local.algorithm import BROADCAST, Api, DistributedAlgorithm
from repro.local.network import DEFAULT_MAX_ROUNDS, Network
from repro.local.result import RunResult

__all__ = ["run_legacy", "force_legacy_engine"]


def _run_method(network, algorithm, *, faults=None, **options) -> RunResult:
    """``Network.run`` stand-in installed by :func:`force_legacy_engine`."""
    if faults is not None and not faults.is_noop:
        raise SimulationError(
            "the legacy engine does not support fault injection; "
            "run with faults=None under force_legacy_engine()"
        )
    return run_legacy(network, algorithm, **options)


@contextmanager
def force_legacy_engine():
    """Route all ``Network.run`` calls through the seed engine.

    Nestable; restores the previous ``Network.run`` on exit.
    """
    previous = Network.run
    Network.run = _run_method
    try:
        yield
    finally:
        Network.run = previous


def run_legacy(
    network,
    algorithm: DistributedAlgorithm,
    *,
    max_rounds: int | None = None,
    tracer=None,
) -> RunResult:
    """Execute ``algorithm`` on ``network`` with the seed engine.

    Semantics (scheduling order, message delivery order, round and
    message accounting, validation behavior) are identical to the seed
    revision of ``Network.run``; only the outbox decoding differs, because
    ``Api.broadcast`` now records one row per broadcast — the expansion
    below performs the exact per-copy work the seed engine did inside
    ``Api.broadcast`` plus its flush loop.
    """
    if max_rounds is None:
        max_rounds = DEFAULT_MAX_ROUNDS

    for node in network.nodes:
        node.reset()

    api = Api(network)
    alarms: list[tuple[int, int]] = []
    messages_sent = 0
    validate = network._validate_sends

    def flush_outbox(current_round: int) -> dict[int, list[tuple[int, Any]]]:
        nonlocal messages_sent
        inboxes: dict[int, list[tuple[int, Any]]] = {}
        for dst, src, payload in api._outbox:
            targets = network.adjacency[src] if dst == BROADCAST else (dst,)
            # N(src) once per outbox row (the seed engine's cached set);
            # every copy is still checked against it.
            allowed = network.neighbor_set(src) if validate else None
            for target in targets:
                if validate and target not in allowed:
                    raise SimulationError(
                        f"{algorithm.name}: node {src} sent to "
                        f"non-neighbor {target}"
                    )
                messages_sent += 1
                if network.nodes[target].halted:
                    continue
                inboxes.setdefault(target, []).append((src, payload))
        api._outbox.clear()
        for rnd, index in api._alarms:
            heapq.heappush(alarms, (rnd, index))
        api._alarms.clear()
        return inboxes

    api.round = 0
    for node in network.nodes:
        api._bind(node, 0)
        algorithm.on_start(node, api)
    pending = flush_outbox(0)

    rnd = 0
    last_activity_round = 0
    while pending or alarms:
        if pending:
            rnd += 1
        else:
            rnd = max(rnd + 1, alarms[0][0])
        if rnd > max_rounds:
            raise RoundLimitExceeded(
                f"{algorithm.name} exceeded {max_rounds} rounds on {network.name}"
            )
        due: set[int] = set(pending)
        while alarms and alarms[0][0] <= rnd:
            index = heapq.heappop(alarms)[1]
            if not network.nodes[index].halted:
                due.add(index)
        if not due:
            continue
        api.round = rnd
        empty: tuple = ()
        scheduled = 0
        for index in sorted(due):
            node = network.nodes[index]
            if node.halted:
                continue
            api._bind(node, rnd)
            algorithm.on_round(node, api, pending.get(index, empty))
            scheduled += 1
        if tracer is not None:
            tracer.record(
                rnd,
                scheduled,
                sum(len(box) for box in pending.values()),
                sum(1 for node in network.nodes if node.halted),
            )
        pending = flush_outbox(rnd)
        last_activity_round = rnd

    return RunResult(
        rounds=last_activity_round,
        messages=messages_sent,
        outputs=[node.output for node in network.nodes],
        halted=[node.halted for node in network.nodes],
    )
