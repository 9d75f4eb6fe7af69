"""Seeded deterministic TCP chaos proxy for the coloring service.

``repro chaosproxy`` sits between a client and a server, forwards
bytes, and injects network faults per a :class:`ChaosPlan`:

* **added latency** — per forwarded chunk, base + uniform jitter,
  gated by a probability;
* **connection resets mid-stream** — both directions aborted without
  flushing, so the peer observes a reset/EOF at a chunk boundary;
* **byte truncation / partial writes** — half of a chunk is written,
  then the connection is aborted;
* **accept-then-blackhole** — the connection is accepted and read but
  never forwarded, exercising client-side timeouts;
* **bandwidth throttling** — each chunk pays ``len / bandwidth``
  seconds before forwarding.

Determinism contract (the repo's seeded-chaos discipline, DESIGN.md
§7/§13): every fault decision is a roll from a ``random.Random``
derived via SHA-256 from ``(plan.seed, connection index, direction)``,
consumed in a fixed per-chunk order.  The fault schedule of a given
connection/direction is therefore a pure function of the plan and the
chunk sequence — independent of event-loop interleaving across
connections — and :func:`fault_schedule` replays it offline, which the
tests use to assert that a proxy run matches its predicted schedule
and that equal seeds produce identical schedules.

Wall-clock effects (actual sleeps, abort timing) are inherently
wall-clock; what is bit-reproducible is *which* chunk gets *which*
fault.  Like the rest of :mod:`repro.serve`, this module is exempt
from the determinism lint because it talks to sockets and clocks; its
*decisions* remain seeded.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
from dataclasses import asdict, dataclass
from typing import Any

from repro.runner.campaign import derive_cell_seed
from repro.serve.client import Endpoint
from repro.serve.frontend import Listener
from repro.serve.knobs import check_knobs, knob

__all__ = [
    "ChaosPlan",
    "ChaosProxy",
    "ChunkFault",
    "chunk_fault",
    "fault_schedule",
]

#: Directions a proxied connection pumps bytes in.
DIRECTIONS = ("c2s", "s2c")


@dataclass(frozen=True)
class ChaosPlan:
    """Fault rates and shapes; ``seed`` makes every run replayable."""

    seed: int = knob(0, "--seed", help="chaos plan seed (default %(default)s)")
    latency_ms: float = knob(
        0.0, "--latency-ms", ge=0,
        help="base added latency per forwarded chunk",
    )
    latency_jitter_ms: float = knob(
        0.0, "--latency-jitter-ms", ge=0,
        help="uniform extra latency on top of the base",
    )
    latency_probability: float = knob(
        1.0, "--latency-probability", ge=0, le=1,
        help="fraction of chunks paying the latency (default %(default)s)",
    )
    reset_probability: float = knob(
        0.0, "--reset-probability", ge=0, le=1,
        help="per-chunk probability of aborting both directions",
    )
    truncate_probability: float = knob(
        0.0, "--truncate-probability", ge=0, le=1,
        help="per-chunk probability of a partial write then abort",
    )
    blackhole_probability: float = knob(
        0.0, "--blackhole-probability", ge=0, le=1,
        help="per-connection probability of accept-then-never-answer",
    )
    bandwidth_bytes_per_s: float | None = knob(
        None, "--bandwidth", gt=0, metavar="BYTES_PER_S",
        help="throttle forwarding to this many bytes per second",
    )
    chunk_bytes: int = knob(
        4096, "--chunk-bytes", ge=1,
        help="forwarding chunk size, the fault-injection granularity",
    )

    def __post_init__(self) -> None:
        check_knobs(self)

    def rng_for(self, connection_index: int, direction: str) -> random.Random:
        """The seeded stream for one connection/direction pump."""
        return random.Random(
            derive_cell_seed(self.seed, connection_index, f"chaos:{direction}")
        )

    def blackholes(self, connection_index: int) -> bool:
        """The (single) accept-time roll for one connection."""
        return (
            random.Random(
                derive_cell_seed(self.seed, connection_index, "chaos:accept")
            ).random()
            < self.blackhole_probability
        )

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class ChunkFault:
    """The decision for one forwarded chunk."""

    action: str  # "pass" | "reset" | "truncate"
    delay_ms: float = 0.0


def chunk_fault(plan: ChaosPlan, rng: random.Random) -> ChunkFault:
    """Roll one chunk's fault in the fixed order: reset, truncate,
    latency gate, jitter.  The order is part of the determinism
    contract — changing it changes every seeded schedule."""
    if rng.random() < plan.reset_probability:
        return ChunkFault("reset")
    if rng.random() < plan.truncate_probability:
        return ChunkFault("truncate")
    delay = 0.0
    if plan.latency_ms > 0 or plan.latency_jitter_ms > 0:
        if rng.random() < plan.latency_probability:
            delay = plan.latency_ms + plan.latency_jitter_ms * rng.random()
    return ChunkFault("pass", delay)


def fault_schedule(
    plan: ChaosPlan, connection_index: int, direction: str, chunks: int
) -> list[ChunkFault]:
    """Replay the first ``chunks`` decisions of one pump offline."""
    rng = plan.rng_for(connection_index, direction)
    return [chunk_fault(plan, rng) for _ in range(chunks)]


@dataclass
class _ProxiedConnection:
    index: int
    client_writer: asyncio.StreamWriter
    upstream_writer: asyncio.StreamWriter | None = None

    def abort(self) -> None:
        """Reset both sides without flushing buffered bytes."""
        for writer in (self.client_writer, self.upstream_writer):
            if writer is not None:
                with contextlib.suppress(Exception):
                    writer.transport.abort()


class ChaosProxy(Listener):
    """Asyncio TCP/UNIX proxy injecting :class:`ChaosPlan` faults.

    The serving tiers' listener (:class:`repro.serve.frontend.Listener`):
    ``await start()``, read ``address``/``port``, ``await close()``.
    ``fault_log`` records every decision as
    ``{connection, direction, chunk, action, delay_ms}`` —
    per-(connection, direction) subsequences are deterministic given
    the plan seed (the *interleaving* across pumps is not, and tests
    must filter accordingly).
    """

    def __init__(
        self,
        plan: ChaosPlan,
        upstream: Endpoint,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: str | None = None,
    ):
        super().__init__(host, port, unix_path)
        self.plan = plan
        self.upstream = upstream
        self.connections = 0
        self.blackholed = 0
        self.resets = 0
        self.truncations = 0
        self.bytes_forwarded = 0
        self.fault_log: list[dict[str, Any]] = []

    def summary(self) -> dict[str, Any]:
        return {
            "connections": self.connections,
            "blackholed": self.blackholed,
            "resets": self.resets,
            "truncations": self.truncations,
            "bytes_forwarded": self.bytes_forwarded,
            "plan": self.plan.as_dict(),
        }

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        index = self.connections
        self.connections += 1
        proxied = _ProxiedConnection(index, writer)
        try:
            if self.plan.blackholes(index):
                self.blackholed += 1
                self.fault_log.append({
                    "connection": index, "direction": "accept",
                    "chunk": 0, "action": "blackhole", "delay_ms": 0.0,
                })
                # Read and never answer, until the client gives up.
                with contextlib.suppress(ConnectionError, OSError):
                    while await reader.read(self.plan.chunk_bytes):
                        pass
                return
            try:
                if self.upstream.unix_path is not None:
                    up_reader, up_writer = await asyncio.open_unix_connection(
                        self.upstream.unix_path
                    )
                else:
                    up_reader, up_writer = await asyncio.open_connection(
                        self.upstream.host, self.upstream.port
                    )
            except (ConnectionError, OSError):
                proxied.abort()
                return
            proxied.upstream_writer = up_writer
            await asyncio.gather(
                self._pump(proxied, "c2s", reader, up_writer),
                self._pump(proxied, "s2c", up_reader, writer),
                return_exceptions=True,
            )
        except asyncio.CancelledError:
            proxied.abort()  # the proxy closed: flush nothing, wait for no one
            raise
        finally:
            for side in (writer, proxied.upstream_writer):
                if side is not None:
                    side.close()
                    with contextlib.suppress(ConnectionError, OSError):
                        await side.wait_closed()

    async def _pump(
        self,
        proxied: _ProxiedConnection,
        direction: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        plan = self.plan
        rng = plan.rng_for(proxied.index, direction)
        chunk_index = 0
        try:
            while True:
                data = await reader.read(plan.chunk_bytes)
                if not data:
                    # Clean half-close: propagate EOF so NDJSON peers
                    # see end-of-stream, not a stall.
                    if writer.can_write_eof():
                        with contextlib.suppress(ConnectionError, OSError):
                            writer.write_eof()
                    return
                fault = chunk_fault(plan, rng)
                self.fault_log.append({
                    "connection": proxied.index, "direction": direction,
                    "chunk": chunk_index, "action": fault.action,
                    "delay_ms": round(fault.delay_ms, 6),
                })
                chunk_index += 1
                if fault.action == "reset":
                    self.resets += 1
                    proxied.abort()
                    return
                if fault.action == "truncate":
                    self.truncations += 1
                    writer.write(data[: max(1, len(data) // 2)])
                    with contextlib.suppress(ConnectionError, OSError):
                        await writer.drain()
                    proxied.abort()
                    return
                if fault.delay_ms > 0:
                    await asyncio.sleep(fault.delay_ms / 1000.0)
                if plan.bandwidth_bytes_per_s is not None:
                    await asyncio.sleep(
                        len(data) / plan.bandwidth_bytes_per_s
                    )
                writer.write(data)
                await writer.drain()
                self.bytes_forwarded += len(data)
        except (ConnectionError, OSError):
            return
