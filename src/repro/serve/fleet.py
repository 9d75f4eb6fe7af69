"""The fleet supervisor: N serve shards + one router, one process tree.

:class:`FleetSupervisor` is the operational half of the sharded fleet
(DESIGN.md §14).  It spawns ``N`` backend shards as real ``repro
serve`` subprocesses — one UNIX socket each, all pointed at one shared
``cache_dir`` — then runs a :class:`~repro.serve.router.FleetRouter`
in-process as the front tier, and babysits the lot:

* **Liveness.**  A monitor loop polls each shard.  A crashed shard is
  removed from the ring immediately (clients re-route to the next ring
  owner), respawned after a deterministic backoff, and re-added to the
  ring once it answers ``health`` — same socket path ⇒ same ring label
  ⇒ exactly its old slots.  Per-shard restart counts are capped so a
  crash-looping shard degrades the fleet instead of wedging it.
* **Shared cache.**  Every shard gets ``--cache-dir`` pointing at the
  same directory; the atomic-rename write discipline in
  :mod:`repro.serve.cache` makes concurrent writers safe, so a result
  computed by one shard is a disk hit for every other — including a
  shard that just restarted with a cold in-memory cache.
* **Drain.**  SIGTERM cascades in reverse dependency order: the router
  stops admitting and finishes its in-flight requests, then each shard
  is SIGTERMed (newest first) and given ``drain_timeout_s`` to run its
  own graceful drain before SIGKILL.  Front first, backends last — no
  request admitted by the router ever finds its shard already gone.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.serve.client import ServeClient
from repro.serve.router import FleetRouter, RouterConfig

__all__ = ["FleetConfig", "FleetSupervisor", "run_fleet"]


@dataclass
class FleetConfig:
    """Knobs of one supervised fleet."""

    shards: int = 2
    #: Router listen address (shards always use UNIX sockets under
    #: ``runtime_dir``).
    host: str = "127.0.0.1"
    port: int = 0
    unix_path: str | None = None
    #: Sockets, shard logs, and (by default) the shared cache live
    #: here; ``None`` makes a temp dir that is removed on shutdown.
    runtime_dir: str | None = None
    #: Worker processes per shard; 0 (default) runs batches inline —
    #: shards are already separate processes, so the fleet has crash
    #: isolation without a second process layer.
    jobs: int = 0
    max_batch: int = 8
    linger_ms: float = 2.0
    max_queue: int = 256
    cache_size: int = 1024
    #: Shared disk-cache directory; ``None`` uses
    #: ``<runtime_dir>/cache``.  Empty string disables the disk tier.
    cache_dir: str | None = None
    cache_max_bytes: int | None = None
    #: Router knobs (see :class:`~repro.serve.router.RouterConfig`).
    vnodes: int = 64
    ring_seed: int = 0
    attempts: int = 2
    timeout_ms: float | None = None
    probe_interval_s: float = 0.5
    max_inflight: int = 1024
    idle_timeout_s: float | None = None
    #: Graceful-drain budget per tier before escalation to SIGKILL.
    drain_timeout_s: float = 10.0
    startup_timeout_s: float = 30.0
    monitor_interval_s: float = 0.2
    restart_backoff_s: float = 0.5
    max_restarts: int = 5
    handle_signals: bool = False

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ReproError(f"shards must be >= 1, got {self.shards}")
        if self.jobs < 0:
            raise ReproError(f"jobs must be >= 0, got {self.jobs}")
        if self.drain_timeout_s <= 0:
            raise ReproError(
                f"drain_timeout_s must be positive, got {self.drain_timeout_s}"
            )
        if self.startup_timeout_s <= 0:
            raise ReproError(
                f"startup_timeout_s must be positive, "
                f"got {self.startup_timeout_s}"
            )
        if self.max_restarts < 0:
            raise ReproError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.cache_max_bytes is not None and self.cache_max_bytes < 1:
            raise ReproError(
                f"cache_max_bytes must be >= 1, got {self.cache_max_bytes}"
            )


class FleetSupervisor:
    """Spawn, watch, restart, and drain one sharded serving fleet."""

    def __init__(self, config: FleetConfig):
        self.config = config
        self._own_runtime_dir = config.runtime_dir is None
        self.runtime_dir = Path(
            config.runtime_dir
            if config.runtime_dir is not None
            else tempfile.mkdtemp(prefix="repro-fleet-")
        )
        self.runtime_dir.mkdir(parents=True, exist_ok=True)
        if config.cache_dir is None:
            self.cache_dir: Path | None = self.runtime_dir / "cache"
        elif config.cache_dir == "":
            self.cache_dir = None
        else:
            self.cache_dir = Path(config.cache_dir)
        self._sockets = [
            self.runtime_dir / f"shard-{index}.sock"
            for index in range(config.shards)
        ]
        self._procs: list[asyncio.subprocess.Process | None] = (
            [None] * config.shards
        )
        self._logs: list[Any] = [None] * config.shards
        self.restarts = [0] * config.shards
        self.router = FleetRouter(RouterConfig(
            shards=tuple(f"unix:{sock}" for sock in self._sockets),
            host=config.host,
            port=config.port,
            unix_path=config.unix_path,
            vnodes=config.vnodes,
            ring_seed=config.ring_seed,
            attempts=config.attempts,
            timeout_ms=config.timeout_ms,
            probe_interval_s=config.probe_interval_s,
            max_inflight=config.max_inflight,
            idle_timeout_s=config.idle_timeout_s,
        ))
        self._monitor_task: asyncio.Task | None = None
        self._signal_task: asyncio.Task | None = None
        self._stopping = False

    # -- shard processes -----------------------------------------------

    def shard_pid(self, index: int) -> int | None:
        proc = self._procs[index]
        return proc.pid if proc is not None else None

    def _shard_label(self, index: int) -> str:
        return f"unix:{self._sockets[index]}"

    def _shard_argv(self, index: int) -> list[str]:
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--unix", str(self._sockets[index]),
            "--jobs", str(self.config.jobs),
            "--max-batch", str(self.config.max_batch),
            "--linger-ms", str(self.config.linger_ms),
            "--max-queue", str(self.config.max_queue),
            "--cache-size", str(self.config.cache_size),
        ]
        if self.cache_dir is not None:
            argv += ["--cache-dir", str(self.cache_dir)]
            if self.config.cache_max_bytes is not None:
                argv += ["--cache-max-bytes", str(self.config.cache_max_bytes)]
        return argv

    async def _spawn_shard(self, index: int) -> None:
        sock = self._sockets[index]
        sock.unlink(missing_ok=True)
        if self._logs[index] is None:
            log_path = self.runtime_dir / f"shard-{index}.log"
            self._logs[index] = log_path.open("ab")
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        self._procs[index] = await asyncio.create_subprocess_exec(
            *self._shard_argv(index),
            stdout=self._logs[index],
            stderr=asyncio.subprocess.STDOUT,
            env=env,
        )
        self.router.set_shard_meta(
            self._shard_label(index),
            pid=self._procs[index].pid,
            restarts=self.restarts[index],
        )

    async def _wait_shard_healthy(self, index: int, timeout_s: float) -> bool:
        """Poll the shard's socket until ``health`` answers ok."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        sock = str(self._sockets[index])
        while loop.time() < deadline:
            proc = self._procs[index]
            if proc is None or proc.returncode is not None:
                return False
            client = ServeClient(unix_path=sock)
            try:
                await client.connect()
                response = await asyncio.wait_for(
                    client.request({"op": "health"}), 2.0
                )
                if response.get("ok"):
                    return True
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass
            finally:
                await client.close()
            await asyncio.sleep(0.05)
        return False

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Spawn every shard, wait for health, start the router."""
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        for index in range(self.config.shards):
            await self._spawn_shard(index)
        for index in range(self.config.shards):
            healthy = await self._wait_shard_healthy(
                index, self.config.startup_timeout_s
            )
            if not healthy:
                await self._shutdown_shards()
                raise ReproError(
                    f"shard {index} did not become healthy within "
                    f"{self.config.startup_timeout_s:g}s "
                    f"(log: {self.runtime_dir / f'shard-{index}.log'})"
                )
        await self.router.start()
        self._monitor_task = asyncio.get_running_loop().create_task(
            self._monitor_loop()
        )
        if self.config.handle_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, self._on_signal)

    @property
    def address(self) -> str:
        return self.router.address

    def _on_signal(self) -> None:
        # Retain the task handle (the loop's reference is weak) and
        # make repeat signals during an in-flight drain a no-op.
        if not self._stopping and self._signal_task is None:
            self._signal_task = asyncio.get_running_loop().create_task(
                self._signal_stop()
            )

    async def _signal_stop(self) -> None:
        self.router.admission.begin_drain()
        try:
            await asyncio.wait_for(
                self.router.admission.wait_drained(),
                self.config.drain_timeout_s,
            )
        except asyncio.TimeoutError:
            pass
        self.router.stop()

    async def wait_stopped(self) -> None:
        await self.router.wait_stopped()

    async def _monitor_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.monitor_interval_s)
            for index in range(self.config.shards):
                proc = self._procs[index]
                if proc is None or proc.returncode is None:
                    continue
                label = self._shard_label(index)
                self.router.mark_down(label)
                if self.restarts[index] >= self.config.max_restarts:
                    continue  # crash loop: leave it down, fleet degrades
                self.restarts[index] += 1
                await asyncio.sleep(
                    self.config.restart_backoff_s * self.restarts[index]
                )
                await self._spawn_shard(index)
                if await self._wait_shard_healthy(
                    index, self.config.startup_timeout_s
                ):
                    self.router.mark_up(label)

    async def _shutdown_shards(self) -> None:
        """SIGTERM each live shard in reverse order; SIGKILL laggards."""
        for index in reversed(range(self.config.shards)):
            proc = self._procs[index]
            if proc is None or proc.returncode is not None:
                continue
            try:
                proc.terminate()
            except ProcessLookupError:
                continue
            try:
                await asyncio.wait_for(
                    proc.wait(), self.config.drain_timeout_s
                )
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()

    async def close(self) -> None:
        """Cascade drain: router first, then shards in reverse order."""
        self._stopping = True
        if self._signal_task is not None:
            self._signal_task.cancel()
            try:
                await self._signal_task
            except asyncio.CancelledError:
                pass
            self._signal_task = None
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
            self._monitor_task = None
        if self.config.handle_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.remove_signal_handler(signum)
                except (NotImplementedError, RuntimeError):
                    pass
        self.router.admission.begin_drain()
        try:
            await asyncio.wait_for(
                self.router.admission.wait_drained(),
                self.config.drain_timeout_s,
            )
        except asyncio.TimeoutError:
            pass
        await self.router.close()
        await self._shutdown_shards()
        for log in self._logs:
            if log is not None:
                log.close()
        self._logs = [None] * self.config.shards
        if self._own_runtime_dir:
            shutil.rmtree(self.runtime_dir, ignore_errors=True)

    def summary(self) -> dict[str, Any]:
        return {
            "shards": self.config.shards,
            "restarts": list(self.restarts),
            "served": self.router.admission.admitted_total,
            "shed": self.router.admission.shed_total,
            "rerouted": self.router.rerouted,
            "healed": self.router.healed,
        }


async def run_fleet(config: FleetConfig) -> FleetSupervisor:
    """CLI entry: start the fleet, run until drained, tear down."""
    supervisor = FleetSupervisor(config)
    await supervisor.start()
    try:
        await supervisor.wait_stopped()
    finally:
        await supervisor.close()
    return supervisor
