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
import sys
import tempfile
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.serve.client import ServeClient
from repro.serve.frontend import (
    add_signal_handlers,
    cancel_task,
    remove_signal_handlers,
)
from repro.serve.knobs import (
    check_knobs,
    knob,
    knob_argv,
    knob_error,
    reuse,
    sub_config,
)
from repro.serve.router import FleetRouter, RouterConfig
from repro.serve.server import ServeConfig

__all__ = ["FleetConfig", "FleetSupervisor"]


#: How long a (re)spawned shard may take to answer ``health``.
STARTUP_TIMEOUT_S = 30.0

_serve_knob = partial(reuse, ServeConfig)
_router_knob = partial(reuse, RouterConfig)


@dataclass
class FleetConfig:
    """Knobs of one supervised fleet.

    The shard and router knobs are the ``ServeConfig`` and
    ``RouterConfig`` declarations (flag, help, bounds) reused; the
    supervisor rebuilds both configs from them.
    """

    shards: int = knob(
        2, "--shards", ge=1, help="backend shard count (default %(default)s)"
    )
    #: Router listen address (shards always use UNIX sockets under
    #: ``runtime_dir``).
    host: str = _router_knob("host")
    port: int = _router_knob("port")
    unix_path: str | None = _router_knob("unix_path")
    runtime_dir: str | None = knob(
        None, "--runtime-dir", metavar="DIR",
        help="shard sockets/logs/cache live here (default: temp dir, "
             "removed on shutdown)",
    )
    #: Shards are processes, so inline batches keep crash isolation.
    jobs: int = _serve_knob(
        "jobs", 0,
        help="worker processes per shard (default %(default)s: inline — "
             "shards are already separate processes)",
    )
    max_batch: int = _serve_knob("max_batch")
    linger_ms: float = _serve_knob("linger_ms")
    max_queue: int = _serve_knob("max_queue")
    cache_size: int = _serve_knob("cache_size")
    cache_dir: str | None = _serve_knob(
        "cache_dir",
        help="shared disk cache for all shards (default: "
             "<runtime-dir>/cache; '' disables the disk tier)",
    )
    cache_max_bytes: int | None = _serve_knob("cache_max_bytes")
    vnodes: int = _router_knob("vnodes")
    ring_seed: int = _router_knob("ring_seed")
    attempts: int = _router_knob("attempts")
    timeout_ms: float | None = _router_knob("timeout_ms")
    probe_interval_s: float = _router_knob("probe_interval_s")
    max_inflight: int = _router_knob("max_inflight")
    idle_timeout_s: float | None = _router_knob("idle_timeout_s", flags=())
    drain_timeout_s: float = knob(
        10.0, "--drain-timeout", gt=0, metavar="SECONDS",
        help="graceful-drain budget per tier before SIGKILL "
             "(default %(default)ss)",
    )
    monitor_interval_s: float = 0.2
    restart_backoff_s: float = 0.5
    max_restarts: int = knob(
        5, "--max-restarts", ge=0,
        help="restart budget per shard before it stays down "
             "(default %(default)s)",
    )
    handle_signals: bool = False

    def __post_init__(self) -> None:
        check_knobs(self)
        if self.cache_max_bytes is not None and self.cache_dir == "":
            raise knob_error(
                self, "cache_dir", "cache_max_bytes needs the disk tier"
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
        #: What every shard runs, less its socket (``_shard_argv``).
        self.shard_config: ServeConfig = sub_config(
            config, ServeConfig,
            cache_dir=None if self.cache_dir is None else str(self.cache_dir),
        )
        self.router = FleetRouter(sub_config(
            config, RouterConfig,
            shards=tuple(self._shard_label(i) for i in range(config.shards)),
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
        shard = replace(self.shard_config, unix_path=str(self._sockets[index]))
        return [sys.executable, "-m", "repro", "serve", *knob_argv(shard)]

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
            if not await self._wait_shard_healthy(index, STARTUP_TIMEOUT_S):
                await self._shutdown_shards()
                raise ReproError(
                    f"shard {index} did not become healthy within "
                    f"{STARTUP_TIMEOUT_S:g}s "
                    f"(log: {self.runtime_dir / f'shard-{index}.log'})"
                )
        await self.router.start()
        self._monitor_task = asyncio.get_running_loop().create_task(
            self._monitor_loop()
        )
        if self.config.handle_signals:
            add_signal_handlers(self._on_signal)

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
        await self._drain_router()
        self.router.stop()

    async def _drain_router(self) -> None:
        """Stop the router admitting; wait out its in-flight requests."""
        self.router.admission.begin_drain()
        try:
            await asyncio.wait_for(
                self.router.admission.wait_drained(),
                self.config.drain_timeout_s,
            )
        except asyncio.TimeoutError:
            pass

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
                if await self._wait_shard_healthy(index, STARTUP_TIMEOUT_S):
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
        await cancel_task(self._signal_task)
        self._signal_task = None
        await cancel_task(self._monitor_task)
        self._monitor_task = None
        if self.config.handle_signals:
            remove_signal_handlers()
        await self._drain_router()
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

