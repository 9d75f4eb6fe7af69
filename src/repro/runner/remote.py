"""The distributed campaign plane: dispatch cells to serve backends.

:func:`run_remote` is the ``executor="remote"`` arm of
:func:`repro.runner.campaign.run_campaign`.  It sends each
:class:`~repro.runner.campaign.CampaignCell` to a set of serve
backends as a ``color`` request (``include_colors: false``, with the
cell's ``telemetry`` flag) and records rows through the same ``finish``
callback the inline and pool executors use — so strict mode, retries,
the fsynced checkpoint journal, resume, and telemetry all behave
identically.  The artifact bytes are identical too: a backend runs the
same :func:`repro.coloring.run_coloring` the local executors do, and
:func:`~repro.runner.campaign.cell_row` builds the row from its answer.
A backend may answer from its result cache: two cells that differ only
in label are one coloring.

Dispatch mechanics
------------------
* **Hash-first.**  Every cell references its graph by canonical
  instance hash, so a request is a few hundred bytes regardless of
  graph size.  A backend receives a graph only when it answers
  ``unknown_instance`` (first contact, or a restart emptied its
  registry), once per backend however many cells bounced, and never if
  an earlier campaign registered it: :meth:`ResilientClient.request_hashed
  <repro.serve.client.ResilientClient.request_hashed>`, the path the
  fleet router heals its shards with.  The register payload is rendered
  from the generator's adjacency only when a backend asks for it, and
  not kept.
* **Windows and health.**  Each backend runs at most ``window``
  concurrent cells.  Backend choice prefers the emptiest window, then
  the client's latency EWMA.  Every ``probe_interval_s`` each client
  sends a ``health`` probe (:meth:`ResilientClient.probe
  <repro.serve.client.ResilientClient.probe>`); only ``ok`` backends get
  new cells, and a ``draining`` one keeps the cells it already has.
* **Straggler re-dispatch.**  Once :data:`STRAGGLER_MIN_SAMPLES` cells
  have completed, a cell running longer than :data:`STRAGGLER_FACTOR` ×
  the :data:`STRAGGLER_QUANTILE` completion latency (and at least
  :data:`STRAGGLER_MIN_S`) is hedged on a second backend; the first
  returned row wins.  Sound because cells are deterministic: both
  attempts are entitled to byte-identical rows, so recording whichever
  lands first changes nothing.
* **Backend loss.**  A backend goes ``down`` after
  :data:`~repro.serve.client.PROBE_DOWN_AFTER` failed probes or lost
  cells in a row (``unavailable`` after the resilient client's own
  retries, or ``shed``; a draining backend's refusals do not count),
  or at once when its UNIX socket refuses a connect.
  Its in-flight cells are cancelled and re-queued elsewhere, charged
  one attempt each — mirroring the pool executor's crash accounting —
  and a cell is only failed (kind ``"crash"``) once its charges exceed
  ``retries``.  The ``done`` guard ensures a late row from a half-dead
  backend can never double-record a cell.

Everything here talks to sockets and reads the event-loop clock, so the
module lives in the determinism-exempt ``runner`` package; the *rows*
it records remain pure functions of their cells.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ReproError
from repro.runner.campaign import (
    CampaignCell,
    CellTimeout,
    _build_instance,
    _check_method,
    cell_row,
)
from repro.serve.client import (
    Endpoint,
    InstanceHashMismatch,
    ResilientClient,
    RetryPolicy,
)
from repro.serve.protocol import InstanceRecord

__all__ = [
    "RemoteExecutor",
    "RemoteOptions",
    "run_remote",
]

#: Completion-latency quantile that arms straggler re-dispatch.
STRAGGLER_QUANTILE = 0.75
#: A cell is a straggler after this many times the quantile latency.
STRAGGLER_FACTOR = 3.0
#: Never hedge a cell before it has run this many seconds.
STRAGGLER_MIN_S = 1.0
#: Completions required before the quantile is trusted.
STRAGGLER_MIN_SAMPLES = 5


@dataclass(frozen=True)
class RemoteOptions:
    """Tuning knobs for the remote campaign executor."""

    #: Max concurrent cells per backend.
    window: int = 4
    #: Seconds between ``health`` probes of every backend.
    probe_interval_s: float = 1.0
    #: Per-probe transport timeout.
    probe_timeout_s: float = 2.0
    #: Transport timeout per cell attempt (None: rely on the campaign
    #: timeout and straggler hedging instead).
    request_timeout_s: float | None = None
    #: Transport timeout for instance registration.
    register_timeout_s: float | None = 30.0
    #: With every backend dead, how long to wait for a probe revival
    #: before failing the stranded cells.
    no_backend_grace_s: float = 10.0
    #: Dispatch-loop bookkeeping cadence.
    tick_s: float = 0.05

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ReproError(f"window must be >= 1, got {self.window}")


@dataclass
class _Backend:
    """One serve endpoint; its client holds the endpoint's health."""

    label: str
    client: ResilientClient
    window: int
    inflight: set["asyncio.Task[tuple[str, Any]]"] = field(
        default_factory=set
    )
    completed: int = 0
    losses: int = 0
    #: Whether the executor has already counted the client's ``down``.
    dead: bool = False

    def rank(self) -> tuple[int, float, str]:
        """Lower is better: window fill, then EWMA."""
        return (
            len(self.inflight),
            self.client.latency_ewma_ms or 0.0,
            self.label,
        )


@dataclass
class _Attempt:
    """Bookkeeping for one dispatched (backend, cell) attempt."""

    index: int
    backend: _Backend
    started: float
    hedge: bool


def _error_text(body: dict[str, Any]) -> str:
    error = body.get("error") or {}
    code = error.get("code", "unknown")
    message = error.get("message", "no detail")
    return f"{code}: {message}"


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class RemoteExecutor:
    """Dispatch loop state; one instance drives one campaign."""

    def __init__(
        self,
        resolved: list[CampaignCell],
        pending: list[int],
        finish: Callable[..., None],
        *,
        backends: list[str],
        timeout: float | None,
        retries: int,
        base_seed: int,
        options: RemoteOptions,
    ) -> None:
        if not backends:
            raise ReproError("the remote executor needs at least one backend")
        self._resolved = resolved
        self._finish = finish
        self._timeout = timeout
        self._retries = retries
        self._options = options
        self._backends = [
            _Backend(
                label=Endpoint.parse(spec).label,
                client=ResilientClient(
                    Endpoint.parse(spec),
                    retry=RetryPolicy(seed=base_seed),
                    request_timeout_s=options.request_timeout_s,
                ),
                window=options.window,
            )
            for spec in backends
        ]
        if len({backend.label for backend in self._backends}) != len(
            self._backends
        ):
            raise ReproError(f"duplicate backends in {backends!r}")
        self._queue: deque[int] = deque(pending)
        self._done: set[int] = set()
        self._attempts: dict[int, int] = {}
        self._meta: dict["asyncio.Task[tuple[str, Any]]", _Attempt] = {}
        self._active: dict[int, set["asyncio.Task[tuple[str, Any]]"]] = {}
        self._latencies: list[float] = []
        self._no_backend_since: float | None = None
        #: Ends the probe loop even if its cancellation is swallowed
        #: (``asyncio.wait_for`` in Python 3.11 drops a cancel that
        #: lands as its awaited response arrives).
        self._closing = False
        #: Rebound to the event loop's clock in :meth:`run`.
        self._now: Callable[[], float] = time.monotonic
        self._dispatched = 0
        self._redispatched = 0
        self._requeued = 0
        self._cache_hits = 0
        self._deaths = 0

    # -- lifecycle -----------------------------------------------------

    async def run(self) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        self._now = loop.time
        probe = loop.create_task(self._probe_loop())
        try:
            await self._drive(loop)
        finally:
            self._closing = True
            probe.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await probe
            for task in list(self._meta):
                task.cancel()
            if self._meta:
                await asyncio.gather(
                    *self._meta, return_exceptions=True
                )
            for backend in self._backends:
                await backend.client.close()
        return self.stats()

    def stats(self) -> dict[str, Any]:
        return {
            "executor": "remote",
            "dispatched": self._dispatched,
            "completed": len(self._latencies),
            "redispatched": self._redispatched,
            "requeued": self._requeued,
            "cache_hits": self._cache_hits,
            "backend_deaths": self._deaths,
            "backends": {
                backend.label: {
                    "completed": backend.completed,
                    "losses": backend.losses,
                    "status": backend.client.status,
                }
                for backend in self._backends
            },
        }

    # -- the dispatch loop ---------------------------------------------

    async def _drive(self, loop: asyncio.AbstractEventLoop) -> None:
        while self._queue or self._meta:
            self._check_deaths()
            if self._accepting():
                self._no_backend_since = None
            self._expire_timeouts()
            self._hedge_stragglers()
            self._fill(loop)
            if not self._meta:
                if not self._queue:
                    return
                self._check_stranded()
                await asyncio.sleep(self._options.tick_s)
                continue
            finished, _ = await asyncio.wait(
                set(self._meta),
                timeout=self._options.tick_s,
                return_when=asyncio.FIRST_COMPLETED,
            )
            for task in finished:
                self._settle(task)

    def _fill(self, loop: asyncio.AbstractEventLoop) -> None:
        while self._queue:
            backend = self._pick_backend()
            if backend is None:
                return
            index = self._queue.popleft()
            if index in self._done:
                continue
            self._launch(loop, backend, index, hedge=False)

    def _pick_backend(
        self, exclude: frozenset[str] = frozenset()
    ) -> _Backend | None:
        candidates = [
            backend
            for backend in self._backends
            if backend.client.status == "ok"
            and backend.label not in exclude
            and len(backend.inflight) < backend.window
        ]
        if not candidates:
            return None
        return min(candidates, key=_Backend.rank)

    def _launch(
        self,
        loop: asyncio.AbstractEventLoop,
        backend: _Backend,
        index: int,
        *,
        hedge: bool,
    ) -> None:
        task = loop.create_task(self._attempt(backend, index))
        self._meta[task] = _Attempt(
            index=index, backend=backend, started=self._now(), hedge=hedge
        )
        backend.inflight.add(task)
        self._active.setdefault(index, set()).add(task)
        self._dispatched += 1
        if hedge:
            self._redispatched += 1

    # -- one attempt ---------------------------------------------------

    @staticmethod
    def _payload_for(cell: CampaignCell) -> dict[str, Any]:
        """The register payload of ``cell``'s graph, rendered per send.

        Its edge order rebuilds the generator's rows, so a backend
        colors the adjacency the inline executor does.
        """
        instance = _build_instance(cell)
        network = instance.network
        return InstanceRecord(
            network.adjacency, instance.delta, tuple(network.uids)
        ).payload()

    async def _attempt(
        self, backend: _Backend, index: int
    ) -> tuple[str, Any]:
        """Run one cell on one backend as a ``color`` request.

        Returns ``("row", (row, cached))``, ``("error", detail)`` for a
        deterministic failure — server-reported, or an
        :class:`InstanceHashMismatch` — that retrying cannot fix, or
        ``("lost", detail)`` for a transport/overload outcome that
        justifies re-queueing elsewhere.
        """
        cell = self._resolved[index]
        try:
            _check_method(cell)
        except ReproError as error:
            return ("error", error)
        instance = _build_instance(cell)
        instance_hash = instance.canonical_hash()
        request = {
            "op": "color",
            "instance_hash": instance_hash,
            "method": cell.method,
            "seed": cell.seed,
            "epsilon": cell.epsilon,
            "options": cell.option_dict(),
            "include_colors": False,
            "telemetry": cell.telemetry,
        }
        try:
            body = await backend.client.request_hashed(
                request, instance_hash, lambda: self._payload_for(cell),
                register_timeout_s=self._options.register_timeout_s,
            )
        except InstanceHashMismatch as error:
            return ("error", error)
        code = (body.get("error") or {}).get("code")
        if body.get("ok"):
            row = cell_row(
                cell, body["result"], instance.network.n, instance.delta
            )
            return ("row", (row, bool(body.get("cached"))))
        if code in ("unavailable", "shed", "draining", "unknown_instance"):
            return ("lost", _error_text(body))
        return ("error", _error_text(body))

    # -- settlement ----------------------------------------------------

    def _settle(self, task: "asyncio.Task[tuple[str, Any]]") -> None:
        meta = self._meta.pop(task)
        meta.backend.inflight.discard(task)
        active = self._active.get(meta.index)
        if active is not None:
            active.discard(task)
            if not active:
                del self._active[meta.index]
        if task.cancelled():
            status, detail = "lost", "attempt cancelled (backend declared dead)"
        else:
            error = task.exception()
            if error is not None:
                raise error  # an executor bug, not a backend failure
            status, detail = task.result()
        if meta.index in self._done:
            return  # first result already won, or the cell timed out
        if status == "row":
            self._done.add(meta.index)
            self._cancel_attempts(meta.index)
            self._latencies.append(self._now() - meta.started)
            meta.backend.completed += 1
            row, cached = detail
            self._cache_hits += cached
            self._finish(meta.index, None, row)
        elif status == "error":
            self._done.add(meta.index)
            self._cancel_attempts(meta.index)
            self._finish(
                meta.index,
                detail if isinstance(detail, ReproError) else ReproError(
                    f"cell {self._resolved[meta.index].label!r} failed on "
                    f"backend {meta.backend.label}: {detail}"
                ),
                None,
            )
        else:
            self._note_loss(meta, str(detail))

    def _cancel_attempts(self, index: int) -> None:
        for task in list(self._active.get(index, ())):
            task.cancel()

    def _note_loss(self, meta: _Attempt, detail: str) -> None:
        meta.backend.losses += 1
        if meta.backend.client.status == "ok":
            # A draining backend refuses new cells but keeps the ones it
            # admitted; only its failed probes can take it down.
            meta.backend.client.note_failure()
        self._check_deaths()
        if self._active.get(meta.index):
            return  # a hedge mate is still running; it owns the cell
        charged = self._attempts.get(meta.index, 0) + 1
        self._attempts[meta.index] = charged
        if charged <= self._retries:
            self._requeued += 1
            self._queue.appendleft(meta.index)
        else:
            self._done.add(meta.index)
            self._finish(
                meta.index,
                ReproError(
                    f"cell {self._resolved[meta.index].label!r} lost on "
                    f"backend {meta.backend.label} ({detail}) after "
                    f"{charged} attempts"
                ),
                None,
                kind="crash",
            )

    def _check_deaths(self) -> None:
        """Count each backend that went down once and re-queue its cells
        (a client can go down mid-request, on a refused connect)."""
        for backend in self._backends:
            down = backend.client.status == "down"
            if down and not backend.dead:
                self._deaths += 1
                for task in list(backend.inflight):
                    task.cancel()
            backend.dead = down

    def _accepting(self) -> bool:
        return any(backend.client.status == "ok" for backend in self._backends)

    def _check_stranded(self) -> None:
        """Fail queued cells once no backend has taken cells too long."""
        if self._accepting():
            return
        if self._no_backend_since is None:
            self._no_backend_since = self._now()
            return
        if (
            self._now() - self._no_backend_since
            <= self._options.no_backend_grace_s
        ):
            return
        labels = ", ".join(backend.label for backend in self._backends)
        while self._queue:
            index = self._queue.popleft()
            if index in self._done:
                continue
            self._done.add(index)
            self._finish(
                index,
                ReproError(
                    f"cell {self._resolved[index].label!r} stranded: no "
                    f"live backend among {labels} for "
                    f"{self._options.no_backend_grace_s:g}s"
                ),
                None,
                kind="crash",
            )

    # -- deadlines and stragglers --------------------------------------

    def _expire_timeouts(self) -> None:
        if self._timeout is None:
            return
        now = self._now()
        for index, tasks in list(self._active.items()):
            if index in self._done:
                continue
            oldest = min(self._meta[task].started for task in tasks)
            if now - oldest <= self._timeout:
                continue
            self._done.add(index)
            self._cancel_attempts(index)
            self._finish(
                index,
                CellTimeout(
                    f"cell {self._resolved[index].label!r} exceeded "
                    f"its {self._timeout}s timeout"
                ),
                None,
                kind="timeout",
            )

    def _hedge_stragglers(self) -> None:
        if len(self._latencies) < STRAGGLER_MIN_SAMPLES:
            return
        threshold = max(
            STRAGGLER_MIN_S,
            STRAGGLER_FACTOR * _quantile(self._latencies, STRAGGLER_QUANTILE),
        )
        now = self._now()
        loop = asyncio.get_running_loop()
        for index, tasks in list(self._active.items()):
            if index in self._done or len(tasks) != 1:
                continue
            (task,) = tasks
            meta = self._meta[task]
            if now - meta.started <= threshold:
                continue
            backend = self._pick_backend(
                exclude=frozenset({meta.backend.label})
            )
            if backend is None:
                continue
            self._launch(loop, backend, index, hedge=True)

    # -- health probing ------------------------------------------------

    async def _probe_loop(self) -> None:
        """Probe every backend at once: a sweep costs one probe timeout
        however many backends hang."""
        while not self._closing:
            await asyncio.gather(*(
                backend.client.probe(self._options.probe_timeout_s)
                for backend in self._backends
            ))
            await asyncio.sleep(self._options.probe_interval_s)


def run_remote(
    resolved: list[CampaignCell],
    pending: list[int],
    finish: Callable[..., None],
    *,
    backends: list[str],
    timeout: float | None = None,
    retries: int = 1,
    base_seed: int = 0,
    options: RemoteOptions | None = None,
) -> dict[str, Any]:
    """Run ``pending`` cells on ``backends``; record via ``finish``.

    The synchronous entry :func:`repro.runner.campaign.run_campaign`
    calls — it owns the event loop for the duration of the campaign.
    Returns the executor's dispatch statistics.
    """
    executor = RemoteExecutor(
        resolved, pending, finish,
        backends=backends, timeout=timeout, retries=retries,
        base_seed=base_seed, options=options or RemoteOptions(),
    )
    return asyncio.run(executor.run())
