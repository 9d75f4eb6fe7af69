"""The distributed campaign plane: serve backends pull campaign cells.

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
* **Pull, per backend.**  Each backend runs ``window`` worker
  coroutines over one shared queue of cells.  A worker takes the next
  cell only while its backend's client ``status`` is ``ok``, runs it
  under the campaign ``timeout``, and takes the next when it is
  settled.  Workers start slot-major (slot 0 of every backend in
  config order, then slot 1, ...), so on a healthy fleet the first
  cells alternate across the backends.  Every ``probe_interval_s`` each
  client sends a ``health`` probe (:meth:`ResilientClient.probe
  <repro.serve.client.ResilientClient.probe>`); a ``draining`` backend
  gets no new cells and keeps the cells it already has.
* **Backend loss.**  A backend goes ``down`` after
  :data:`~repro.serve.client.PROBE_DOWN_AFTER` failed probes or lost
  cells in a row (``unavailable`` after the resilient client's own
  retries, or ``shed``; a draining backend's refusals do not count),
  or at once when its UNIX socket refuses a connect.
  Its in-flight cells are cancelled and re-queued at the head of the
  queue, charged one attempt each — mirroring the pool executor's
  crash accounting — and a cell is only failed (kind ``"crash"``) once
  its charges exceed ``retries``.  With no backend ``ok`` for
  ``no_backend_grace_s``, the queued cells fail as stranded.

The executor never polls: it wakes on completions, probe sweeps and
the grace deadline.  Everything here talks to sockets and reads the
event-loop clock, so the module lives in the determinism-exempt
``runner`` package; the *rows* it records remain pure functions of
their cells.
"""

from __future__ import annotations

import asyncio
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

__all__ = ["RemoteExecutor", "RemoteOptions", "run_remote"]


@dataclass(frozen=True)
class RemoteOptions:
    """Tuning knobs for the remote campaign executor."""

    #: Max concurrent cells per backend (its number of workers).
    window: int = 4
    #: Seconds between ``health`` probes of every backend.
    probe_interval_s: float = 1.0
    #: Per-probe transport timeout.
    probe_timeout_s: float = 2.0
    #: Transport timeout per cell attempt (None: rely on the campaign
    #: timeout instead).
    request_timeout_s: float | None = None
    #: Transport timeout for instance registration.
    register_timeout_s: float | None = 30.0
    #: With no backend ``ok``, how long to wait for a probe revival
    #: before failing the queued cells.
    no_backend_grace_s: float = 10.0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ReproError(f"window must be >= 1, got {self.window}")


@dataclass
class _Backend:
    """One serve endpoint; its client holds the endpoint's health."""

    label: str
    client: ResilientClient
    inflight: set[asyncio.Task[Any]] = field(default_factory=set)
    completed: int = 0
    losses: int = 0
    #: Whether the executor has already counted the client's ``down``.
    dead: bool = False


def _error_text(body: dict[str, Any]) -> str:
    error = body.get("error") or {}
    code = error.get("code", "unknown")
    message = error.get("message", "no detail")
    return f"{code}: {message}"


class RemoteExecutor:
    """Worker and queue state; one instance drives one campaign."""

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
            )
            for spec in backends
        ]
        labels = {backend.label for backend in self._backends}
        if len(labels) != len(self._backends):
            raise ReproError(f"duplicate backends in {backends!r}")
        self._queue: deque[int] = deque(pending)
        self._total = len(pending)
        #: Settled cells: each is recorded through ``finish`` once.
        self._done: set[int] = set()
        self._charges: dict[int, int] = {}
        #: Set, then replaced, by :meth:`_wake`.
        self._changed = asyncio.Event()
        #: Ends the probe loop even if its cancellation is swallowed
        #: (``asyncio.wait_for`` in Python 3.11 drops a cancel that
        #: lands as its awaited response arrives).
        self._closing = False
        self._dispatched = 0
        self._requeued = 0
        self._cache_hits = 0
        self._deaths = 0

    # -- lifecycle -----------------------------------------------------

    async def run(self) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        probe = loop.create_task(self._probe_loop())
        # Slot-major, so the first cells alternate across the backends.
        tasks = [
            loop.create_task(self._worker(backend))
            for _ in range(self._options.window)
            for backend in self._backends
        ]
        tasks.append(loop.create_task(self._watch(loop)))
        try:
            await asyncio.gather(*tasks)
        finally:
            self._closing = True
            tasks.append(probe)
            for backend in self._backends:
                tasks.extend(backend.inflight)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            for backend in self._backends:
                await backend.client.close()
        return self.stats()

    def stats(self) -> dict[str, Any]:
        return {
            "executor": "remote",
            "dispatched": self._dispatched,
            "completed": sum(backend.completed for backend in self._backends),
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

    def _wake(self) -> None:
        """Let every waiting worker and the watcher re-check the state."""
        self._changed.set()
        self._changed = asyncio.Event()

    # -- workers -------------------------------------------------------

    async def _worker(self, backend: _Backend) -> None:
        """One window slot of ``backend``: pull a cell whenever the
        backend is ``ok``; return once every cell is settled."""
        while len(self._done) < self._total:
            if self._queue and backend.client.status == "ok":
                await self._run_cell(backend, self._queue.popleft())
            else:
                await self._changed.wait()

    async def _run_cell(self, backend: _Backend, index: int) -> None:
        """Run cell ``index`` on ``backend`` under the campaign timeout,
        then settle it, or re-queue it if the backend lost it."""
        task = asyncio.get_running_loop().create_task(
            self._attempt(backend, index)
        )
        backend.inflight.add(task)
        self._dispatched += 1
        try:
            finished, _ = await asyncio.wait({task}, timeout=self._timeout)
        finally:
            backend.inflight.discard(task)
            if not task.done():
                task.cancel()
                await asyncio.wait({task})
        if not finished:
            self._settle(
                index,
                CellTimeout(
                    f"cell {self._resolved[index].label!r} exceeded "
                    f"its {self._timeout}s timeout"
                ),
                kind="timeout",
            )
        elif task.cancelled():
            self._note_loss(
                backend, index, "attempt cancelled (backend declared dead)"
            )
        else:
            # An exception here is an executor bug, not a backend failure.
            status, detail = task.result()
            if status == "row":
                row, cached = detail
                backend.completed += 1
                self._cache_hits += cached
                self._settle(index, None, row)
            elif status == "error":
                self._settle(
                    index,
                    detail if isinstance(detail, ReproError) else ReproError(
                        f"cell {self._resolved[index].label!r} failed on "
                        f"backend {backend.label}: {detail}"
                    ),
                )
            else:
                self._note_loss(backend, index, str(detail))
        self._check_deaths()
        self._wake()

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
        justifies re-queueing.
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

    def _settle(
        self,
        index: int,
        error: BaseException | None,
        row: dict[str, Any] | None = None,
        *,
        kind: str = "error",
    ) -> None:
        self._done.add(index)
        self._finish(index, error, row, kind=kind)

    def _note_loss(self, backend: _Backend, index: int, detail: str) -> None:
        backend.losses += 1
        if backend.client.status == "ok":
            # A draining backend refuses new cells but keeps the ones it
            # admitted; only its failed probes can take it down.
            backend.client.note_failure()
        charged = self._charges.get(index, 0) + 1
        self._charges[index] = charged
        if charged <= self._retries:
            self._requeued += 1
            self._queue.appendleft(index)
            return
        self._settle(
            index,
            ReproError(
                f"cell {self._resolved[index].label!r} lost on "
                f"backend {backend.label} ({detail}) after "
                f"{charged} attempts"
            ),
            kind="crash",
        )

    def _check_deaths(self) -> None:
        """Count each backend that went down once and cancel its
        in-flight cells (a client can go down mid-request, on a refused
        connect)."""
        for backend in self._backends:
            down = backend.client.status == "down"
            if down and not backend.dead:
                self._deaths += 1
                for task in list(backend.inflight):
                    task.cancel()
            backend.dead = down

    async def _watch(self, loop: asyncio.AbstractEventLoop) -> None:
        """Return once every cell is settled; fail the queued cells once
        no backend has been ``ok`` for ``no_backend_grace_s``."""
        grace = self._options.no_backend_grace_s
        since: float | None = None
        while len(self._done) < self._total:
            timer = None
            if self._queue and all(
                backend.client.status != "ok" for backend in self._backends
            ):
                since = loop.time() if since is None else since
                left = since + grace - loop.time()
                if left <= 0:
                    self._strand()
                    continue
                timer = loop.call_later(left, self._wake)
            else:
                since = None
            try:
                await self._changed.wait()
            finally:
                if timer is not None:
                    timer.cancel()

    def _strand(self) -> None:
        labels = ", ".join(backend.label for backend in self._backends)
        while self._queue:
            index = self._queue.popleft()
            self._settle(
                index,
                ReproError(
                    f"cell {self._resolved[index].label!r} stranded: no "
                    f"live backend among {labels} for "
                    f"{self._options.no_backend_grace_s:g}s"
                ),
                kind="crash",
            )
        self._wake()

    # -- health probing ------------------------------------------------

    async def _probe_loop(self) -> None:
        """Probe every backend at once: a sweep costs one probe timeout
        however many backends hang."""
        while not self._closing:
            await asyncio.gather(*(
                backend.client.probe(self._options.probe_timeout_s)
                for backend in self._backends
            ))
            self._check_deaths()
            self._wake()
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
