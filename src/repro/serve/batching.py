"""Micro-batching: coalesce concurrent requests into worker batches.

Per-request process dispatch costs about a millisecond on the reference
box — the same order as one n=128 coloring — so a naive
one-task-per-request server wastes half its budget on dispatch.  The
micro-batcher amortizes it: the first queued request opens a batch, the
batch closes when it reaches ``max_batch`` items or ``linger`` seconds
after opening, whichever comes first, and the whole batch ships to a
worker as one task.  Batch mates also share per-instance work (parse,
validation, ACD) inside the worker — see ``server.execute_batch``.

The linger-vs-size trade is the classic one: under load, batches fill
to ``max_batch`` before the linger expires and the linger costs
nothing; at low rates, a request waits at most ``linger`` for company.
``linger=0`` degenerates to "batch whatever is already queued", which
with an idle queue is one-request batches.

Dispatch concurrency is bounded by a semaphore (normally the worker
count): the batcher never opens a new batch while every worker is busy,
so batches keep filling behind a saturated pool instead of fragmenting.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Awaitable, Callable

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.serve.protocol import InstanceRecord

__all__ = ["BatcherClosed", "MicroBatcher", "PendingRequest"]


class BatcherClosed(ReproError):
    """``submit()`` after ``close()``: the batcher is draining.

    The queue sentinel has already been posted by ``close()``, so a
    late item would sit behind it forever and its future would never
    resolve.  Rejecting with a typed error lets the connection handler
    turn the race into a clean ``draining`` response instead of a hung
    request.
    """


@dataclass
class PendingRequest:
    """One admitted ``color`` request waiting in the batcher.

    Carries everything dispatch needs so nothing is re-resolved later:
    the cache ``key``, the canonical ``instance_hash``, the instance
    ``record`` (held here so registry eviction cannot race dispatch),
    the work ``spec`` handed to the worker, and the ``future`` the
    connection handler awaits.  ``deadline`` is an event-loop timestamp
    (``loop.time()`` domain) or ``None``.
    """

    key: str
    instance_hash: str
    record: InstanceRecord
    spec: dict[str, Any]
    future: asyncio.Future
    enqueued: float = 0.0
    deadline: float | None = None


@dataclass
class MicroBatcher:
    """Coalesce :class:`PendingRequest` items and dispatch batches."""

    dispatch: Callable[[list[PendingRequest]], Awaitable[None]]
    max_batch: int = 8
    linger: float = 0.002
    max_concurrent: int = 1
    batches_dispatched: int = 0
    items_dispatched: int = 0
    _queue: asyncio.Queue = field(default_factory=asyncio.Queue)
    _tasks: set = field(default_factory=set)
    _runner: asyncio.Task | None = None
    _closed: bool = False

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.linger < 0:
            raise ValueError(f"linger must be >= 0, got {self.linger}")
        self._semaphore = asyncio.Semaphore(max(1, self.max_concurrent))

    def start(self) -> None:
        if self._runner is None:
            self._runner = asyncio.get_running_loop().create_task(self._run())

    def submit(self, item: PendingRequest) -> None:
        """Enqueue one admitted request (admission already bounded it).

        Raises :class:`BatcherClosed` once ``close()`` has run — items
        enqueued behind the shutdown sentinel would strand their futures.
        """
        if self._closed:
            raise BatcherClosed("batcher is closed; server is draining")
        item.enqueued = asyncio.get_running_loop().time()
        self._queue.put_nowait(item)

    @property
    def queued(self) -> int:
        return self._queue.qsize()

    async def close(self) -> None:
        """Flush every queued item, wait for in-flight batches, stop."""
        if self._closed:
            return
        self._closed = True
        self._queue.put_nowait(None)
        if self._runner is not None:
            await self._runner
            self._runner = None
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            if first is None:
                return
            batch = [first]
            closes_at = loop.time() + self.linger
            stop = False
            while len(batch) < self.max_batch:
                remaining = closes_at - loop.time()
                if remaining <= 0:
                    try:
                        item = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                else:
                    try:
                        item = await asyncio.wait_for(
                            self._queue.get(), remaining
                        )
                    except asyncio.TimeoutError:
                        break
                if item is None:
                    stop = True
                    break
                batch.append(item)
            # Wait for a dispatch slot; batches queued meanwhile keep
            # accumulating in self._queue and will coalesce.
            await self._semaphore.acquire()
            self.batches_dispatched += 1
            self.items_dispatched += len(batch)
            task = loop.create_task(self._dispatch_one(batch))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
            if stop:
                return

    async def _dispatch_one(self, batch: list[PendingRequest]) -> None:
        try:
            await self.dispatch(batch)
        finally:
            self._semaphore.release()
