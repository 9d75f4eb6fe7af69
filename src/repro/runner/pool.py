"""Reusable crash-tolerant worker-pool wrapper.

Both the campaign runner (:func:`repro.runner.run_campaign`) and the
coloring service (:mod:`repro.serve`) execute picklable work units on a
:class:`~concurrent.futures.ProcessPoolExecutor` and need the same
recovery moves when a worker misbehaves:

* **kill** — terminate every worker process outright (a stuck worker
  never exits on its own; ``shutdown`` alone would wait forever);
* **restart** — kill and start a fresh executor, e.g. after a timeout
  where the caller wants to keep going immediately;
* **rebuild** — restart after a *crash* (``BrokenProcessPool``), with
  exponential backoff so a machine-level problem (OOM killer, resource
  exhaustion) is not hammered in a tight loop.

A worker also exits on its own once its parent is gone: a SIGKILLed
parent (a shard killed by its fleet, a campaign killed mid-run) cannot
kill its workers, and nothing else would.

:class:`WorkerPool` owns exactly that lifecycle and nothing else —
scheduling, retries, and accounting stay with the caller, which is why
the campaign runner's chaos semantics are unchanged by the refactor.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import suppress
from typing import Any, Callable

__all__ = ["WorkerPool", "kill_executor"]

#: Cap on the exponential crash-rebuild backoff, in seconds.
_MAX_BACKOFF = 30.0

#: How often a worker checks that its parent is still alive, in seconds.
_PARENT_POLL_S = 0.5


def _exit_with_parent(parent: int) -> None:
    """Exit the worker as soon as ``parent`` is no longer its parent."""
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _init_worker() -> None:
    """Worker initializer: reset signals, then watch the parent."""
    _reset_signals()
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), daemon=True,
        name="parent-watch",
    ).start()


def _reset_signals() -> None:
    """Undo signal handling inherited over ``fork``.

    A pool forked by a process whose asyncio loop handles SIGTERM
    (``repro serve``) inherits the loop's no-op Python handler and its
    wakeup fd, so :func:`kill_executor`'s SIGTERM would not stop the
    worker.  SIGINT is ignored: a terminal's Ctrl-C reaches the whole
    process group, and the parent decides when its workers stop (a
    serve drain still needs them for in-flight batches).
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _new_executor(jobs: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker)


def kill_executor(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's workers (stuck or broken) and discard it."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        with suppress(Exception):
            process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


class WorkerPool:
    """A process pool plus its kill/restart/rebuild lifecycle.

    Parameters
    ----------
    jobs:
        Worker process count.
    backoff:
        Base of the exponential sleep applied by :meth:`rebuild` —
        the n-th crash rebuild sleeps ``backoff * 2**(n-1)`` seconds
        (capped at 30).  ``0`` disables the sleep.
    """

    def __init__(self, jobs: int, *, backoff: float = 0.5) -> None:
        self.jobs = max(1, jobs)
        self.backoff = backoff
        self.rebuilds = 0
        self._executor: ProcessPoolExecutor | None = _new_executor(self.jobs)

    @property
    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            raise RuntimeError("worker pool is shut down")
        return self._executor

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> Future:
        """Submit one work unit; raises ``BrokenProcessPool`` when the
        executor is already broken (callers handle that exactly like a
        crash surfaced through a future)."""
        return self.executor.submit(fn, *args)

    def kill(self) -> None:
        """Terminate every worker and discard the executor."""
        if self._executor is not None:
            kill_executor(self._executor)
            self._executor = None

    def restart(self) -> None:
        """Kill and immediately start a fresh executor (timeout path)."""
        self.kill()
        self._executor = _new_executor(self.jobs)

    def rebuild(self) -> None:
        """Kill, back off exponentially, and start fresh (crash path)."""
        self.kill()
        self.rebuilds += 1
        if self.backoff > 0:
            time.sleep(
                min(_MAX_BACKOFF, self.backoff * (2 ** (self.rebuilds - 1)))
            )
        self._executor = _new_executor(self.jobs)

    def shutdown(self) -> None:
        """Alias of :meth:`kill`; the terminal state of every pool user."""
        self.kill()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.kill()
