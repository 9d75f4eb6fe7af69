"""Run a coloring with CPython's cyclic garbage collector paused.

A coloring allocates millions of short-lived containers (inboxes,
outbox rows, per-node state) and frees every one of them by reference
counting: no pipeline leaves reference cycles behind
(``tests/test_gc_pause.py`` asserts that ``gc.collect()`` finds nothing
after each method).  The generational passes the allocation rate
triggers therefore only re-scan live objects, and they took about a
tenth of a serve backend's CPU.  :data:`paused_collector` decorates the
three pipeline entry points and switches the collector off for the
duration of a coloring.

The pause is process-wide, so it keeps a depth count under a lock:
nested colorings and colorings overlapping in executor threads turn the
collector back on only when the last one leaves, whether it returns or
raises, and only if it was on when the first one entered.
"""

from __future__ import annotations

import gc
import os
import threading
from contextlib import ContextDecorator

__all__ = ["paused_collector"]


class _PausedCollector(ContextDecorator):
    """Re-entrant, thread-safe ``gc.disable()`` / ``gc.enable()`` pair."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._resume = False

    def __enter__(self) -> None:
        with self._lock:
            if not self._depth:
                self._resume = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info: object) -> None:
        with self._lock:
            self._depth -= 1
            if not self._depth and self._resume:
                gc.enable()

    def _after_fork_in_child(self) -> None:
        # A fork copies no thread, so no coloring is running in the child.
        self._lock = threading.Lock()
        if self._depth:
            self._depth = 0
            if self._resume:
                gc.enable()


paused_collector = _PausedCollector()
os.register_at_fork(after_in_child=paused_collector._after_fork_in_child)
