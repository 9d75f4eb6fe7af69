"""The collector: span tree, metrics registry, and engine-run capture.

One :class:`Collector` instance represents one observed execution (a
pipeline run, a campaign cell, a benchmark).  Installing it flips every
hook in the package from no-op to recording:

* :func:`repro.obs.spans.span` builds the hierarchical span tree here;
* the metric functions write into :attr:`Collector.registry`;
* :meth:`repro.local.network.Network.run` — including the fault-injected
  loop it dispatches to — reports every engine execution via
  :meth:`record_run`, attaching simulated rounds, sent messages, and
  (when ``sample_rounds`` is on) per-round activity aggregates from an
  automatically created :class:`~repro.local.trace.Tracer`.

Installation is process-global (campaign workers are separate
processes, so there is no cross-thread telemetry in this codebase) and
explicitly scoped: use :func:`observed` to guarantee the hooks return
to their zero-overhead state.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.obs import _runtime

if TYPE_CHECKING:
    from repro.local.result import RunResult
    from repro.local.trace import RoundSample, Tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecord

__all__ = ["Collector", "active_collector", "install", "observed", "uninstall"]


class Collector:
    """Receives spans, metrics, and engine-run reports while installed.

    Parameters
    ----------
    sample_rounds:
        When True (default), engine runs started without an explicit
        tracer get one, so spans carry executed-round / peak-activity
        aggregates.  Turn off to shave the last slice of overhead or to
        keep campaign telemetry strictly minimal.
    keep_samples:
        When True, raw per-round samples are stored on the span records
        (capped at ``max_samples`` per span; the overflow is counted in
        ``dropped_samples``).  Off by default: a full pipeline executes
        many thousands of rounds.
    record_events:
        When True, span enters/exits and engine runs are appended to
        :attr:`events` in order with wall-clock offsets — the raw
        material of the JSONL event export.
    """

    def __init__(
        self,
        *,
        sample_rounds: bool = True,
        keep_samples: bool = False,
        max_samples: int = 4096,
        record_events: bool = False,
    ) -> None:
        self.sample_rounds = sample_rounds
        self.keep_samples = keep_samples
        self.max_samples = max_samples
        self.record_events = record_events
        self.registry = MetricsRegistry()
        self.root = SpanRecord(label="")
        self.events: list[dict[str, Any]] = []
        self.total_runs = 0
        self.total_sim_rounds = 0
        self.total_sim_messages = 0
        self.started = time.perf_counter()
        self._threads = threading.local()

    @property
    def _stack(self) -> list[SpanRecord]:
        """This thread's open spans, innermost last.

        Per thread, so pipelines running concurrently under one
        collector (in-process servers share the installed one) nest
        their spans independently; all threads grow the same tree.
        """
        stack: list[SpanRecord] | None = getattr(self._threads, "spans", None)
        if stack is None:
            stack = self._threads.spans = [self.root]
        return stack

    # ------------------------------------------------------------------
    # Span plumbing (driven by repro.obs.spans._Span)
    # ------------------------------------------------------------------

    def _enter_span(self, label: str, scale: int) -> SpanRecord:
        parent = self._stack[-1]
        record = parent.child(label)
        if record is None:
            record = SpanRecord(label=label, scale=scale)
            parent.children.append(record)
        record.count += 1
        record.scale = scale
        self._stack.append(record)
        if self.record_events:
            self.events.append(
                {"event": "span_enter", "label": label, "t": self._now()}
            )
        return record

    def _exit_span(self, record: SpanRecord) -> None:
        top = self._stack.pop()
        if top is not record:  # pragma: no cover - defensive
            self._stack.append(top)
            raise RuntimeError(
                f"span stack corrupted: exiting {record.label!r} "
                f"but {top.label!r} is innermost"
            )
        if self.record_events:
            self.events.append(
                {
                    "event": "span_exit",
                    "label": record.label,
                    "t": self._now(),
                    "rounds": record.rounds,
                    "messages": record.messages,
                }
            )

    @property
    def current_span(self) -> SpanRecord:
        """The innermost open span (the root when none is open)."""
        return self._stack[-1]

    def _now(self) -> float:
        return round(time.perf_counter() - self.started, 9)

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------

    def new_tracer(self) -> Tracer:
        """A fresh per-run tracer (engine calls this when sampling)."""
        from repro.local.trace import Tracer

        return Tracer()

    def record_run(
        self,
        network_name: str,
        algorithm_name: str,
        result: RunResult,
        samples: Sequence[RoundSample] | None = None,
    ) -> None:
        """Attach one engine execution to the innermost open span.

        ``result`` is the run's :class:`~repro.local.result.RunResult`;
        ``samples`` the tracer samples when the collector created the
        tracer itself (a caller-supplied tracer stays untouched and is
        not double-counted here).
        """
        record = self._stack[-1]
        record.runs += 1
        record.sim_rounds += result.rounds
        record.sim_messages += result.messages
        self.total_runs += 1
        self.total_sim_rounds += result.rounds
        self.total_sim_messages += result.messages
        if samples:
            record.executed_rounds += len(samples)
            peak = max(sample.scheduled for sample in samples)
            if peak > record.peak_scheduled:
                record.peak_scheduled = peak
            if self.keep_samples:
                room = self.max_samples - len(record.samples)
                if room > 0:
                    record.samples.extend(
                        (s.round, s.scheduled, s.delivered, s.halted_total)
                        for s in samples[:room]
                    )
                record.dropped_samples += max(0, len(samples) - max(room, 0))
        dropped = getattr(result, "dropped_messages", 0)
        if dropped:
            self.registry.count("engine.dropped_messages", dropped)
        crashed = getattr(result, "crashed_nodes", ())
        if crashed:
            self.registry.count("engine.crashed_nodes", len(crashed))
        if self.record_events:
            self.events.append(
                {
                    "event": "run",
                    "t": self._now(),
                    "network": network_name,
                    "algorithm": algorithm_name,
                    "span": record.label,
                    "rounds": result.rounds,
                    "messages": result.messages,
                }
            )


def active_collector() -> Collector | None:
    """The installed collector, or None when observability is off."""
    return _runtime.ACTIVE


def install(collector: Collector | None = None) -> Collector:
    """Install (and return) a collector, replacing any previous one."""
    if collector is None:
        collector = Collector()
    _runtime.ACTIVE = collector
    return collector


def uninstall() -> None:
    """Return every hook to its zero-overhead disabled state."""
    _runtime.ACTIVE = None


@contextmanager
def observed(
    collector: Collector | None = None, **collector_kwargs: Any
) -> Iterator[Collector]:
    """Scoped installation::

        with observed(keep_samples=True) as collector:
            delta_color_deterministic(network)

    Restores the previously installed collector (usually None) on exit,
    even when the observed block raises.
    """
    if collector is None:
        collector = Collector(**collector_kwargs)
    elif collector_kwargs:
        raise TypeError(
            "pass either a prebuilt collector or constructor kwargs, not both"
        )
    previous = _runtime.ACTIVE
    _runtime.ACTIVE = collector
    try:
        yield collector
    finally:
        _runtime.ACTIVE = previous
