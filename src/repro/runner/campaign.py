"""Campaign cells and the fault-tolerant process-pool campaign runner.

Determinism contract
--------------------
* A cell fully determines its run: workload generation is keyed by
  ``(workload, num_cliques, delta, easy_fraction, graph_seed)`` and the
  algorithm's randomness only by ``seed``.  Two executions of the same
  cell — in the same process, in different worker processes, or on
  different machines — produce identical rows.
* Cells without an explicit ``seed`` get one from
  :func:`derive_cell_seed`, a stable hash of the campaign base seed, the
  cell's position, and its label — so adding progress reporting, changing
  ``jobs``, or reordering *other* cells never changes a cell's result.
* :func:`run_campaign` returns rows in cell order regardless of
  completion order.
* Rows contain no volatile fields (no wall-clock timings), so the same
  campaign spec produces *byte-identical* artifacts on every run — and
  a campaign killed mid-way and resumed from its checkpoint journal
  writes the same bytes as an uninterrupted run.

Fault tolerance
---------------
* **Checkpoint journal.**  ``checkpoint=path`` appends one JSONL record
  per completed cell as it finishes (flushed and fsynced, so a killed
  process loses at most the in-flight cells); ``resume=path`` replays
  journaled rows and only executes the missing cells.  A truncated
  final line — the signature of a hard kill — is tolerated and simply
  re-run.
* **Timeouts.**  ``timeout=seconds`` bounds each cell's wall clock.  A
  cell that exceeds it is recorded as a failure (kind ``"timeout"``),
  its stuck worker is killed, and the pool is rebuilt; other in-flight
  cells are resubmitted unharmed.
* **Retries.**  A worker process that dies (``BrokenProcessPool``)
  poisons every in-flight future; affected cells are retried up to
  ``retries`` times with exponential backoff while the pool is rebuilt.
  Cell *errors* (exceptions raised by the cell itself) are never
  retried — cells are deterministic, so an error would simply repeat.
* **Interrupts.**  Ctrl-C raises :class:`CampaignInterrupted` carrying
  the partial :class:`CampaignResult`; the journal is already flushed,
  so ``resume=`` continues where the interrupt hit.

Artifact compatibility
----------------------
Rows are flat JSON-serializable dicts shaped like
:func:`repro.bench.harness.result_row` (label / algorithm / n / delta /
rounds / messages / breakdown) plus ``seed`` and, for randomized runs,
the ``shattering`` statistics — the shape of every
``benchmarks/artifacts/*.json`` row.  Failed cells (``strict=False``)
keep the row list aligned with a ``{"label", "status": "error",
"error"}`` row; :func:`repro.bench.harness.load_artifact` filters these
out for downstream consumers.  :meth:`CampaignResult.save` writes
through :func:`repro.bench.harness.save_artifact`.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import ReproError
from repro.runner.pool import WorkerPool

__all__ = [
    "CampaignCell",
    "CampaignInterrupted",
    "CampaignResult",
    "CellTimeout",
    "cell_row",
    "cells_from_spec",
    "derive_cell_seed",
    "load_journal",
    "run_campaign",
    "run_cell",
]

#: Fields of a cell that may be swept by a spec ``grid``.
_GRID_FIELDS = (
    "workload",
    "num_cliques",
    "delta",
    "easy_fraction",
    "graph_seed",
    "epsilon",
    "method",
    "seed",
)

#: The pipelines a cell may name.
CELL_METHODS = ("deterministic", "randomized", "general")


class CellTimeout(ReproError):
    """A campaign cell exceeded its wall-clock timeout."""


class CampaignInterrupted(ReproError):
    """Ctrl-C hit a running campaign; ``partial`` holds completed rows.

    The checkpoint journal (when one was configured) is already flushed
    through the last completed cell, so ``run_campaign(...,
    resume=journal)`` picks up exactly where the interrupt landed.
    """

    def __init__(self, message: str, *, partial: "CampaignResult"):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class CampaignCell:
    """One independent experiment: a workload, an algorithm, a seed.

    ``options`` holds extra keyword arguments for the coloring entry
    point (e.g. ``activation_probability``) as a tuple of ``(key, value)``
    pairs so the cell stays hashable and picklable.
    """

    label: str
    workload: str = "hard"          # "hard" | "mixed"
    num_cliques: int = 34
    delta: int = 32
    easy_fraction: float = 0.0
    graph_seed: int = 1
    epsilon: float = 1.0 / 8.0
    method: str = "randomized"      # "randomized" | "deterministic" | "general"
    seed: int | None = None
    options: tuple[tuple[str, Any], ...] = ()
    #: Attach a deterministic ``repro.obs`` telemetry summary to the row.
    telemetry: bool = False

    def option_dict(self) -> dict[str, Any]:
        return dict(self.options)


def derive_cell_seed(base_seed: int, index: int, label: str) -> int:
    """Stable 32-bit seed for a cell without an explicit one.

    Uses SHA-256 over (base seed, cell position, label) so the derivation
    is reproducible across Python versions and processes (unlike
    ``hash``, which is salted per interpreter).
    """
    digest = hashlib.sha256(
        f"{base_seed}:{index}:{label}".encode()
    ).digest()
    return int.from_bytes(digest[:4], "big")


def _build_instance(cell: CampaignCell):
    from repro.bench.workloads import workload_instance

    return workload_instance(
        cell.workload, cell.num_cliques, cell.delta, cell.graph_seed,
        cell.easy_fraction,
    )


def run_cell(cell: CampaignCell) -> dict[str, Any]:
    """Execute one cell and return its artifact row.

    Module-level (not a closure) so it pickles into worker processes.
    Workload builders are ``lru_cache``-d per process, so a worker that
    receives several cells over the same graph generates, checks and
    classifies it once.  Rows deliberately carry no wall-clock fields:
    a cell's row is a pure function of the cell, which is what makes
    checkpoint/resume byte-identical (see the module docstring).
    """
    from repro.bench.workloads import (
        workload_classification,
        workload_clique_free,
    )
    from repro.coloring import run_coloring

    _check_method(cell)
    instance = _build_instance(cell)
    result = run_coloring(
        instance.network, cell.method, seed=cell.seed, epsilon=cell.epsilon,
        options=cell.option_dict(), telemetry=cell.telemetry,
        classification_for=lambda epsilon: workload_classification(
            cell.num_cliques, cell.delta, epsilon, cell.graph_seed,
            cell.easy_fraction, cell.workload,
        ),
        validated=lambda: workload_clique_free(
            cell.num_cliques, cell.delta, cell.graph_seed, cell.easy_fraction,
            cell.workload,
        ),
    )
    return cell_row(cell, result, instance.network.n, instance.delta)


def _check_method(cell: CampaignCell) -> None:
    """Refuse a cell whose method is not one of the paper's pipelines."""
    if cell.method not in CELL_METHODS:
        raise ReproError(f"unknown campaign method {cell.method!r}")


def cell_row(
    cell: CampaignCell, result: dict[str, Any], n: int, delta: int
) -> dict[str, Any]:
    """The artifact row of ``cell``, from its ``color`` result.

    Every executor builds its rows here: the inline and pool executors
    from a local :func:`repro.coloring.run_coloring`, the remote one
    from a backend's ``color`` answer (the same dict, sent as JSON).
    ``n`` and ``delta`` are the cell's graph's.
    """
    row: dict[str, Any] = {
        "label": cell.label,
        "seed": cell.seed,
        "algorithm": result["algorithm"],
        "n": n,
        "delta": delta,
        "rounds": result["rounds"],
        "messages": result["messages"],
        "breakdown": result["phase_rounds"],
    }
    for key in ("shattering", "telemetry"):
        if key in result:
            row[key] = result[key]
    return row


@dataclass
class CampaignResult:
    """Rows of a completed campaign plus execution metadata."""

    rows: list[dict[str, Any]]
    cells: list[CampaignCell]
    jobs: int
    elapsed_seconds: float
    failures: list[dict[str, str]] = field(default_factory=list)
    resumed: int = 0
    #: Dispatch statistics from the remote executor (None otherwise).
    remote_stats: dict[str, Any] | None = None

    def save(self, name: str) -> Path:
        """Write the rows as a ``benchmarks/artifacts`` JSON artifact."""
        from repro.bench.harness import save_artifact

        return save_artifact(name, self.rows)

    def write(self, path: str | Path) -> Path:
        """Write the rows to an arbitrary path (artifact-shaped JSON)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.rows, indent=1, default=str))
        return path

    def summary(self, key: str = "rounds") -> dict[str, float]:
        """min/mean/max of a numeric row field across the campaign.

        Error rows (``status == "error"``) carry no numeric fields and
        are skipped by construction.
        """
        values = [row[key] for row in self.rows if isinstance(row.get(key), (int, float))]
        if not values:
            return {}
        return {
            "min": min(values),
            "mean": sum(values) / len(values),
            "max": max(values),
        }


def load_journal(path: str | Path) -> dict[int, dict[str, Any]]:
    """Read a checkpoint journal; index -> record.

    Tolerates trailing unparseable lines (the footprint of a process
    killed mid-append is one truncated final line) and blank lines; the
    corresponding cells simply re-run.  A bad line *followed by valid
    records* is not a truncation — it is mid-file corruption, and
    silently skipping it would resume from a journal whose surviving
    records no longer mean what their indices claim.  That raises
    :class:`ReproError` instead.
    """
    path = Path(path)
    records: dict[int, dict[str, Any]] = {}
    if not path.exists():
        return records
    bad: tuple[int, str] | None = None
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        reason = None
        record: Any = None
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            reason = "not valid JSON"
        if reason is None and (
            not isinstance(record, dict)
            or "index" not in record
            or "row" not in record
        ):
            reason = "not a journal record (expected 'index' and 'row')"
        if reason is not None:
            if bad is None:
                bad = (number, reason)
            continue
        if bad is not None:
            raise ReproError(
                f"checkpoint journal {path} is corrupt: line {bad[0]} is "
                f"{bad[1]} but valid records follow it; only a truncated "
                "final line (a kill mid-append) is tolerated"
            )
        records[int(record["index"])] = record
    return records


def _default_progress(done: int, total: int, label: str) -> None:
    print(f"[campaign {done}/{total}] {label}", file=sys.stderr, flush=True)


def run_campaign(
    cells: Sequence[CampaignCell],
    *,
    jobs: int = 1,
    base_seed: int = 0,
    progress: bool | Callable[[int, int, str], None] = False,
    strict: bool = True,
    timeout: float | None = None,
    retries: int = 1,
    backoff: float = 0.5,
    checkpoint: str | Path | None = None,
    resume: str | Path | None = None,
    cell_runner: Callable[[CampaignCell], dict[str, Any]] | None = None,
    telemetry: bool = False,
    executor: str | None = None,
    backends: Sequence[str] | None = None,
    remote_options: Any | None = None,
) -> CampaignResult:
    """Run every cell; fan out over a process pool when ``jobs > 1``.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) runs inline — no pickling, no
        subprocesses — which benchmark timings rely on.  A ``timeout``
        forces the pool path even at ``jobs=1``, because an in-process
        cell cannot be killed.
    base_seed:
        Used by :func:`derive_cell_seed` for cells without explicit seeds.
    progress:
        ``True`` for stderr lines, or a callable ``(done, total, label)``.
    strict:
        When True (default) a failing cell raises.  When False the error
        is recorded in ``failures`` and a ``{"label", "status": "error",
        "error"}`` row keeps the row list aligned with the cell list.
    timeout:
        Per-cell wall-clock limit in seconds.  An overrunning cell is
        recorded as a :class:`CellTimeout` failure (it is *not* retried:
        cells are deterministic, a rerun would time out again) and its
        worker is killed so the campaign keeps moving.
    retries:
        How many times a cell interrupted by a *worker crash*
        (``BrokenProcessPool``) is resubmitted before being recorded as
        failed.  The pool is rebuilt with exponential ``backoff``.  A
        crash poisons every in-flight cell, so affected cells are
        retried one at a time afterwards: a repeat crash then convicts
        a single guilty cell instead of the whole batch.  The default
        of ``1`` makes innocent bystanders survive one crash; ``0``
        fails every cell that shared the pool with the crash.
    checkpoint:
        JSONL journal path; every completed cell is appended and fsynced
        as it finishes.
    resume:
        Journal path to replay; journaled cells are skipped and their
        rows reused verbatim.  Implies ``checkpoint`` to the same file
        unless one is given explicitly.
    cell_runner:
        Override for :func:`run_cell` (must be a picklable module-level
        callable).  Exists for the chaos test-suite, which needs workers
        that crash, hang, or fail on demand.
    telemetry:
        When True, every cell runs with ``telemetry=True`` so its row
        carries a deterministic ``repro.obs`` phase/metrics summary
        (see :func:`repro.obs.telemetry_summary`); report builders use
        it for E7-style round-decomposition tables.
    executor:
        ``"inline"``, ``"pool"``, or ``"remote"``.  ``None`` (default)
        keeps the legacy inference: ``backends`` selects remote,
        otherwise ``jobs > 1`` or a ``timeout`` selects the pool.
        Whatever the executor, the same cells produce byte-identical
        rows — the dispatch plane never touches row content.
    backends:
        Serve endpoints (``host:port`` / ``unix:/path``) for the remote
        executor; see :mod:`repro.runner.remote`.
    remote_options:
        A :class:`repro.runner.remote.RemoteOptions` tuning the
        per-backend windows, health probing and timeouts.

    Raises
    ------
    CampaignInterrupted
        On Ctrl-C; carries the partial result, and the journal (if any)
        is flushed through the last completed cell.
    """
    if executor not in (None, "inline", "pool", "remote"):
        raise ReproError(f"unknown executor {executor!r}")
    if executor is None:
        executor = (
            "remote" if backends
            else "pool" if jobs > 1 or timeout is not None
            else "inline"
        )
    if executor == "remote":
        if not backends:
            raise ReproError("executor='remote' requires backends")
        if cell_runner is not None:
            raise ReproError(
                "cell_runner applies to the inline/pool executors only"
            )
    elif backends:
        raise ReproError(f"backends require executor='remote', not {executor!r}")
    elif executor == "inline" and timeout is not None:
        raise ReproError(
            "timeout requires the pool or remote executor "
            "(an in-process cell cannot be killed)"
        )

    resolved = [
        cell if cell.seed is not None or cell.method == "deterministic"
        else replace(cell, seed=derive_cell_seed(base_seed, index, cell.label))
        for index, cell in enumerate(cells)
    ]
    if telemetry:
        resolved = [
            cell if cell.telemetry else replace(cell, telemetry=True)
            for cell in resolved
        ]
    report = (
        _default_progress if progress is True
        else progress if callable(progress)
        else None
    )
    runner = cell_runner or run_cell
    total = len(resolved)

    journal_path = Path(checkpoint) if checkpoint else (
        Path(resume) if resume else None
    )
    replayed = load_journal(resume) if resume else {}
    for index, record in sorted(replayed.items()):
        if index >= total:
            raise ReproError(
                f"checkpoint journal names cell {index}, campaign has {total}"
            )
        cell = resolved[index]
        if record.get("label") != cell.label or record.get("seed") != cell.seed:
            raise ReproError(
                f"checkpoint journal does not match campaign: cell {index} "
                f"is ({cell.label!r}, seed={cell.seed}) but the journal "
                f"recorded ({record.get('label')!r}, "
                f"seed={record.get('seed')})"
            )

    started = time.perf_counter()
    rows: list[dict[str, Any] | None] = [None] * total
    failures: list[dict[str, str]] = []
    for index, record in replayed.items():
        rows[index] = record["row"]
    pending = [index for index in range(total) if rows[index] is None]
    done_count = total - len(pending)

    journal = None
    if journal_path is not None:
        journal_path.parent.mkdir(parents=True, exist_ok=True)
        # Long-lived append handle: stays open across the whole campaign
        # (closed in the finally below) so resumes see flushed records.
        journal = open(journal_path, "a")  # noqa: SIM115

    def journal_write(index: int) -> None:
        if journal is None:
            return
        record = {
            "index": index,
            "label": resolved[index].label,
            "seed": resolved[index].seed,
            "row": rows[index],
        }
        journal.write(json.dumps(record, separators=(",", ":")) + "\n")
        journal.flush()
        os.fsync(journal.fileno())

    def partial_result() -> CampaignResult:
        return CampaignResult(
            rows=[row for row in rows if row is not None],
            cells=list(resolved),
            jobs=max(1, jobs),
            elapsed_seconds=time.perf_counter() - started,
            failures=failures,
            resumed=len(replayed),
        )

    def finish(index: int, error: BaseException | None, row,
               kind: str = "error") -> None:
        nonlocal done_count
        done_count += 1
        if error is not None:
            if strict:
                raise error
            failures.append(
                {"label": resolved[index].label, "error": str(error),
                 "kind": kind}
            )
            rows[index] = {
                "label": resolved[index].label,
                "status": "error",
                "error": str(error),
            }
        else:
            rows[index] = row
            journal_write(index)
        if report:
            report(done_count, total, resolved[index].label)

    remote_stats: dict[str, Any] | None = None
    try:
        if not pending:
            pass
        elif executor == "remote":
            # Imported lazily: repro.runner.remote pulls in the serve
            # client stack, which campaigns without backends never need.
            from repro.runner.remote import run_remote

            remote_stats = run_remote(
                resolved, pending, finish,
                backends=list(backends or ()),
                timeout=timeout, retries=retries,
                base_seed=base_seed, options=remote_options,
            )
        elif executor == "inline":
            for index in pending:
                try:
                    row = runner(resolved[index])
                except Exception as error:
                    # Parity with the pool path, where *any* exception
                    # from the worker lands in future.exception():
                    # a KeyError from a malformed option is a recorded
                    # failure, not a campaign crash.
                    finish(index, error, None)
                else:
                    finish(index, None, row)
        else:
            _run_pool(
                resolved, pending, runner, finish,
                jobs=max(1, jobs), timeout=timeout,
                retries=retries, backoff=backoff,
            )
    except KeyboardInterrupt:
        raise CampaignInterrupted(
            f"campaign interrupted after {done_count}/{total} cells"
            + (f" (journal: {journal_path})" if journal_path else ""),
            partial=partial_result(),
        ) from None
    finally:
        if journal is not None:
            journal.close()

    return CampaignResult(
        rows=[row for row in rows if row is not None],
        cells=list(resolved),
        jobs=max(1, jobs),
        elapsed_seconds=time.perf_counter() - started,
        failures=failures,
        resumed=len(replayed),
        remote_stats=remote_stats,
    )


def _run_pool(
    resolved: list[CampaignCell],
    pending: list[int],
    runner: Callable[[CampaignCell], dict[str, Any]],
    finish: Callable[..., None],
    *,
    jobs: int,
    timeout: float | None,
    retries: int,
    backoff: float,
) -> None:
    """Pool execution with timeouts, crash retry, and pool rebuild.

    Submission is windowed at the worker count so that every submitted
    future starts executing immediately — which is what makes the
    per-cell deadline an honest wall-clock bound rather than
    queue-position noise.

    Crash isolation: a dead worker poisons *every* in-flight future
    with ``BrokenProcessPool``, so the guilty cell cannot be told apart
    from innocent bystanders.  All affected cells are charged one
    attempt and requeued as *suspects*, and while suspects remain the
    pool runs them one at a time — a repeat crash then unambiguously
    convicts a single cell instead of burning the retry budget of
    whichever cells happened to share the pool.
    """
    # Queue entries are (cell index, crash attempts so far, suspect?).
    queue: deque[tuple[int, int, bool]] = deque(
        (index, 0, False) for index in pending
    )
    inflight: dict[Future, tuple[int, float, int, bool]] = {}
    pool = WorkerPool(jobs, backoff=backoff)
    suspects_open = 0  # crash-requeued cells not yet resolved

    def resolve(index: int, suspect: bool, error, row,
                kind: str = "error") -> None:
        nonlocal suspects_open
        if suspect:
            suspects_open -= 1
        finish(index, error, row, kind=kind)

    def crash_out(
        affected: list[tuple[int, int, bool]], error: BaseException
    ) -> None:
        """Charge crash-hit cells one attempt; requeue or fail them."""
        nonlocal suspects_open
        for index, attempts, suspect in affected:
            if attempts + 1 <= retries:
                if not suspect:
                    suspects_open += 1
                queue.append((index, attempts + 1, True))
            else:
                resolve(index, suspect, error, None, kind="crash")

    try:
        while queue or inflight:
            window = 1 if suspects_open else jobs
            while queue and len(inflight) < window:
                index, attempts, suspect = queue.popleft()
                try:
                    future = pool.submit(runner, resolved[index])
                except BrokenProcessPool as error:
                    affected = [(index, attempts, suspect)] + [
                        (i, a, s) for i, _, a, s in inflight.values()
                    ]
                    inflight.clear()
                    crash_out(affected, error)
                    pool.rebuild()
                    window = 1 if suspects_open else jobs
                    continue
                deadline = (
                    time.monotonic() + timeout if timeout is not None
                    else float("inf")
                )
                inflight[future] = (index, deadline, attempts, suspect)

            if not inflight:
                continue
            wait_for = None
            if timeout is not None:
                now = time.monotonic()
                wait_for = max(
                    0.02,
                    min(d for _, d, _, _ in inflight.values()) - now,
                )
            done, _ = wait(
                set(inflight), timeout=wait_for, return_when=FIRST_COMPLETED
            )

            crashed: list[tuple[int, int, bool]] = []
            crash_error: BaseException | None = None
            for future in done:
                index, _, attempts, suspect = inflight.pop(future)
                error = future.exception()
                if isinstance(error, BrokenProcessPool):
                    crashed.append((index, attempts, suspect))
                    crash_error = error
                elif error is not None:
                    resolve(index, suspect, error, None)
                else:
                    resolve(index, suspect, None, future.result())

            if crashed:
                # A broken pool poisons every in-flight future; drain
                # them all as crash-affected and start a fresh pool.
                for index, _, attempts, suspect in inflight.values():
                    crashed.append((index, attempts, suspect))
                inflight.clear()
                crash_out(crashed, crash_error)
                pool.rebuild()
                continue

            if timeout is not None:
                now = time.monotonic()
                expired = [
                    future
                    for future, (_, deadline, _, _) in inflight.items()
                    if now >= deadline
                ]
                if expired:
                    for future in expired:
                        index, _, _, suspect = inflight.pop(future)
                        resolve(
                            index,
                            suspect,
                            CellTimeout(
                                f"cell {resolved[index].label!r} exceeded "
                                f"its {timeout}s timeout"
                            ),
                            None,
                            kind="timeout",
                        )
                    # The stuck worker must die, which kills the whole
                    # pool; innocents lose no attempts and go back in
                    # front of the queue.
                    for index, _, attempts, suspect in inflight.values():
                        queue.appendleft((index, attempts, suspect))
                    inflight.clear()
                    pool.restart()
    finally:
        pool.kill()


def cells_from_spec(spec: dict[str, Any]) -> list[CampaignCell]:
    """Build cells from a campaign spec (see DESIGN.md for the schema).

    A spec holds explicit ``cells`` and/or a ``grid`` whose list-valued
    fields are expanded as a cartesian product (in the fixed field order
    of :data:`_GRID_FIELDS`, so labels and derived seeds are stable).

    Example::

        {
          "name": "sweep",
          "cells": [{"label": "probe", "num_cliques": 34}],
          "grid": {"num_cliques": [68, 136], "seed": [0, 1, 2]}
        }
    """
    cells: list[CampaignCell] = []
    for entry in spec.get("cells", ()):
        entry = dict(entry)
        options = entry.pop("options", {})
        label = entry.pop("label", None) or _grid_label(entry)
        cells.append(
            CampaignCell(
                label=label, options=tuple(sorted(options.items())), **entry
            )
        )
    grid = spec.get("grid")
    if grid:
        grid = dict(grid)
        options = grid.pop("options", {})
        unknown = set(grid) - set(_GRID_FIELDS)
        if unknown:
            raise ReproError(
                f"unknown campaign grid fields: {sorted(unknown)}"
            )
        assignments: list[dict[str, Any]] = [{}]
        for name in _GRID_FIELDS:
            if name not in grid:
                continue
            values = grid[name]
            if not isinstance(values, list):
                values = [values]
            assignments = [
                {**assignment, name: value}
                for assignment in assignments
                for value in values
            ]
        for assignment in assignments:
            cells.append(
                CampaignCell(
                    label=_grid_label(assignment),
                    options=tuple(sorted(options.items())),
                    **assignment,
                )
            )
    if not cells:
        raise ReproError("campaign spec defines no cells")
    return cells


def _grid_label(assignment: dict[str, Any]) -> str:
    parts = [
        f"{name}={assignment[name]}"
        for name in _GRID_FIELDS
        if name in assignment
    ]
    return " ".join(parts) or "cell"


def load_spec(path: str | Path) -> dict[str, Any]:
    """Read a campaign spec JSON file."""
    return json.loads(Path(path).read_text())


def cells_from_file(path: str | Path) -> list[CampaignCell]:
    return cells_from_spec(load_spec(path))
