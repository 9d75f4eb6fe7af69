"""Shared plumbing of the layered benchmark.

Everything a workload module needs and nothing workload-specific:

* locating the program's sources in the checkout (``src/repro``) and
  refusing to run without them;
* the machine fingerprint recorded with every output;
* deadlines: :func:`call_with_deadline` runs one operation in a daemon
  thread and gives up on it after ``seconds``, so a hung operation is
  counted as failed instead of blocking the run;
* :class:`ProcessTree`: program processes started in their own
  session and torn down as whole process groups (fleet shards
  included), with output sent to files, never to pipes;
* small statistics helpers and the result line.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Runtime files (sockets, logs, journals) live under the checkout,
#: relative to it: UNIX socket paths must stay short.
RUN_DIR = Path(".perfbench-run")


class BenchmarkError(Exception):
    """The benchmark itself could not run (missing program, bad setup)."""


class OperationTimeout(Exception):
    """An operation ran past its deadline and was abandoned."""


def require_program() -> None:
    """Put ``src`` on the import path; fail when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"program sources not found under {SRC}; run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict[str, str]:
    """Environment for program subprocesses: ``src`` on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def fingerprint() -> dict[str, Any]:
    """CPU model, core count, Python and numpy versions."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


def call_with_deadline(
    fn: Callable[..., Any], seconds: float, *args: Any, **kwargs: Any
) -> Any:
    """Run ``fn(*args, **kwargs)`` and return its result within ``seconds``.

    The call runs in a daemon thread; past the deadline it is abandoned
    (a thread cannot be killed) and :class:`OperationTimeout` is raised.
    The caller then ends the run: an abandoned operation may still hold
    the interpreter, so nothing after it is timed.
    """
    outcome: dict[str, Any] = {}

    def target() -> None:
        try:
            outcome["value"] = fn(*args, **kwargs)
        except BaseException as error:  # handed to the caller below
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        raise OperationTimeout(
            f"{getattr(fn, '__name__', fn)!s} exceeded its {seconds:g}s deadline"
        )
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def colors_digest(colors: list[int]) -> str:
    """SHA-256 of a coloring, as the serve tier computes ``colors_sha256``."""
    return hashlib.sha256(
        json.dumps(colors, separators=(",", ":")).encode()
    ).hexdigest()


def timed_collected(fn: Callable[..., Any], *args: Any, **kwargs: Any
                    ) -> tuple[Any, float]:
    """Collect garbage (untimed), then time one call of ``fn``."""
    gc.collect()
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


# ----------------------------------------------------------------------
# Program processes
# ----------------------------------------------------------------------


class ProcessTree:
    """Program processes, each the leader of its own process group.

    ``stop`` signals whole groups, so children a process started (the
    shards of a fleet) go down with it even when it cannot forward the
    signal.  Output always goes to a log file: a pipe nobody drains can
    block the writer.
    """

    def __init__(self) -> None:
        self._procs: list[subprocess.Popen] = []

    def spawn(self, argv: Sequence[str], log_path: Path) -> subprocess.Popen:
        log_path.parent.mkdir(parents=True, exist_ok=True)
        with open(log_path, "ab") as log:
            proc = subprocess.Popen(
                list(argv), stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, env=program_env(), cwd=ROOT,
                start_new_session=True,
            )
        self._procs.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen, grace_s: float = 10.0) -> None:
        """SIGTERM the group, wait ``grace_s``, then SIGKILL the group."""
        if proc.poll() is None:
            _signal_group(proc.pid, signal.SIGTERM)
            try:
                proc.wait(grace_s)
            except subprocess.TimeoutExpired:
                pass
        # The leader may be gone while group members (shards) linger.
        _signal_group(proc.pid, signal.SIGKILL)
        try:
            proc.wait(5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - unkillable
            pass
        with contextlib.suppress(ValueError):  # the watchdog may race us
            self._procs.remove(proc)

    def stop_all(self, grace_s: float = 10.0) -> None:
        for proc in reversed(list(self._procs)):
            self.stop(proc, grace_s)


def _signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except (ProcessLookupError, PermissionError):
        pass


def fresh_run_dir(tag: str) -> Path:
    """An empty runtime directory (relative to the checkout root)."""
    path = RUN_DIR / f"{tag}-{os.getpid()}"
    shutil.rmtree(ROOT / path, ignore_errors=True)
    (ROOT / path).mkdir(parents=True)
    return path


def remove_run_dir(path: Path) -> None:
    shutil.rmtree(ROOT / path, ignore_errors=True)
    try:
        (ROOT / RUN_DIR).rmdir()
    except OSError:
        pass


def wait_for(predicate: Callable[[], bool], seconds: float, what: str
             ) -> None:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise OperationTimeout(f"{what} not ready within {seconds:g}s")


def peak_rss_mb() -> float:
    """Highest resident set over this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# Statistics and output
# ----------------------------------------------------------------------


def median(values: Iterable[float]) -> float:
    data = list(values)
    return float(statistics.median(data)) if data else 0.0


def percentile(values: Iterable[float], q: int) -> float:
    """Linear-interpolated percentile, ``q`` in 1..99."""
    data = list(values)
    if len(data) < 2:
        return float(data[0]) if data else 0.0
    return statistics.quantiles(data, n=100, method="inclusive")[q - 1]


class Result:
    """Outcome of one benchmark run: correctness, counts and metrics."""

    def __init__(self, units: dict[str, str]) -> None:
        self.units = units
        self.values: dict[str, float] = {name: 0.0 for name in units}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def update(self, values: dict[str, float]) -> None:
        """Record measured values; names outside this run's group are
        dropped (a traced run reports only per-layer metrics)."""
        for name, value in values.items():
            if name in self.units:
                self.values[name] = float(value)

    def fail(self, message: str, count: int = 1) -> None:
        """Record ``count`` failed operations (or a failed check)."""
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def line(self) -> str:
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": self.values[name], "unit": unit}
                for name, unit in self.units.items()
            },
        })


@dataclass
class Context:
    """Everything one workload run receives."""

    seed: int
    seconds: float
    trace: bool
    tiny: bool
    result: Result
    tree: ProcessTree
    provenance: dict[str, Any] = field(default_factory=dict)


def load_declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit from ``BENCHMARK.json`` (end_to_end or per_layer)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in group}
