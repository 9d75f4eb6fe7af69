"""Layered benchmark of the Delta-coloring reproduction: one command.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Workloads: ``pipeline``, ``serve_mix``, ``campaign_remote`` (see the
module of each name and ``perfbench/README.md``).  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
reports its per-layer metrics from a traced run.  ``--tiny`` shrinks
every input (the self-test uses it).

Before the result, one ``provenance`` line records the machine
fingerprint, the seed and the workload's fixed settings.  The last line
of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program is run from the checkout's ``src``; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
import threading
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    BenchmarkError,
    Context,
    OperationTimeout,
    ProcessTree,
    Result,
    fingerprint,
    load_declared_metrics,
    require_program,
)

WORKLOADS = ("pipeline", "serve_mix", "campaign_remote")
#: A second seed, never used while tuning, to re-check later claims on.
HOLDOUT_SEED = 7919
#: Past this, the run reports what it has as failed and exits: every
#: operation has its own deadline, this bounds their sum.
RUN_DEADLINE_S = 165.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (self-test mode)")
    return parser.parse_args(argv)


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


class _Reporter:
    """Prints the result exactly once: at the end, or at the run deadline."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self._lock = threading.Lock()
        self._done = False

    def emit(self) -> None:
        with self._lock:
            if self._done:
                return
            self._done = True
            if self.ctx.result.errors:
                self.ctx.provenance["errors"] = self.ctx.result.errors
            print("provenance " + json.dumps(self.ctx.provenance, default=str))
            print(self.ctx.result.line(), flush=True)

    def expire(self) -> None:
        self.ctx.result.fail(f"run exceeded its {RUN_DEADLINE_S:g}s deadline")
        self.ctx.tree.stop_all(grace_s=2.0)
        self.emit()
        os._exit(0)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        require_program()
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    signal.signal(signal.SIGTERM, _terminate)

    from serve_mix import LATENCY_LIMIT_MS, RATE_RPS

    ctx = Context(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        tiny=args.tiny, result=Result(load_declared_metrics(bool(args.trace))),
        tree=ProcessTree(),
        provenance={
            "workload": args.workload, "seed": args.seed,
            "holdout_seed": HOLDOUT_SEED, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny,
            "machine": fingerprint(),
            "serve_mix": {"rate_rps": RATE_RPS,
                          "latency_limit_ms": LATENCY_LIMIT_MS},
        },
    )
    report = _Reporter(ctx)
    watchdog = threading.Timer(RUN_DEADLINE_S, report.expire)
    watchdog.daemon = True
    watchdog.start()
    workload = importlib.import_module(args.workload)
    try:
        workload.run(ctx)
    except (OperationTimeout, BenchmarkError) as error:
        ctx.result.fail(f"{type(error).__name__}: {error}")
    except Exception as error:  # report the run as failed, with the cause
        traceback.print_exc(file=sys.stderr)
        ctx.result.fail(f"{type(error).__name__}: {error}")
    finally:
        ctx.tree.stop_all()
    watchdog.cancel()
    report.emit()
    if threading.active_count() > 1:
        # An operation abandoned at its deadline still runs in a daemon
        # thread; do not let interpreter shutdown wait on it.
        sys.stderr.flush()
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
