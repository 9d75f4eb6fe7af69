"""Self-test of the benchmark (not of the program).

    python3 perfbench/selftest.py

Checks, on tiny inputs:

* every workload, untraced and traced, prints a result line that names
  every metric ``BENCHMARK.json`` declares for that mode, with its unit,
  and reports the run correct;
* a corrupted committed digest makes ``campaign_remote`` report failure;
* a backend socket that accepts and never answers makes a campaign
  batch count as failed within its deadline.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import campaign_remote  # noqa: E402
from common import (  # noqa: E402
    ROOT,
    Context,
    ProcessTree,
    Result,
    fresh_run_dir,
    load_declared_metrics,
    remove_run_dir,
    require_program,
)
from run import WORKLOADS  # noqa: E402

#: Metrics each workload exists to measure: a tiny run must move them.
HOME = {
    ("pipeline", 1): ("local.engine_s", "acd.compute_s", "local.engine_share"),
    ("serve_mix", 1): ("serve.hit_p50_ms", "serve.register_ms",
                       "serve.hit_ratio"),
    ("campaign_remote", 1): ("runner.dispatched", "runner.cell_compute_s",
                             "runner.pool_efficiency"),
}


def tiny_run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if completed.returncode != 0:
        raise AssertionError(
            f"{workload} --trace {trace} exited {completed.returncode}:\n"
            f"{completed.stderr[-3000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def check(self, workload: str, trace: int) -> None:
        line = tiny_run(workload, trace)
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(line["correct"], line)
        self.assertEqual(line["failed"], 0)
        self.assertGreaterEqual(line["attempted"], 1)
        declared = load_declared_metrics(bool(trace))
        self.assertEqual(set(line["metrics"]), set(declared))
        for name, unit in declared.items():
            self.assertEqual(line["metrics"][name]["unit"], unit, name)
            self.assertIsInstance(line["metrics"][name]["value"], float)
        home = declared if not trace else HOME[(workload, trace)]
        for name in home:
            self.assertNotEqual(line["metrics"][name]["value"], 0.0,
                                f"{workload}: {name} was not measured")


for _workload in WORKLOADS:
    for _trace in (0, 1):
        setattr(
            TinyRuns, f"test_{_workload}_trace{_trace}",
            lambda self, w=_workload, t=_trace: self.check(w, t),
        )


def tiny_context() -> Context:
    return Context(seed=1, seconds=1.0, trace=False, tiny=True,
                   result=Result(load_declared_metrics(False)),
                   tree=ProcessTree())


class CampaignChecks(unittest.TestCase):
    def setUp(self) -> None:
        os.chdir(ROOT)
        self.run_dir = fresh_run_dir("selftest")

    def tearDown(self) -> None:
        remove_run_dir(self.run_dir)

    def test_corrupted_digest_is_reported_as_failure(self) -> None:
        spec = json.loads(campaign_remote.DIGESTS.read_text())
        spec["cells"] = {label: digest[::-1]
                         for label, digest in spec["cells"].items()}
        corrupt = ROOT / self.run_dir / "digests.json"
        corrupt.write_text(json.dumps(spec))
        ctx = tiny_context()
        try:
            campaign_remote.run(ctx, digests_path=corrupt)
        finally:
            ctx.tree.stop_all()
        self.assertGreaterEqual(ctx.result.failed, 1)
        self.assertTrue(any("committed digest" in error
                            for error in ctx.result.errors))

    def test_silent_backend_fails_within_deadline(self) -> None:
        path = self.run_dir / "silent.sock"
        listener = socket.socket(socket.AF_UNIX)
        listener.bind(str(path))
        listener.listen()
        accepted: list[socket.socket] = []

        def accept_forever() -> None:
            while True:
                try:
                    accepted.append(listener.accept()[0])
                except OSError:
                    return

        threading.Thread(target=accept_forever, daemon=True).start()

        class Silent:
            specs = [f"unix:{path}"]
            run_dir = self.run_dir

        deadline = 3.0
        ctx = tiny_context()
        batches = campaign_remote.batches_for(ctx.seed, "tiny")[:1]
        saved = campaign_remote.BATCH_DEADLINE_S
        campaign_remote.BATCH_DEADLINE_S = deadline
        start = time.perf_counter()
        try:
            campaign_remote._measure(ctx, Silent(), batches, {}, [0.0])
        finally:
            campaign_remote.BATCH_DEADLINE_S = saved
            listener.close()
            for conn in accepted:
                conn.close()
        elapsed = time.perf_counter() - start
        self.assertLess(elapsed, deadline + 2.0)
        self.assertTrue(accepted, "the executor never connected")
        self.assertEqual(ctx.result.attempted, len(batches[0]))
        self.assertEqual(ctx.result.failed, len(batches[0]))


if __name__ == "__main__":
    require_program()
    program = unittest.main(exit=False, verbosity=2)
    sys.stdout.flush()
    # A batch abandoned at its deadline leaves a daemon thread behind.
    os._exit(0 if program.result.wasSuccessful() else 1)
