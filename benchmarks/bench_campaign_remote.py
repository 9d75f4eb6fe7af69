"""ED — Distributed campaign plane: cells/s vs backend count.

The remote executor's contract is *identity first*: whatever the
backend count, ``run_campaign(executor="remote")`` must produce rows
byte-identical to the inline executor, because a backend answers each
cell's ``color`` request with the same ``repro.coloring.run_coloring``
call, and one function builds every row.  This benchmark asserts
that identity at every tier and records the throughput curve honestly.

What the curve can show on THIS box must be stated up front: the
reference machine exposes a single CPU, so N shard processes cannot
parallelize the coloring compute itself — the cells/s curve is
expected to be roughly flat across backend counts (the dispatch plane
adds wire framing and scheduling on top of the same core's compute).
What the measurement *does* establish:

* the per-cell overhead of the distributed plane vs the inline
  executor (wire framing, hash-first dispatch, dispatch bookkeeping) —
  the honest price of location transparency;
* that the overhead does not grow with backend count (windows and
  probes are O(backends), not O(cells × backends));
* byte-identity at 1, 2, and 4 backends against the inline reference —
  asserted, not sampled.

On a multi-core box the same harness exposes real scaling: each shard
is a separate ``repro serve`` process with its own worker.

Method: 24 E2 hard-workload cells (16 cliques, Δ=8, n=128, mixed
randomized/deterministic, distinct seeds).  Each tier boots fresh
``repro serve`` shards (jobs=1) on UNIX sockets — cold caches, so no
tier inherits results from a previous tier — then runs a small
warm-up campaign (distinct seeds, so the timed cells stay cache-cold)
to pay each shard's one-time costs: worker-process spawn and the
per-shard ACD.  Without the warm-up those costs duplicate per shard
and swamp a 24-cell campaign on one core.  Throughput uses the
campaign's own ``elapsed_seconds`` (no extra clocks).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.bench import print_table, save_artifact  # noqa: E402
from repro.runner import CampaignCell, run_campaign  # noqa: E402
from repro.runner.remote import RemoteOptions  # noqa: E402

CLIQUES, DELTA, GRAPH_SEED = 16, 8, 3
EPSILON = 0.25
METHODS = ("randomized", "deterministic")
CELL_COUNT = 24
BACKEND_COUNTS = (1, 2, 4)

_ARTIFACT: dict = {}


def cells(tag: str = "ed", seed_base: int = 0, count: int = CELL_COUNT
          ) -> list[CampaignCell]:
    return [
        CampaignCell(
            label=f"{tag}-{index}", workload="hard", num_cliques=CLIQUES,
            delta=DELTA, graph_seed=GRAPH_SEED, epsilon=EPSILON,
            method=METHODS[index % 2], seed=seed_base + index,
        )
        for index in range(count)
    ]


def row_bytes(result) -> bytes:
    return json.dumps(result.rows, sort_keys=True).encode()


def _start_shard(sock: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--unix", sock,
         "-j", "1", "--idle-timeout", "300"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    for _ in range(2400):  # 2400 x 50ms = a 120s startup budget
        if proc.poll() is not None:
            raise RuntimeError(f"shard exited early:\n{proc.stdout.read()}")
        if os.path.exists(sock):
            try:
                probe = socket.socket(socket.AF_UNIX)
                probe.connect(sock)
                probe.close()
                return proc
            except OSError:
                pass
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError(f"shard did not bind {sock} within 120s")


@contextmanager
def shards(count: int):
    """Boot ``count`` fresh ``repro serve`` processes on UNIX sockets."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-dist-") as tmp:
        socks = [os.path.join(tmp, f"shard{i}.sock") for i in range(count)]
        procs = [_start_shard(sock) for sock in socks]
        try:
            yield [f"unix:{sock}" for sock in socks]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.send_signal(signal.SIGTERM)
            for proc in procs:
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()


def _tier_row(label: str, result) -> dict:
    elapsed = result.elapsed_seconds
    return {
        "tier": label,
        "elapsed_s": round(elapsed, 3),
        "cells_per_s": round(len(result.cells) / elapsed, 2),
        "requeued": (result.remote_stats or {}).get("requeued", 0),
        "redispatched": (result.remote_stats or {}).get("redispatched", 0),
    }


def test_remote_cells_per_second_vs_inline(benchmark, once):
    def sweep():
        campaign = cells()
        inline = run_campaign(campaign)
        tiers = [("inline", inline, True)]
        reference = row_bytes(inline)
        options = RemoteOptions(probe_interval_s=0.2, probe_timeout_s=1.0)
        for count in BACKEND_COUNTS:
            with shards(count) as backends:
                # Warm every shard first (worker-process spawn and the
                # per-shard ACD are one-time costs; distinct seeds keep
                # the timed cells out of the result caches) so the
                # timed pass measures steady-state dispatch overhead.
                warmup = run_campaign(
                    cells("warm", 1000, 2 * count), backends=backends,
                    remote_options=options,
                )
                assert not warmup.failures
                remote = run_campaign(
                    campaign, backends=backends, remote_options=options,
                )
            tiers.append((
                f"{count} backend{'s' if count > 1 else ''}",
                remote,
                row_bytes(remote) == reference,
            ))
        return tiers

    tiers = once(benchmark, sweep)
    rows = []
    for label, result, identical in tiers:
        # Identity asserted per tier: the distributed plane must be
        # invisible in the artifact bytes.
        assert identical, f"tier {label!r} differs from the inline rows"
        assert not result.failures, (label, result.failures)
        rows.append(_tier_row(label, result))
    _ARTIFACT["tiers"] = rows
    _ARTIFACT["identity_per_tier"] = True
    _ARTIFACT["config"] = {
        "cells": CELL_COUNT, "cliques": CLIQUES, "delta": DELTA,
        "graph_seed": GRAPH_SEED, "epsilon": EPSILON,
        "backend_counts": list(BACKEND_COUNTS),
    }
    benchmark.extra_info["cells_per_s"] = {
        row["tier"]: row["cells_per_s"] for row in rows
    }


def teardown_module(module):
    if not _ARTIFACT:
        return
    print_table(
        ["tier", "elapsed s", "cells/s", "requeued", "redispatched"],
        [
            [row["tier"], row["elapsed_s"], row["cells_per_s"],
             row["requeued"], row["redispatched"]]
            for row in _ARTIFACT["tiers"]
        ],
        title=f"ED campaign throughput vs backend count "
              f"({CELL_COUNT} E2 hard cells, byte-identity asserted "
              f"per tier)",
    )
    path = save_artifact("campaign_remote", _ARTIFACT)
    print(f"artifact: {path}")
