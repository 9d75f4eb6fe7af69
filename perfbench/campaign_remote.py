"""``campaign_remote``: a closed loop of remote campaigns on two backends.

Each batch is one ``run_campaign(executor="remote")`` call that sends
distinct cells to two fresh ``repro serve -j 0`` backends with the
checkpoint journal on (the runner's write path).  Batches run back to
back until the run's seconds are used.  Cells mix hard and mixed
instances at Delta=32 with 68 and 136 cliques, deterministic and
randomized, epsilon 1/8; every batch holds two cells of each of those
eight classes, so batches are the same size of work.  Cells are distinct
(no cache hits), and no router is involved.

Cells come from a fixed pool whose rows the inline executor produced
once; their SHA-256 digests are committed in ``cell_digests.json``.
Every remote row must match its digest -- the repo's executor
byte-identity contract.  The workload seed picks and orders the cells.
Regenerate the digests (after a change that legitimately changes rows)
with::

    python3 perfbench/campaign_remote.py --write-digests
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BenchmarkError,
    Context,
    OperationTimeout,
    call_with_deadline,
    fresh_run_dir,
    median,
    peak_rss_mb,
    remove_run_dir,
    require_program,
    wait_for,
)
from layers import LayerTracer  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "cell_digests.json"

POOLS = {
    "full": {"delta": 32, "epsilon": 1.0 / 8.0, "per_class": 32,
             "shapes": (("hard", 136), ("mixed", 136), ("hard", 68),
                        ("mixed", 68))},
    "tiny": {"delta": 8, "epsilon": 0.25, "per_class": 4,
             "shapes": (("hard", 16), ("hard", 32))},
}
METHODS = ("deterministic", "randomized")
GRAPH_SEED = 1
EASY_FRACTION = 0.25
#: Cells of each class per batch.
PER_BATCH = 2
BACKENDS = 2

SETUP_REPEATS = 3
BOOT_DEADLINE_S = 60.0
#: A whole batch (one campaign) may take this long before its
#: unfinished cells count as failed and the run ends.
BATCH_DEADLINE_S = 90.0
#: Per-cell limits handed to the runner, and the latency limit of goodput.
CELL_TIMEOUT_S = 30.0
CELL_LIMIT_MS = 10_000.0


def pool_cells(pool: str) -> dict[tuple[str, int, str], list[Any]]:
    """Every cell of a pool, grouped by (kind, cliques, method) class."""
    from repro.runner.campaign import CampaignCell

    spec = POOLS[pool]
    classes: dict[tuple[str, int, str], list[Any]] = {}
    for kind, cliques in spec["shapes"]:
        for method in METHODS:
            classes[(kind, cliques, method)] = [
                CampaignCell(
                    label=f"{kind}{cliques}-{method[0]}{index:02d}",
                    workload=kind, num_cliques=cliques, delta=spec["delta"],
                    easy_fraction=EASY_FRACTION if kind == "mixed" else 0.0,
                    graph_seed=GRAPH_SEED, epsilon=spec["epsilon"],
                    method=method,
                    seed=None if method == "deterministic" else 1000 + index,
                )
                for index in range(spec["per_class"])
            ]
    return classes


def row_digest(row: dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(row, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def batches_for(seed: int, pool: str) -> list[list[Any]]:
    """The run's batches: each takes PER_BATCH fresh cells of every class."""
    rng = random.Random(seed)
    classes = pool_cells(pool)
    shuffled = {}
    for key, cells in classes.items():
        order = list(cells)
        rng.shuffle(order)
        shuffled[key] = order
    count = POOLS[pool]["per_class"] // PER_BATCH
    return [
        [cell for key in classes
         for cell in shuffled[key][b * PER_BATCH:(b + 1) * PER_BATCH]]
        for b in range(count)
    ]


def clear_workload_caches(graphs: bool) -> None:
    from repro.bench import workloads

    workloads.workload_acd.cache_clear()
    if graphs:
        workloads.hard_workload.cache_clear()
        workloads.mixed_workload.cache_clear()


def build_graphs(pool: str) -> None:
    """Build (and cache) every graph of the pool, as the executor would."""
    from repro.runner.campaign import _build_instance

    for cells in pool_cells(pool).values():
        _build_instance(cells[0])


class Backends:
    """``repro serve -j 0`` processes on UNIX sockets."""

    def __init__(self, ctx: Context, tag: str) -> None:
        self.ctx = ctx
        self.run_dir = fresh_run_dir(tag)
        self.sockets = [self.run_dir / f"b{i}.sock" for i in range(BACKENDS)]
        self.procs = [
            ctx.tree.spawn(
                [sys.executable, "-m", "repro", "serve", "--unix", str(sock),
                 "-j", "0"],
                self.run_dir / f"b{i}.log",
            )
            for i, sock in enumerate(self.sockets)
        ]

    @property
    def specs(self) -> list[str]:
        return [f"unix:{sock}" for sock in self.sockets]

    def wait_healthy(self) -> None:
        import socket

        def answers(sock: Path) -> bool:
            if not sock.exists():
                return False
            with socket.socket(socket.AF_UNIX) as probe:
                probe.settimeout(2.0)
                try:
                    probe.connect(str(sock))
                    probe.sendall(b'{"op":"health","id":1}\n')
                    return b'"ok":true' in probe.recv(4096)
                except OSError:
                    return False

        for proc, sock in zip(self.procs, self.sockets):
            if proc.poll() is not None:
                raise BenchmarkError(f"backend {sock} exited during boot")
            wait_for(lambda s=sock: answers(s), BOOT_DEADLINE_S,
                     f"backend {sock}")

    def close(self) -> None:
        for proc in self.procs:
            self.ctx.tree.stop(proc)
        remove_run_dir(self.run_dir)


def run_batch(cells: list[Any], backends: list[str], journal: Path
              ) -> dict[str, Any]:
    """One remote campaign under :data:`BATCH_DEADLINE_S`.

    Returns the campaign result (``None`` when it ran past the deadline)
    and each completed cell's latency from the batch start.
    """
    from repro.runner import run_campaign
    from repro.runner.remote import RemoteOptions

    start = time.perf_counter()
    done_ms: list[float] = []

    def progress(done: int, total: int, label: str) -> None:
        done_ms.append((time.perf_counter() - start) * 1000.0)

    options = RemoteOptions(
        probe_interval_s=0.5, probe_timeout_s=2.0,
        request_timeout_s=CELL_TIMEOUT_S, register_timeout_s=CELL_TIMEOUT_S,
        no_backend_grace_s=5.0,
    )
    try:
        campaign = call_with_deadline(
            run_campaign, BATCH_DEADLINE_S, cells, executor="remote",
            backends=backends, checkpoint=journal, strict=False,
            timeout=CELL_TIMEOUT_S, progress=progress,
            remote_options=options,
        )
    except OperationTimeout:
        campaign = None
    return {"campaign": campaign, "done_ms": list(done_ms)}


def check_rows(cells: list[Any], rows: list[dict[str, Any]],
               digests: dict[str, str], result: Any, executor: str) -> None:
    """Every row must match the inline executor's committed digest."""
    by_label = {row.get("label"): row for row in rows}
    for cell in cells:
        row = by_label.get(cell.label)
        if row is None or row.get("status") == "error":
            result.fail(f"{executor}: cell {cell.label} failed: "
                        f"{(row or {}).get('error', 'no row')}")
        elif row_digest(row) != digests.get(cell.label):
            result.fail(f"{executor}: cell {cell.label} row differs from "
                        "the inline executor's committed digest")


def load_digests(path: Path = DIGESTS) -> dict[str, str]:
    return json.loads(path.read_text())["cells"]


def run(ctx: Context, digests_path: Path = DIGESTS) -> None:
    pool = "tiny" if ctx.tiny else "full"
    digests = load_digests(digests_path)
    result = ctx.result
    batches = batches_for(ctx.seed, pool)
    ctx.provenance["pool"] = {"name": pool, **POOLS[pool]}

    # -- set-up: boot backends, build graphs, warm up; repeated ----------
    setups: list[float] = []
    backends: Backends | None = None
    try:
        for repeat in range(SETUP_REPEATS):
            if backends is not None:
                backends.close()
            start = time.perf_counter()
            backends = Backends(ctx, f"campaign{repeat}")
            clear_workload_caches(graphs=True)
            build_graphs(pool)
            backends.wait_healthy()
            warm = [
                replace(cell, label=f"warm-{i}", seed=900_000 + i)
                for i, cell in enumerate(batches[0][-BACKENDS:])
            ]
            outcome = run_batch(warm, backends.specs,
                                backends.run_dir / "warm.jsonl")
            if outcome["campaign"] is None or outcome["campaign"].failures:
                raise BenchmarkError("warm-up campaign did not complete")
            setups.append(time.perf_counter() - start)
        assert backends is not None
        _measure(ctx, backends, batches, digests, setups)
    finally:
        if backends is not None:
            backends.close()
    result.update({"peak_rss_mb": peak_rss_mb()})


def _measure(ctx: Context, backends: Backends, batches: list[list[Any]],
             digests: dict[str, str], setups: list[float]) -> None:
    result = ctx.result
    rates: list[float] = []
    vertex_rates: list[float] = []
    goodput: list[float] = []
    stats: dict[str, float] = {}
    first: dict[str, Any] | None = None
    started = time.perf_counter()
    for index, cells in enumerate(batches):
        if index and time.perf_counter() - started >= ctx.seconds:
            break
        result.attempted += len(cells)
        outcome = run_batch(cells, backends.specs,
                            backends.run_dir / f"journal-{index}.jsonl")
        campaign = outcome["campaign"]
        if campaign is None:
            result.fail(f"batch {index} exceeded its {BATCH_DEADLINE_S:g}s "
                        "deadline", count=len(cells))
            break
        check_rows(cells, campaign.rows, digests, result, "remote")
        elapsed = campaign.elapsed_seconds
        rows = [row for row in campaign.rows if "n" in row]
        rates.append(len(rows) / elapsed)
        vertex_rates.append(sum(row["n"] for row in rows) / elapsed)
        goodput.append(
            sum(ms <= CELL_LIMIT_MS for ms in outcome["done_ms"]) / elapsed)
        for key, value in (campaign.remote_stats or {}).items():
            if isinstance(value, (int, float)):
                stats[key] = stats.get(key, 0) + value
        if first is None:
            first = {"cells": cells, "elapsed": elapsed,
                     "rounds": sum(row["rounds"] for row in rows)}
    ctx.provenance["batches"] = len(rates)
    result.update({
        "setup_s": median(setups),
        "vertices_per_s": median(vertex_rates),
        "local_rounds": first["rounds"] if first else 0,
        "goodput_rps": median(goodput),
        "cells_per_s": median(rates),
        "runner.dispatched": stats.get("dispatched", 0),
        "runner.redispatched": stats.get("redispatched", 0),
        "runner.requeued": stats.get("requeued", 0),
        "runner.backend_deaths": stats.get("backend_deaths", 0),
        "runner.useful_ratio": (
            stats.get("completed", 0) / max(stats.get("dispatched", 0), 1)),
    })
    if ctx.trace and first is not None:
        _reference(ctx, first, digests, backends.run_dir)


def _reference(ctx: Context, first: dict[str, Any], digests: dict[str, str],
               run_dir: Path) -> None:
    """Traced extras on the first batch's cells: in-process compute
    (untraced and traced) and the ``jobs=2`` pool executor."""
    from repro.runner import run_campaign
    from repro.runner.campaign import run_cell

    result = ctx.result
    cells = first["cells"]

    def compute(call: Any) -> float:
        clear_workload_caches(graphs=False)
        total = 0.0
        for cell in cells:
            start = time.perf_counter()
            row = call_with_deadline(call, CELL_TIMEOUT_S, run_cell, cell)
            total += time.perf_counter() - start
            if row_digest(row) != digests.get(cell.label):
                result.fail(f"inline: cell {cell.label} differs from its "
                            "committed digest")
        return total

    untraced = compute(lambda fn, *args: fn(*args))
    tracer = LayerTracer()
    with tracer:
        traced = compute(tracer.call)
    clear_workload_caches(graphs=False)
    pool = call_with_deadline(
        run_campaign, BATCH_DEADLINE_S, cells, executor="pool", jobs=BACKENDS,
        strict=False, checkpoint=run_dir / "pool.jsonl",
    )
    check_rows(cells, pool.rows, digests, result, "pool")
    result.update(tracer.metrics(len(cells)))
    result.update({
        "trace.overhead": traced / untraced,
        "runner.cell_compute_s": untraced,
        "runner.parallel_efficiency": (
            untraced / (first["elapsed"] * BACKENDS)),
        "runner.pool_efficiency": (
            untraced / (pool.elapsed_seconds * BACKENDS)),
    })


def write_digests(path: Path = DIGESTS) -> None:
    """Run every pool cell with the inline executor; commit the digests."""
    from repro.runner import run_campaign

    cells_out: dict[str, str] = {}
    for pool in POOLS:
        cells = [cell for group in pool_cells(pool).values() for cell in group]
        campaign = run_campaign(cells, executor="inline")
        for cell, row in zip(cells, campaign.rows):
            cells_out[cell.label] = row_digest(row)
    path.write_text(json.dumps({
        "producer": "run_campaign(executor='inline') over every pool cell",
        "digest": "sha256 of json.dumps(row, sort_keys=True, "
                  "separators=(',', ':'))",
        "cells": cells_out,
    }, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-digests"]:
        sys.exit("usage: python3 perfbench/campaign_remote.py --write-digests")
    require_program()
    write_digests()
