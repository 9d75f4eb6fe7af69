"""Executor equivalence and failure drills for the remote campaign plane.

The contract under test: ``run_campaign(executor="remote", ...)`` must
produce rows *byte-identical* to the inline and pool executors — under
clean runs, checkpoint/resume, straggler hedging, and killed backends —
because a backend answers a cell's ``color`` request with the same
:func:`repro.coloring.run_coloring` the local executors call, and
:func:`repro.runner.campaign.cell_row` builds every row.

Most tests use :class:`FakeBackend`: an in-process NDJSON listener that
answers the serve protocol (register / color / health) by
calling the real :func:`repro.serve.execute_batch`, so the wire path is
exercised without subprocess spin-up.  Two tests drive real ``repro
serve`` processes end to end: two shards, and a two-shard fleet behind
its router.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.runner import CampaignCell, load_journal, run_campaign
from repro.runner.campaign import _build_instance
from repro.runner.remote import RemoteExecutor, RemoteOptions
from repro.serve import (
    InstanceHashMismatch,
    ResultCache,
    execute_batch,
    normalize_instance_payload,
    parse_color_request,
)

#: Every test here runs under Python 3.12.1's ``Server.wait_closed``.
pytestmark = pytest.mark.usefixtures("wait_closed_3121")

#: Small-but-real cells: big enough to exercise run_cell, fast enough
#: for a test suite.
SMALL = dict(workload="hard", num_cliques=16, delta=8, epsilon=0.25)

#: Probe/tick cadence tuned for tests (the defaults pace real fleets).
FAST = dict(probe_interval_s=0.1, probe_timeout_s=0.5, tick_s=0.01)

#: Serializes telemetry-collector installation across fake-backend
#: threads (the repro.obs collector slot is process-global).
EXEC_LOCK = threading.Lock()


def small_cells(count: int = 6, **extra) -> list[CampaignCell]:
    methods = ("randomized", "deterministic")
    return [
        CampaignCell(
            label=f"c{i}", seed=i, method=methods[i % 2], **SMALL, **extra
        )
        for i in range(count)
    ]


def row_bytes(result) -> bytes:
    return json.dumps(result.rows, sort_keys=True).encode()


#: Seeds of the cells the fake backend's knobs single out (it sees a
#: cell's ``color`` request, which carries no label).
SLOW_SEED = 99
DOOMED_SEED = 98


class FakeBackend:
    """An in-process serve stand-in speaking the NDJSON protocol.

    Runs its own event loop in a daemon thread on a UNIX socket and
    executes ``color`` requests through the real
    :func:`repro.serve.execute_batch` — so a result from a fake backend
    is the same bytes a real shard would return.  A request names its
    cell by ``seed`` only, so the knobs are keyed by seed:

    delay:
        seed -> seconds to sleep (non-blocking) before answering that
        cell; models a straggling shard.
    fail_seeds:
        seeds answered with a deterministic ``internal`` error.
    die_after:
        after serving this many cells, the next color request aborts
        every connection and stops listening — a SIGKILL stand-in.
    register_hash:
        answer every ``register`` with this hash instead of the
        canonical one — a client/server hash disagreement.
    admitted:
        when set, the backend is draining: ``health`` says so, and every
        cell whose seed is not listed (admitted before the drain) is
        refused with ``draining``.

    Counters: ``cells`` are executed cells, ``bounces`` are color
    requests answered ``unknown_instance``, ``registers`` are
    ``register`` ops.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        delay: dict[int, float] | None = None,
        fail_seeds: tuple[int, ...] = (),
        die_after: int | None = None,
        register_hash: str | None = None,
        admitted: tuple[int, ...] | None = None,
    ) -> None:
        self.path = str(path)
        self.spec = f"unix:{self.path}"
        self.delay = dict(delay or {})
        self.fail_seeds = set(fail_seeds)
        self.die_after = die_after
        self.register_hash = register_hash
        self.admitted = admitted
        self.instances: dict[str, dict] = {}
        self.cells = 0
        self.bounces = 0
        self.registers = 0
        self._writers: set[asyncio.StreamWriter] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main, daemon=True)

    def __enter__(self) -> "FakeBackend":
        self._thread.start()
        assert self._ready.wait(10), "fake backend did not start"
        return self

    def __exit__(self, *exc) -> None:
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        self._thread.join(timeout=10)

    def _main(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._server = await asyncio.start_unix_server(
            self._on_connection, path=self.path
        )
        self._ready.set()
        await self._stop.wait()
        self._kill()

    def _kill(self) -> None:
        """Abort every connection and stop listening (no draining)."""
        if self._server is not None:
            self._server.close()
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                task = asyncio.ensure_future(
                    self._handle(json.loads(line), writer, lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _handle(
        self,
        data: dict,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        body = await self._respond(data)
        if body is None:
            return  # killed mid-request: dead processes say nothing
        async with lock:
            try:
                writer.write(json.dumps(body).encode() + b"\n")
                await writer.drain()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, data: dict) -> dict | None:
        op = data.get("op")
        rid = data.get("id")
        if op == "health":
            status = "ok" if self.admitted is None else "draining"
            return {"id": rid, "ok": True, "op": "health", "status": status}
        if op == "register":
            self.registers += 1
            instance_hash, record = normalize_instance_payload(
                data["instance"]
            )
            instance_hash = self.register_hash or instance_hash
            self.instances[instance_hash] = record
            return {
                "id": rid, "ok": True, "op": "register",
                "instance_hash": instance_hash,
                "n": record.n, "delta": record.delta,
            }
        if op == "color":
            return await self._respond_color(data, rid)
        return {
            "id": rid, "ok": False,
            "error": {"code": "unsupported", "message": f"op {op!r}"},
        }

    async def _respond_color(self, data: dict, rid) -> dict | None:
        seed = data.get("seed")
        if self.admitted is not None and seed not in self.admitted:
            return {
                "id": rid, "ok": False, "op": "color",
                "error": {"code": "draining", "message": "draining"},
            }
        delay = self.delay.get(seed, 0.0)
        if delay:
            await asyncio.sleep(delay)
        if self.die_after is not None and self.cells >= self.die_after:
            self._kill()
            return None
        instance_hash = data["instance_hash"]
        if instance_hash not in self.instances:
            self.bounces += 1
            return {
                "id": rid, "ok": False, "op": "color",
                "error": {
                    "code": "unknown_instance",
                    "message": f"no instance {instance_hash!r}",
                },
            }
        self.cells += 1
        if seed in self.fail_seeds:
            return {
                "id": rid, "ok": False, "op": "color",
                "error": {
                    "code": "internal", "message": "injected failure",
                },
            }
        request = parse_color_request(data)
        spec = {
            "key": 0, "instance_hash": instance_hash,
            "method": request.method, "seed": request.seed,
            "epsilon": request.epsilon, "options": request.options,
            "telemetry": request.telemetry,
        }
        with EXEC_LOCK:
            (entry,) = execute_batch(
                [spec], {instance_hash: self.instances[instance_hash]},
                self.instances,
            )
        if "error" in entry:
            return {
                "id": rid, "ok": False, "op": "color",
                "error": entry["error"],
            }
        result = entry["result"]
        if not request.include_colors:
            del result["colors"]
        return {
            "id": rid, "ok": True, "op": "color", "cached": False,
            "instance_hash": instance_hash, "result": result,
        }


class TestExecutorEquivalence:
    def test_remote_rows_byte_identical_to_inline_and_pool(self, tmp_path):
        cells = small_cells()
        inline = run_campaign(cells)
        pool = run_campaign(cells, jobs=2)
        with FakeBackend(tmp_path / "a.sock") as a, \
                FakeBackend(tmp_path / "b.sock") as b:
            remote = run_campaign(
                cells, backends=[a.spec, b.spec],
                remote_options=RemoteOptions(**FAST),
            )
        assert row_bytes(inline) == row_bytes(pool) == row_bytes(remote)
        assert remote.remote_stats is not None
        assert remote.remote_stats["executor"] == "remote"
        assert remote.remote_stats["completed"] == len(cells)
        assert inline.remote_stats is None

    def test_telemetry_rows_identical(self, tmp_path):
        cells = small_cells(2, telemetry=True)
        inline = run_campaign(cells)
        with FakeBackend(tmp_path / "a.sock") as a:
            remote = run_campaign(
                cells, backends=[a.spec],
                remote_options=RemoteOptions(**FAST),
            )
        assert row_bytes(inline) == row_bytes(remote)
        assert "telemetry" in remote.rows[0]


class TestDispatch:
    def test_work_spreads_and_each_graph_ships_once(self, tmp_path):
        cells = small_cells(8)  # one shared graph across all cells
        window = 2
        with FakeBackend(tmp_path / "a.sock") as a, \
                FakeBackend(tmp_path / "b.sock") as b:
            result = run_campaign(
                cells, backends=[a.spec, b.spec],
                remote_options=RemoteOptions(window=window, **FAST),
            )
            assert a.cells >= 1 and b.cells >= 1
            assert a.cells + b.cells == len(cells)
            # Hash-first: only cells sent before the graph landed bounce.
            assert 1 <= a.bounces <= window and 1 <= b.bounces <= window
            assert a.registers == 1 and b.registers == 1
        assert len(result.rows) == len(cells)

    def test_registered_rows_are_the_generator_rows(self, tmp_path):
        # The register payload must rebuild the rows the inline executor
        # colors: a hard graph's generator rows list clique mates first,
        # which a sorted edge list does not reproduce.
        (cell,) = small_cells(1, graph_seed=0)
        with FakeBackend(tmp_path / "a.sock") as backend:
            run_campaign(
                [cell], backends=[backend.spec],
                remote_options=RemoteOptions(**FAST),
            )
        (record,) = backend.instances.values()
        assert record.adjacency == _build_instance(cell).network.adjacency

    def test_second_campaign_registers_nothing(self, tmp_path):
        first, second = small_cells(6), small_cells(6, telemetry=True)
        reference = run_campaign(second)
        with FakeBackend(tmp_path / "a.sock") as a, \
                FakeBackend(tmp_path / "b.sock") as b:
            backends = [a.spec, b.spec]
            options = RemoteOptions(window=3, **FAST)
            run_campaign(first, backends=backends, remote_options=options)
            bounces = a.bounces + b.bounces
            cells = a.cells + b.cells
            remote = run_campaign(
                second, backends=backends, remote_options=options
            )
            assert a.registers == 1 and b.registers == 1
            assert a.bounces + b.bounces == bounces
            assert a.cells + b.cells == cells + len(second)
        assert row_bytes(remote) == row_bytes(reference)

    def test_concurrent_first_contact_ships_each_graph_once(self, tmp_path):
        # Two graphs, a full window of first contacts per backend: each
        # backend receives each graph at most once.
        cells = [
            *small_cells(8),
            *(replace(cell, label=f"g2-{cell.label}", graph_seed=2)
              for cell in small_cells(8)),
        ]
        reference = run_campaign(cells)
        window = 4
        with FakeBackend(tmp_path / "a.sock") as a, \
                FakeBackend(tmp_path / "b.sock") as b:
            remote = run_campaign(
                cells, backends=[a.spec, b.spec],
                remote_options=RemoteOptions(window=window, **FAST),
            )
            for backend in (a, b):
                assert backend.registers == len(backend.instances) <= 2
                assert backend.bounces <= window * len(backend.instances)
        assert row_bytes(remote) == row_bytes(reference)

    def test_register_hash_mismatch_fails_loudly(self, tmp_path):
        cells = small_cells(2)
        wrong = "0" * 64
        with FakeBackend(tmp_path / "a.sock", register_hash=wrong) as a:
            result = run_campaign(
                cells, backends=[a.spec], strict=False, retries=3,
                remote_options=RemoteOptions(**FAST),
            )
            with pytest.raises(InstanceHashMismatch, match=wrong):
                run_campaign(
                    cells, backends=[a.spec],
                    remote_options=RemoteOptions(**FAST),
                )
            assert a.cells == 0
        right = normalize_instance_payload(a.instances[wrong].payload())[0]
        assert len(result.failures) == len(cells)
        for failure in result.failures:
            assert failure["kind"] == "error"
            assert wrong in failure["error"] and right in failure["error"]
        # Failed once, never re-queued as a lost cell.
        assert result.remote_stats["requeued"] == 0

    def test_server_reported_cell_error_is_not_retried(self, tmp_path):
        cells = [
            *small_cells(2),
            CampaignCell(label="doomed", seed=DOOMED_SEED, **SMALL),
        ]
        with FakeBackend(
            tmp_path / "a.sock", fail_seeds=(DOOMED_SEED,)
        ) as a:
            result = run_campaign(
                cells, backends=[a.spec], strict=False,
                remote_options=RemoteOptions(**FAST),
            )
            # Deterministic failure: exactly one attempt, no requeue.
            assert a.cells == len(cells)
        (failure,) = result.failures
        assert failure["label"] == "doomed"
        assert "injected failure" in failure["error"]
        assert result.rows[2]["status"] == "error"

    def test_executor_validation(self):
        cells = small_cells(1)
        with pytest.raises(ReproError, match="requires backends"):
            run_campaign(cells, executor="remote")
        with pytest.raises(ReproError, match="unknown executor"):
            run_campaign(cells, executor="bogus")
        with pytest.raises(ReproError, match="backends"):
            run_campaign(cells, executor="inline", backends=["unix:/nope"])
        with pytest.raises(ReproError, match="cell_runner"):
            run_campaign(
                cells, backends=["unix:/nope"],
                cell_runner=lambda c: {"label": c.label},
            )


class TestJournalCorruption:
    """load_journal tolerates a torn final line — nothing else."""

    def _journal(self, tmp_path, lines: list[str]) -> Path:
        journal = tmp_path / "run.jsonl"
        journal.write_text("".join(line + "\n" for line in lines))
        return journal

    def test_midfile_garbage_raises(self, tmp_path):
        journal = self._journal(tmp_path, [
            '{"index": 0, "label": "a", "row": {}}',
            '{"index": 1, "label": "b", "ro',
            '{"index": 2, "label": "c", "row": {}}',
        ])
        with pytest.raises(ReproError, match="line 2 is not valid JSON"):
            load_journal(journal)

    def test_midfile_wrong_schema_raises(self, tmp_path):
        journal = self._journal(tmp_path, [
            '{"index": 0, "label": "a", "row": {}}',
            '{"note": "not a journal record"}',
            '{"index": 2, "label": "c", "row": {}}',
        ])
        with pytest.raises(ReproError, match="corrupt: line 2"):
            load_journal(journal)

    def test_trailing_torn_line_still_tolerated(self, tmp_path):
        journal = self._journal(tmp_path, [
            '{"index": 0, "label": "a", "row": {}}',
            '{"index": 1, "label": "b", "ro',
        ])
        assert sorted(load_journal(journal)) == [0]


class TestCheckpointResume:
    def test_remote_resume_is_byte_identical(self, tmp_path):
        cells = small_cells()
        reference = run_campaign(cells)
        journal = tmp_path / "run.jsonl"
        with FakeBackend(tmp_path / "a.sock") as a:
            run_campaign(
                cells[:3], backends=[a.spec], checkpoint=journal,
                remote_options=RemoteOptions(**FAST),
            )
        assert sorted(load_journal(journal)) == [0, 1, 2]
        with FakeBackend(tmp_path / "b.sock") as b:
            resumed = run_campaign(
                cells, backends=[b.spec], resume=journal,
                remote_options=RemoteOptions(**FAST),
            )
            # Only the three unjournaled cells crossed the wire.
            assert b.cells == 3
        assert resumed.resumed == 3
        assert row_bytes(resumed) == row_bytes(reference)


class TestBackendLoss:
    def test_killed_backend_cells_requeued_and_complete(self, tmp_path):
        cells = small_cells(8)
        reference = run_campaign(cells)
        with FakeBackend(tmp_path / "a.sock") as a, \
                FakeBackend(tmp_path / "b.sock", die_after=1) as b:
            # retries=3: a cell may be charged more than one loss while
            # the dying backend is still being convicted.
            remote = run_campaign(
                cells, backends=[a.spec, b.spec], retries=3,
                remote_options=RemoteOptions(window=2, **FAST),
            )
        assert row_bytes(remote) == row_bytes(reference)
        stats = remote.remote_stats
        assert stats["backend_deaths"] >= 1
        assert stats["requeued"] >= 1
        assert stats["backends"][f"unix:{tmp_path}/b.sock"]["status"] == "down"

    def test_draining_backend_keeps_its_cells_and_gets_no_new_ones(
        self, tmp_path
    ):
        # A first campaign registers the graph on both backends.  In the
        # second, "slow" lands on a first (label tie-break) and counts
        # as admitted before a's drain; a refuses the other cells it is
        # sent.  They move to b, a gets no more, and "slow" stays on a.
        cells = [
            CampaignCell(label="slow", seed=SLOW_SEED, **SMALL),
            *small_cells(5),
        ]
        reference = run_campaign(cells)
        options = RemoteOptions(**FAST)
        with FakeBackend(tmp_path / "a.sock", delay={SLOW_SEED: 0.2}) as a, \
                FakeBackend(tmp_path / "b.sock") as b:
            backends = [a.spec, b.spec]
            run_campaign(cells, backends=backends, remote_options=options)
            a.cells = b.cells = 0
            a.admitted = (SLOW_SEED,)
            remote = run_campaign(
                cells, backends=backends, remote_options=options
            )
            assert a.cells == 1 and b.cells == len(cells) - 1
        assert row_bytes(remote) == row_bytes(reference)
        stats = remote.remote_stats
        assert stats["backend_deaths"] == 0
        assert stats["backends"][a.spec]["completed"] == 1
        assert stats["backends"][a.spec]["status"] == "draining"

    def test_probe_sweep_costs_one_probe_however_many_backends_hang(
        self, tmp_path
    ):
        options = RemoteOptions(probe_timeout_s=0.3, probe_interval_s=60.0)
        specs = [f"unix:{tmp_path}/hung-{index}.sock" for index in range(2)]

        async def hang(reader, writer):
            # Accept and read, never answer.
            while await reader.read(4096):
                pass
            writer.close()

        async def scenario():
            servers = [
                await asyncio.start_unix_server(hang, path=spec[5:])
                for spec in specs
            ]
            executor = RemoteExecutor(
                [], [], lambda *args, **kwargs: None, backends=specs,
                timeout=None, retries=0, base_seed=0, options=options,
            )
            clients = [backend.client for backend in executor._backends]
            assert clients[0].retry.attempts > 1
            loop = asyncio.get_running_loop()
            started = loop.time()
            probing = loop.create_task(executor._probe_loop())
            try:
                # One probe is one attempt, however many the client's
                # retry policy allows other requests.
                while any(client._failures == 0 for client in clients):
                    assert loop.time() - started < 1.5 * options.probe_timeout_s
                    await asyncio.sleep(0.02)
            finally:
                probing.cancel()
                await asyncio.gather(probing, return_exceptions=True)
                for client in clients:
                    await client.close()
                for server in servers:
                    server.close()

        asyncio.run(scenario())

    def test_no_live_backend_strands_cells_as_crashes(self, tmp_path):
        cells = small_cells(3)
        result = run_campaign(
            cells, backends=[f"unix:{tmp_path}/ghost.sock"],
            strict=False, retries=0,
            remote_options=RemoteOptions(no_backend_grace_s=0.3, **FAST),
        )
        assert len(result.failures) == len(cells)
        assert all(f["kind"] == "crash" for f in result.failures)
        assert all(row["status"] == "error" for row in result.rows)

    def test_strict_kill_raises(self, tmp_path):
        cells = small_cells(2)
        with pytest.raises(ReproError, match="stranded|lost"):
            run_campaign(
                cells, backends=[f"unix:{tmp_path}/ghost.sock"],
                retries=0,
                remote_options=RemoteOptions(no_backend_grace_s=0.3, **FAST),
            )


class TestStragglerHedging:
    def test_straggler_hedged_first_result_wins(self, tmp_path):
        # "slow" is queued first; with both backends idle the picker
        # tie-breaks on label, so it deterministically lands on a —
        # which stalls it for 30s.  The five fast cells build the
        # latency sample, the hedger re-dispatches "slow" to b after
        # STRAGGLER_MIN_S (about 1s), and b's row wins; rows stay
        # byte-identical to an inline run.
        cells = [
            CampaignCell(label="slow", seed=SLOW_SEED, **SMALL),
            *small_cells(5),
        ]
        reference = run_campaign(cells)
        with FakeBackend(
            tmp_path / "a.sock", delay={SLOW_SEED: 30.0}
        ) as a, \
                FakeBackend(tmp_path / "b.sock") as b:
            started = time.monotonic()
            remote = run_campaign(
                cells, backends=[a.spec, b.spec],
                remote_options=RemoteOptions(**FAST),
            )
            elapsed = time.monotonic() - started
        assert row_bytes(remote) == row_bytes(reference)
        assert remote.remote_stats["redispatched"] >= 1
        assert elapsed < 20, "first-result-wins should beat the straggler"


@pytest.mark.slow
class TestRealFleet:
    """One end-to-end pass through real ``repro serve`` subprocesses."""

    def _start(self, sock: str, *argv: str) -> subprocess.Popen:
        """Start ``repro <argv> --unix sock``; return once it accepts."""
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv, "--unix", sock],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            cwd=root, stdout=subprocess.DEVNULL,
            stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if os.path.exists(sock):
                try:
                    probe = socket.socket(socket.AF_UNIX)
                    probe.connect(sock)
                    probe.close()
                    return proc
                except OSError:
                    pass
            time.sleep(0.1)
        proc.kill()
        raise AssertionError(f"{argv[0]} on {sock} did not come up")

    def test_two_shard_fleet_rows_byte_identical(self, tmp_path):
        cells = small_cells(4)
        reference = run_campaign(cells)
        socks = [str(tmp_path / "s0.sock"), str(tmp_path / "s1.sock")]
        procs = [
            self._start(sock, "serve", "-j", "1", "--idle-timeout", "120")
            for sock in socks
        ]
        try:
            remote = run_campaign(
                cells, backends=[f"unix:{sock}" for sock in socks],
                remote_options=RemoteOptions(**FAST),
            )
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.wait(timeout=10)
        assert row_bytes(remote) == row_bytes(reference)
        assert remote.remote_stats["completed"] == len(cells)

    def test_campaign_through_a_fleet_router(self, tmp_path):
        # One router endpoint in front of two shards: the cells are
        # color requests, which the router forwards by cache key.  The
        # two deterministic cells that differ only in label are one
        # coloring, so the second is a cache hit (a window of one sends
        # it after the first has been answered).
        cells = [
            *small_cells(2),
            CampaignCell(label="det-a", method="deterministic", **SMALL),
            CampaignCell(label="det-b", method="deterministic", **SMALL),
        ]
        reference = run_campaign(cells)
        sock = str(tmp_path / "router.sock")
        proc = self._start(
            sock, "fleet", "--shards", "2",
            "--runtime-dir", str(tmp_path / "rt"),
        )
        try:
            remote = run_campaign(
                cells, backends=[f"unix:{sock}"],
                remote_options=RemoteOptions(window=1, **FAST),
            )
        finally:
            proc.terminate()
            proc.wait(timeout=30)
        assert row_bytes(remote) == row_bytes(reference)
        assert remote.remote_stats["cache_hits"] >= 1

    def test_a_disk_entry_of_an_earlier_result_format_misses(self, tmp_path):
        # A disk tier outlives the server that wrote it.  Fill one with
        # what an earlier version stored for these cells: their results
        # without ``shattering``, under keys without a result format.
        # The server must recompute, or the randomized row would lose
        # its shattering statistics.
        cells = small_cells(2)
        reference = run_campaign(cells)
        assert "shattering" in reference.rows[0]
        stale = ResultCache(8, disk_dir=tmp_path / "cache")
        for cell in cells:
            instance_hash, record = normalize_instance_payload(
                RemoteExecutor._payload_for(cell)
            )
            spec = {
                "key": 0, "instance_hash": instance_hash,
                "method": cell.method, "seed": cell.seed,
                "epsilon": cell.epsilon, "options": {},
            }
            (entry,) = execute_batch(
                [spec], {instance_hash: record}, {instance_hash: record}
            )
            result = entry["result"]
            result.pop("shattering", None)
            old_key = json.dumps({
                "instance": instance_hash, "method": cell.method,
                "seed": cell.seed, "epsilon": cell.epsilon, "options": {},
            }, sort_keys=True, separators=(",", ":"))
            stale.put(hashlib.sha256(old_key.encode()).hexdigest(), result)
        sock = str(tmp_path / "s.sock")
        proc = self._start(
            sock, "serve", "-j", "1", "--cache-dir", str(tmp_path / "cache"),
        )
        try:
            remote = run_campaign(
                cells, backends=[f"unix:{sock}"],
                remote_options=RemoteOptions(**FAST),
            )
        finally:
            proc.terminate()
            proc.wait(timeout=10)
        assert row_bytes(remote) == row_bytes(reference)
        assert remote.remote_stats["cache_hits"] == 0
