"""Tests for repro.serve: protocol, cache, admission, batching, server."""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from contextlib import asynccontextmanager
from pathlib import Path

import pytest

from repro.constants import AlgorithmParameters
from repro.core.deterministic import delta_color_deterministic
from repro.core.randomized import delta_color_randomized
from repro.errors import ConfigError
from repro.graphs import hard_clique_graph
from repro.runner import WorkerPool
from repro.serve import (
    AdmissionController,
    BatcherClosed,
    ColoringServer,
    InstanceRecord,
    MicroBatcher,
    PendingRequest,
    ProtocolError,
    ResultCache,
    ServeClient,
    ServeConfig,
    execute_batch,
    make_cache_key,
    normalize_instance_payload,
    parse_color_request,
    parse_request,
)

EPSILON = 0.25


@pytest.fixture(scope="module")
def instance():
    return hard_clique_graph(16, 8, seed=3)


@pytest.fixture(scope="module")
def payload(instance):
    return {
        "n": instance.n,
        "edges": [list(edge) for edge in instance.network.edges()],
        "delta": instance.delta,
        "uids": list(instance.network.uids),
    }


# ----------------------------------------------------------------------
# Protocol framing
# ----------------------------------------------------------------------


class TestProtocol:
    def test_rejects_malformed_json(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(b"{nope")
        assert info.value.code == "bad_request"

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(b"[1, 2]")
        assert info.value.code == "bad_request"

    def test_rejects_missing_op(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(b'{"id": 1}')
        assert info.value.code == "bad_request"

    def test_rejects_unknown_op(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(b'{"op": "paint"}')
        assert info.value.code == "unsupported"

    def test_rejects_invalid_utf8(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(b'{"op": "\xff"}')
        assert info.value.code == "bad_request"

    def test_color_needs_an_instance(self):
        with pytest.raises(ProtocolError, match="instance"):
            parse_color_request({"op": "color", "method": "deterministic"})

    def test_color_rejects_both_instance_forms(self):
        with pytest.raises(ProtocolError, match="not both"):
            parse_color_request(
                {"op": "color", "instance": {"n": 1}, "instance_hash": "x"}
            )

    def test_color_rejects_unknown_method(self):
        with pytest.raises(ProtocolError) as info:
            parse_color_request(
                {"op": "color", "method": "magic", "instance_hash": "x"}
            )
        assert info.value.code == "unsupported"

    def test_color_rejects_bad_epsilon(self):
        with pytest.raises(ProtocolError, match="epsilon"):
            parse_color_request(
                {"op": "color", "epsilon": 1.5, "instance_hash": "x"}
            )

    def test_color_rejects_non_positive_deadline(self):
        with pytest.raises(ProtocolError, match="deadline_ms"):
            parse_color_request(
                {"op": "color", "deadline_ms": 0, "instance_hash": "x"}
            )

    def test_color_rejects_unknown_options(self):
        with pytest.raises(ProtocolError, match="sleep"):
            parse_color_request({
                "op": "color", "instance_hash": "x",
                "options": {"sleep": 1},
            })

    def test_color_rejects_wrong_field_type(self):
        with pytest.raises(ProtocolError, match="seed"):
            parse_color_request(
                {"op": "color", "seed": "three", "instance_hash": "x"}
            )

    def test_color_rejects_unknown_engine(self):
        # One engine: every engine name, once-valid ones included, is an
        # unknown option.
        for engine in ("fast", "legacy", "columnar", "turbo"):
            with pytest.raises(ProtocolError, match="engine"):
                parse_color_request({
                    "op": "color", "instance_hash": "x",
                    "options": {"engine": engine},
                })

    def test_normalize_matches_dense_instance_hash(self, instance, payload):
        from repro.local.network import Network

        instance_hash, record = normalize_instance_payload(payload)
        assert instance_hash == instance.canonical_hash()
        # The record is the adjacency from_edges builds, not the edges.
        assert record.adjacency == Network.from_edges(
            payload["n"], payload["edges"]
        ).adjacency
        assert (record.n, record.delta) == (instance.n, instance.delta)
        assert record.uids == tuple(instance.network.uids)
        wire = record.payload()
        assert set(wire) == {"n", "edges", "delta", "uids"}
        assert normalize_instance_payload(wire)[0] == instance_hash

    def test_payload_rebuilds_rows_of_any_edge_order(self, instance):
        # The rendered payload rebuilds the record's rows, not the
        # canonical rows: a healed process colors what was registered.
        edges = [list(edge) for edge in instance.network.edges()]
        random.Random(7).shuffle(edges)
        edges = [edge[::-1] if i % 2 else edge for i, edge in enumerate(edges)]
        instance_hash, record = normalize_instance_payload(
            {"n": instance.n, "edges": edges, "delta": instance.delta}
        )
        rendered_hash, rendered = normalize_instance_payload(record.payload())
        assert rendered_hash == instance_hash
        assert rendered == record
        # Rows in generator order too (not sorted: clique mates first).
        generator = InstanceRecord(
            instance.network.adjacency, instance.delta, None
        )
        assert normalize_instance_payload(generator.payload())[1] == generator

    def test_payload_refuses_rows_no_edge_order_builds(self):
        # Around a triangle in cyclic order each edge must precede the
        # next: no edge list appends the rows this way.
        record = InstanceRecord(((1, 2), (2, 0), (0, 1)), 2, None)
        with pytest.raises(ValueError, match="no edge order"):
            record.payload()

    def test_normalize_drops_planted_structure(self, payload):
        decorated = {**payload, "cliques": [[0, 1]], "meta": {"x": 1}}
        assert normalize_instance_payload(decorated)[0] == (
            normalize_instance_payload(payload)[0]
        )

    def test_normalize_rejects_bad_edges(self):
        with pytest.raises(ProtocolError, match="pair of ints"):
            normalize_instance_payload({"n": 3, "edges": [[0]]})
        with pytest.raises(ProtocolError, match="out of range"):
            normalize_instance_payload({"n": 3, "edges": [[0, 7]]})
        with pytest.raises(ProtocolError, match="out of range"):
            normalize_instance_payload({"n": 3, "edges": [[1, 1]]})

    def test_normalize_rejects_repeated_edge(self):
        # A repeat, in either orientation, would hash differently from
        # the same graph without it.
        cycle = [[0, 1], [1, 2], [2, 3], [3, 0]]
        for repeat in ([0, 1], [1, 0]):
            with pytest.raises(ProtocolError) as raised:
                normalize_instance_payload({"n": 4, "edges": [*cycle, repeat]})
            assert raised.value.code == "bad_request"
            assert str(raised.value) == f"edge {repeat!r} is repeated"

    def test_normalize_rejects_wrong_delta(self, payload):
        with pytest.raises(ProtocolError, match="maximum degree"):
            normalize_instance_payload({**payload, "delta": 3})

    def test_normalize_rejects_bad_uids(self, payload):
        with pytest.raises(ProtocolError, match="uids"):
            normalize_instance_payload({**payload, "uids": [1, 2]})


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------


class TestResultCache:
    def test_hit_miss_counters(self):
        cache = ResultCache(4)
        assert cache.get("a") is None
        cache.put("a", {"x": 1})
        assert cache.get("a") == {"x": 1}
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.get("a")  # touch: b becomes the eviction candidate
        cache.put("c", {"v": 3})
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.get("c") == {"v": 3}
        assert cache.evictions == 1

    def test_zero_capacity_disables(self):
        cache = ResultCache(0)
        cache.put("a", {"v": 1})
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_disk_spill_survives_restart(self, tmp_path):
        first = ResultCache(4, disk_dir=tmp_path / "cache")
        first.put("k", {"v": 42})
        second = ResultCache(4, disk_dir=tmp_path / "cache")
        assert second.get("k") == {"v": 42}
        assert second.disk_hits == 1
        # Promoted into memory: the next get is a pure memory hit.
        assert second.get("k") == {"v": 42}
        assert second.disk_hits == 1

    def test_disk_survives_memory_eviction(self, tmp_path):
        cache = ResultCache(1, disk_dir=tmp_path / "cache")
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})  # evicts a from memory, not from disk
        assert cache.get("a") == {"v": 1}
        assert cache.disk_hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(2, disk_dir=tmp_path / "cache")
        (tmp_path / "cache" / "bad.json").write_text("{torn")
        assert cache.get("bad") is None

    def test_disk_cap_prunes_oldest_entries_on_put(self, tmp_path):
        import os

        cache = ResultCache(
            0, disk_dir=tmp_path / "cache", disk_max_bytes=64
        )
        blob = {"v": "x" * 20}  # ~30 bytes on disk per entry
        for index, key in enumerate(("old", "mid", "new")):
            cache.put(key, blob)
            # Distinct mtimes make the pruning order deterministic.
            path = tmp_path / "cache" / f"{key}.json"
            os.utime(path, (1000 + index, 1000 + index))
        cache.put("newest", blob)  # over the cap: prunes oldest first
        files = {p.stem for p in (tmp_path / "cache").glob("*.json")}
        assert "newest" in files
        assert "old" not in files
        assert cache.disk_evictions >= 1
        _, total = cache.disk_usage()
        assert total <= 64

    def test_prune_is_a_noop_without_a_cap(self, tmp_path):
        cache = ResultCache(2, disk_dir=tmp_path / "cache")
        cache.put("a", {"v": 1})
        assert cache.prune() == 0
        assert cache.get("a") == {"v": 1}

    def test_prune_accepts_an_override_cap(self, tmp_path):
        cache = ResultCache(0, disk_dir=tmp_path / "cache")
        for index in range(4):
            cache.put(f"k{index}", {"v": index})
        removed = cache.prune(max_bytes=1)
        assert removed == 4
        assert cache.disk_usage() == (0, 0)

    def test_stats_report_disk_usage_only_with_a_disk_tier(self, tmp_path):
        plain = ResultCache(2)
        assert "disk_files" not in plain.stats()
        cache = ResultCache(2, disk_dir=tmp_path / "cache")
        cache.put("a", {"v": 1})
        stats = cache.stats()
        assert stats["disk_files"] == 1
        assert stats["disk_bytes"] > 0
        assert stats["disk_evictions"] == 0

    def test_rejects_nonpositive_disk_cap(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(2, disk_dir=tmp_path / "cache", disk_max_bytes=0)

    def test_cache_key_covers_every_dimension(self):
        base = make_cache_key("h", "randomized", 1, 0.25, {})
        assert make_cache_key("h", "randomized", 2, 0.25, {}) != base
        assert make_cache_key("h", "deterministic", 1, 0.25, {}) != base
        assert make_cache_key("h", "randomized", 1, 0.5, {}) != base
        assert make_cache_key("g", "randomized", 1, 0.25, {}) != base
        assert make_cache_key(
            "h", "randomized", 1, 0.25, {"verify": False}
        ) != base
        assert make_cache_key("h", "randomized", 1, 0.25, {}) == base


class TestServeConfig:
    @pytest.mark.parametrize("overrides, field, flag", [
        ({"max_batch": 0}, "max_batch", "--max-batch"),
        ({"max_queue": 0}, "max_queue", "--max-queue"),
        ({"cache_size": -5}, "cache_size", "--cache-size"),
        ({"cache_dir": "/tmp/c", "cache_max_bytes": 0},
         "cache_max_bytes", "--cache-max-bytes"),
        ({"cache_max_bytes": 1024}, "cache_dir", "--cache-dir"),
        ({"default_deadline_ms": 0}, "default_deadline_ms", "--deadline-ms"),
    ])
    def test_rejects_bad_knobs(self, overrides, field, flag):
        # One error type for library and CLI callers alike: a ValueError
        # and a ReproError that names the field and its flag.
        with pytest.raises(ConfigError, match=field) as caught:
            ServeConfig(**overrides)
        assert isinstance(caught.value, ValueError)
        assert (caught.value.field, caught.value.flag) == (field, flag)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


class TestAdmission:
    def test_sheds_past_the_bound(self):
        admission = AdmissionController(2)
        assert admission.try_admit() is None
        assert admission.try_admit() is None
        assert admission.try_admit() == "shed"
        assert admission.shed_total == 1
        admission.release()
        assert admission.try_admit() is None

    def test_draining_refuses_new_work(self):
        admission = AdmissionController(2)
        assert admission.try_admit() is None
        admission.begin_drain()
        assert admission.try_admit() == "draining"
        assert admission.state() == "draining"
        admission.release()
        assert admission.state() == "drained"

    def test_release_underflow_raises(self):
        with pytest.raises(RuntimeError):
            AdmissionController(1).release()

    def test_wait_drained(self):
        async def scenario():
            admission = AdmissionController(2)
            admission.try_admit()
            admission.begin_drain()
            waiter = asyncio.get_running_loop().create_task(
                admission.wait_drained()
            )
            await asyncio.sleep(0)
            assert not waiter.done()
            admission.release()
            await asyncio.wait_for(waiter, 1)

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Micro-batching
# ----------------------------------------------------------------------


def _pending(key="k"):
    return PendingRequest(
        key=key, instance_hash="h", record=None, spec={"key": key},
        future=asyncio.get_running_loop().create_future(),
    )


class TestMicroBatcher:
    def test_size_bound_closes_batches(self):
        async def scenario():
            batches = []

            async def dispatch(batch):
                batches.append(len(batch))

            batcher = MicroBatcher(dispatch=dispatch, max_batch=3, linger=0.2)
            batcher.start()
            for _ in range(5):
                batcher.submit(_pending())
            await batcher.close()
            return batches

        # Five pre-queued items close a full batch of 3 immediately (the
        # size trigger) and the remaining 2 on the close flush.
        assert asyncio.run(scenario()) == [3, 2]

    def test_linger_closes_underfull_batches(self):
        async def scenario():
            batches = []

            async def dispatch(batch):
                batches.append(len(batch))

            batcher = MicroBatcher(
                dispatch=dispatch, max_batch=100, linger=0.02
            )
            batcher.start()
            batcher.submit(_pending())
            batcher.submit(_pending())
            await asyncio.sleep(0.1)  # linger expires with 2 of 100 slots
            assert batches == [2]
            await batcher.close()
            return batches

        assert asyncio.run(scenario()) == [2]

    def test_zero_linger_batches_only_whats_queued(self):
        async def scenario():
            batches = []

            async def dispatch(batch):
                batches.append(len(batch))

            batcher = MicroBatcher(dispatch=dispatch, max_batch=8, linger=0.0)
            batcher.start()
            batcher.submit(_pending())
            await asyncio.sleep(0.05)
            batcher.submit(_pending())
            batcher.submit(_pending())
            await batcher.close()
            return batches

        assert asyncio.run(scenario()) == [1, 2]

    def test_close_flushes_and_rejects_new_submissions(self):
        async def scenario():
            seen = []

            async def dispatch(batch):
                seen.extend(item.key for item in batch)

            batcher = MicroBatcher(dispatch=dispatch, max_batch=4, linger=0.5)
            batcher.start()
            batcher.submit(_pending("a"))
            batcher.submit(_pending("b"))
            await batcher.close()
            assert seen == ["a", "b"]
            with pytest.raises(BatcherClosed):
                batcher.submit(_pending("c"))

        asyncio.run(scenario())

    def test_submit_after_close_raises_typed_error_not_stranding(self):
        """A submit that loses the race against shutdown must fail with
        the typed :class:`BatcherClosed` — before the fix it enqueued
        behind the close sentinel and the item's future never resolved."""
        async def scenario():
            async def dispatch(batch):
                pass

            batcher = MicroBatcher(dispatch=dispatch, max_batch=4, linger=0.0)
            batcher.start()
            await batcher.close()
            late = _pending("late")
            with pytest.raises(BatcherClosed, match="draining"):
                batcher.submit(late)
            # The item never entered the queue: nothing owns its future,
            # so the caller (the connection handler) can resolve it.
            assert batcher.queued == 0
            assert not late.future.done()

        asyncio.run(scenario())

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MicroBatcher(dispatch=None, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(dispatch=None, linger=-1)


# ----------------------------------------------------------------------
# WorkerPool lifecycle (the campaign/serve shared refactor)
# ----------------------------------------------------------------------


class TestWorkerPool:
    def test_restart_and_rebuild_lifecycle(self):
        pool = WorkerPool(1, backoff=0.0)
        try:
            assert pool.submit(abs, -3).result(timeout=30) == 3
            pool.restart()
            assert pool.rebuilds == 0
            pool.rebuild()
            assert pool.rebuilds == 1
            assert pool.submit(abs, -4).result(timeout=30) == 4
        finally:
            pool.kill()

    def test_killed_pool_refuses_submissions(self):
        pool = WorkerPool(1, backoff=0.0)
        pool.kill()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.submit(abs, -1)

    def test_context_manager_kills(self):
        with WorkerPool(1, backoff=0.0) as pool:
            pass
        with pytest.raises(RuntimeError):
            pool.executor

    def test_worker_forked_under_signal_handler_dies_on_sigterm(self):
        """Workers forked after ``loop.add_signal_handler(SIGTERM)`` (what
        ``ColoringServer.start`` does) must still die on SIGTERM."""
        loop = asyncio.new_event_loop()
        loop.add_signal_handler(signal.SIGTERM, lambda: None)
        pool = WorkerPool(1, backoff=0.0)
        try:
            pid = pool.submit(os.getpid).result(timeout=30)
            worker = pool.executor._processes[pid]
            os.kill(pid, signal.SIGTERM)
            worker.join(timeout=10)
            assert not worker.is_alive()
        finally:
            pool.kill()
            loop.remove_signal_handler(signal.SIGTERM)
            loop.close()

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="reads process states in /proc"
    )
    def test_worker_exits_when_its_parent_is_killed(self, tmp_path):
        """A SIGKILLed pool owner (a shard the fleet killed) must not
        leave its worker behind as an orphan."""
        script = (
            "import os, signal\n"
            "from repro.runner import WorkerPool\n"
            "pool = WorkerPool(1, backoff=0.0)\n"
            "print(pool.submit(os.getpid).result(timeout=30), flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = tmp_path / "worker.pid"
        with out.open("w") as sink:
            subprocess.run(
                [sys.executable, "-c", script], stdout=sink, timeout=60,
                env={**os.environ, "PYTHONPATH": str(src)},
            )
        worker = int(out.read_text().split()[0])

        def alive() -> bool:
            try:
                stat = Path(f"/proc/{worker}/stat").read_text()
            except OSError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        deadline = time.monotonic() + 10
        try:
            while alive() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not alive(), f"pool worker {worker} outlived its parent"
        finally:
            if alive():
                os.kill(worker, signal.SIGKILL)


# ----------------------------------------------------------------------
# Server end-to-end (unix sockets, jobs=0 inline execution)
# ----------------------------------------------------------------------


@asynccontextmanager
async def serving(tmp_path, **overrides):
    options = {"jobs": 0, "linger_ms": 1.0}
    options.update(overrides)
    config = ServeConfig(unix_path=str(tmp_path / "serve.sock"), **options)
    server = ColoringServer(config)
    await server.start()
    client = ServeClient(unix_path=config.unix_path)
    await client.connect()
    try:
        yield server, client
    finally:
        await client.close()
        await server.close()


def slow_runner(specs, instances, registered):
    time.sleep(0.2)
    return [
        {"key": spec["key"], "result": {"colors": [0], "num_colors": 1}}
        for spec in specs
    ]


class TestServerEndToEnd:
    def test_color_matches_direct_call_and_caches(self, tmp_path, instance, payload):
        direct = delta_color_deterministic(
            instance.network, params=AlgorithmParameters(epsilon=EPSILON)
        )

        async def scenario():
            async with serving(tmp_path) as (server, client):
                first = await client.request({
                    "op": "color", "method": "deterministic",
                    "epsilon": EPSILON, "instance": payload,
                })
                assert first["ok"] and first["cached"] is False
                assert first["result"]["colors"] == direct.colors
                assert first["result"]["num_colors"] == direct.num_colors
                again = await client.request({
                    "op": "color", "method": "deterministic",
                    "epsilon": EPSILON,
                    "instance_hash": first["instance_hash"],
                })
                assert again["cached"] is True
                assert again["result"]["colors"] == direct.colors
                assert server.cache.stats()["hits"] == 1

        asyncio.run(scenario())

    def test_include_colors_false_keeps_digest(self, tmp_path, payload):
        async def scenario():
            async with serving(tmp_path) as (_, client):
                response = await client.request({
                    "op": "color", "method": "deterministic",
                    "epsilon": EPSILON, "instance": payload,
                    "include_colors": False,
                })
                assert response["ok"]
                assert "colors" not in response["result"]
                assert len(response["result"]["colors_sha256"]) == 64

        asyncio.run(scenario())

    def test_register_then_color_by_hash(self, tmp_path, instance, payload):
        async def scenario():
            async with serving(tmp_path) as (_, client):
                registered = await client.request(
                    {"op": "register", "instance": payload}
                )
                assert registered["ok"]
                assert registered["instance_hash"] == instance.canonical_hash()
                response = await client.request({
                    "op": "color", "method": "randomized", "seed": 7,
                    "epsilon": EPSILON,
                    "instance_hash": registered["instance_hash"],
                })
                assert response["ok"]

        asyncio.run(scenario())

    def test_color_rejects_unknown_engine_option(self, tmp_path, payload):
        async def scenario():
            async with serving(tmp_path) as (_, client):
                response = await client.request({
                    "op": "color", "method": "deterministic",
                    "epsilon": EPSILON, "instance": payload,
                    "options": {"engine": "fast"},
                })
                assert response["ok"] is False
                assert response["error"]["code"] == "bad_request"

        asyncio.run(scenario())

    def test_unknown_instance_hash(self, tmp_path):
        async def scenario():
            async with serving(tmp_path) as (_, client):
                response = await client.request({
                    "op": "color", "method": "deterministic",
                    "instance_hash": "feed" * 16,
                })
                assert response["ok"] is False
                assert response["error"]["code"] == "unknown_instance"

        asyncio.run(scenario())

    def test_concurrent_requests_coalesce_into_batches(self, tmp_path, payload):
        async def scenario():
            async with serving(
                tmp_path, max_batch=8, linger_ms=20.0
            ) as (server, client):
                registered = await client.request(
                    {"op": "register", "instance": payload}
                )
                responses = await asyncio.gather(*(
                    client.request({
                        "op": "color", "method": "randomized", "seed": seed,
                        "epsilon": EPSILON, "include_colors": False,
                        "instance_hash": registered["instance_hash"],
                    })
                    for seed in range(6)
                ))
                assert all(r["ok"] for r in responses)
                assert max(r["batch_size"] for r in responses) >= 4
                assert server.batcher.batches_dispatched < 6

        asyncio.run(scenario())

    def test_identical_requests_dedupe_within_a_batch(self, tmp_path, payload):
        async def scenario():
            async with serving(
                tmp_path, max_batch=4, linger_ms=20.0
            ) as (server, client):
                registered = await client.request(
                    {"op": "register", "instance": payload}
                )
                body = {
                    "op": "color", "method": "randomized", "seed": 5,
                    "epsilon": EPSILON, "include_colors": True,
                    "instance_hash": registered["instance_hash"],
                }
                a, b = await asyncio.gather(
                    client.request({**body, "id": "a"}),
                    client.request({**body, "id": "b"}),
                )
                assert a["ok"] and b["ok"]
                assert a["result"]["colors"] == b["result"]["colors"]
                assert server.cache.stats()["size"] == 1

        asyncio.run(scenario())

    def test_malformed_line_keeps_connection_usable(self, tmp_path, payload):
        async def scenario():
            async with serving(tmp_path) as (_, client):
                client._writer.write(b"this is not json\n")
                await client._writer.drain()
                # The error response has id null; it must not poison the
                # id-matched requests that follow.
                response = await client.request({
                    "op": "color", "method": "deterministic",
                    "epsilon": EPSILON, "instance": payload,
                })
                assert response["ok"]

        asyncio.run(scenario())

    def test_internal_error_is_per_request(self, tmp_path, payload):
        async def scenario():
            async with serving(tmp_path) as (_, client):
                # epsilon too small for Delta=8: the ACD has sparse
                # vertices and Theorem 1 refuses (NotDenseError).
                bad = await client.request({
                    "op": "color", "method": "deterministic",
                    "epsilon": 0.0625, "instance": payload,
                })
                assert bad["ok"] is False
                assert bad["error"]["code"] == "internal"
                assert bad["error"]["type"] == "NotDenseError"
                good = await client.request({
                    "op": "color", "method": "deterministic",
                    "epsilon": EPSILON, "instance": payload,
                })
                assert good["ok"]

        asyncio.run(scenario())


class TestPreparedInstances:
    """Per-instance work is shared across batches, never across state."""

    @staticmethod
    def spec(key, method, seed=None):
        return {
            "key": key, "instance_hash": "", "method": method,
            "seed": seed, "epsilon": EPSILON, "options": {},
        }

    def test_two_batches_prepare_once(self, monkeypatch, instance, payload):
        import repro.acd.decomposition as decomposition
        import repro.core.hardness as hardness
        import repro.graphs.validation as validation
        import repro.local.network as network_module
        import repro.serve.protocol as protocol_module
        import repro.serve.server as server_module
        from repro.serve.cache import PreparedCache

        calls = {
            "parse": 0, "structure": 0, "clique": 0, "acd": 0, "classify": 0,
        }

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(server_module, "_PREPARED", PreparedCache())
        monkeypatch.setattr(
            protocol_module, "_adjacency_from_edges",
            counted("parse", protocol_module._adjacency_from_edges),
        )
        monkeypatch.setattr(
            network_module.Network, "_check_adjacency",
            counted("structure", network_module.Network._check_adjacency),
        )
        monkeypatch.setattr(
            validation, "assert_no_delta_plus_one_clique",
            counted("clique", validation.assert_no_delta_plus_one_clique),
        )
        monkeypatch.setattr(
            decomposition, "compute_acd",
            counted("acd", decomposition.compute_acd),
        )
        monkeypatch.setattr(
            hardness, "classify_cliques",
            counted("classify", hardness.classify_cliques),
        )
        instance_hash, record = normalize_instance_payload(payload)
        instances = {instance_hash: record}
        batches = [
            [self.spec("a", "deterministic")],
            [self.spec("b", "randomized", 1), self.spec("c", "randomized", 2)],
        ]
        entries = []
        for batch in batches:
            for spec in batch:
                spec["instance_hash"] = instance_hash
            entries.append(execute_batch(batch, instances, {instance_hash}))
        assert calls == {
            "parse": 1, "structure": 1, "clique": 1, "acd": 1, "classify": 1,
        }
        assert [entry.get("prepared") for entry in entries[0]] == ["build"]
        assert [entry.get("prepared") for entry in entries[1]] == ["hit", None]
        params = AlgorithmParameters(epsilon=EPSILON)
        direct = [
            delta_color_deterministic(instance.network, params=params),
            delta_color_randomized(instance.network, params=params, seed=1),
            delta_color_randomized(instance.network, params=params, seed=2),
        ]
        results = [entry["result"] for batch in entries for entry in batch]
        for result, expected in zip(results, direct):
            assert result["colors"] == expected.colors
            assert result["rounds"] == expected.rounds
            assert result["messages"] == expected.messages

    def test_cache_follows_registry_eviction(self, monkeypatch, tmp_path):
        import repro.serve.server as server_module
        from repro.serve.cache import PreparedCache

        monkeypatch.setattr(server_module, "_PREPARED", PreparedCache())
        graphs = [hard_clique_graph(16, 8, seed=seed) for seed in (3, 4)]
        params = AlgorithmParameters(epsilon=EPSILON)
        direct = [
            delta_color_randomized(graph.network, params=params, seed=5)
            for graph in graphs
        ]
        payloads = [
            {
                "n": graph.n,
                "edges": [list(edge) for edge in graph.network.edges()],
                "delta": graph.delta,
                "uids": list(graph.network.uids),
            }
            for graph in graphs
        ]

        async def scenario():
            async with serving(tmp_path, registry_size=1) as (server, client):
                for round_index in range(4):
                    which = round_index % 2
                    response = await client.request({
                        "op": "color", "method": "randomized", "seed": 5,
                        "epsilon": EPSILON, "instance": payloads[which],
                        "no_cache": True,
                    })
                    assert response["ok"], response
                    assert response["result"]["colors"] == direct[which].colors
                    assert len(server.registry) == 1
                    assert len(server_module._PREPARED) <= 1
                metrics = await client.request({"op": "metrics"})
                counters = metrics["metrics"]["counters"]
                # Every alternation evicted the other instance.
                assert counters["serve.prepared.build"] == 4
                assert "serve.prepared.hit" not in counters

        asyncio.run(scenario())

    def test_counters_register_build_hit(self, monkeypatch, tmp_path,
                                         payload):
        import repro.serve.server as server_module
        from repro.serve.cache import PreparedCache

        monkeypatch.setattr(server_module, "_PREPARED", PreparedCache())

        async def scenario():
            async with serving(tmp_path) as (_, client):
                registered = await client.request(
                    {"op": "register", "instance": payload}
                )
                for seed in (1, 2):
                    response = await client.request({
                        "op": "color", "method": "randomized", "seed": seed,
                        "epsilon": EPSILON,
                        "instance_hash": registered["instance_hash"],
                    })
                    assert response["ok"], response
                metrics = await client.request({"op": "metrics"})
                counters = metrics["metrics"]["counters"]
                assert counters["serve.register"] == 1
                assert counters["serve.prepared.build"] == 1
                assert counters["serve.prepared.hit"] == 1

        asyncio.run(scenario())

    def test_two_servers_color_one_hash_concurrently(self, tmp_path, instance,
                                                     payload):
        params = AlgorithmParameters(epsilon=EPSILON)
        seeds = range(6)
        direct = {
            seed: delta_color_randomized(
                instance.network, params=params, seed=seed
            )
            for seed in seeds
        }

        async def sweep(client, instance_hash):
            return await asyncio.gather(*(
                client.request({
                    "op": "color", "method": "randomized", "seed": seed,
                    "epsilon": EPSILON, "instance_hash": instance_hash,
                })
                for seed in seeds
            ))

        async def scenario():
            (tmp_path / "a").mkdir()
            (tmp_path / "b").mkdir()
            async with serving(tmp_path / "a", max_batch=2) as (_, a), \
                    serving(tmp_path / "b", max_batch=2) as (_, b):
                hashes = [
                    (await client.request(
                        {"op": "register", "instance": payload}
                    ))["instance_hash"]
                    for client in (a, b)
                ]
                assert hashes[0] == hashes[1]
                answers = await asyncio.gather(
                    sweep(a, hashes[0]), sweep(b, hashes[1])
                )
            for responses in answers:
                for seed, response in zip(seeds, responses):
                    assert response["ok"], response
                    expected = direct[seed]
                    assert response["result"]["colors"] == expected.colors
                    assert response["result"]["rounds"] == expected.rounds

        asyncio.run(scenario())

    def test_cells_share_the_clique_check_and_classification(
        self, monkeypatch
    ):
        """Cells on one registered graph check it for a (Delta+1)-clique
        and classify it once per backend, and every cell's row, repeats
        included, is byte-identical to a fresh inline ``run_cell``."""
        import repro.core.deterministic as deterministic
        import repro.core.hardness as hardness
        import repro.graphs.validation as validation
        import repro.serve.server as server_module
        from repro.bench import workloads
        from repro.runner.campaign import CampaignCell, cell_to_json, run_cell
        from repro.serve.cache import PreparedCache

        cells = [
            CampaignCell(
                label=f"{method}-{seed}", num_cliques=16, delta=8,
                graph_seed=3, epsilon=EPSILON, method=method, seed=seed,
            )
            for method, seed in (
                ("deterministic", None), ("randomized", 1),
                ("randomized", 2), ("deterministic", None),
                ("randomized", 1),
            )
        ]
        graph = hard_clique_graph(16, 8, seed=3)
        instance_hash, record = normalize_instance_payload({
            "n": graph.n,
            "edges": [list(edge) for edge in graph.network.edges()],
            "delta": graph.delta,
            "uids": list(graph.network.uids),
        })
        calls = {"clique": 0, "classify": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        clique = counted("clique", validation.assert_no_delta_plus_one_clique)
        classify = counted("classify", hardness.classify_cliques)
        monkeypatch.setattr(server_module, "_PREPARED", PreparedCache())
        for module in (validation, deterministic):
            monkeypatch.setattr(
                module, "assert_no_delta_plus_one_clique", clique
            )
        for module in (hardness, deterministic):
            monkeypatch.setattr(module, "classify_cliques", classify)
        rows = []
        for index in range(0, len(cells), 2):
            batch = [
                {"kind": "cell", "key": cell.label,
                 "instance_hash": instance_hash, "cell": cell_to_json(cell)}
                for cell in cells[index:index + 2]
            ]
            for entry in execute_batch(
                batch, {instance_hash: record}, {instance_hash}
            ):
                assert "error" not in entry, entry
                rows.append(entry["result"]["row"])
        assert calls == {"clique": 1, "classify": 1}

        monkeypatch.undo()
        workloads.workload_classification.cache_clear()
        for cell, row in zip(cells, rows):
            assert json.dumps(row, sort_keys=True) == json.dumps(
                run_cell(cell), sort_keys=True
            )

    @pytest.mark.parametrize("pipeline", [
        "deterministic", "randomized", "general", "ghkm", "dcc",
    ])
    def test_pipelines_leave_a_passed_acd_unchanged(self, pipeline,
                                                    instance):
        import copy

        from repro.acd import compute_acd
        from repro.baselines import (
            dcc_layering_coloring,
            ghkm_randomized_coloring,
        )
        from repro.core.hardness import classify_cliques
        from repro.core.sparse import delta_color_general

        params = AlgorithmParameters(epsilon=EPSILON)
        network = instance.network
        shared = classify_cliques(network, compute_acd(network, EPSILON))
        before = copy.deepcopy(shared)
        # Low activation leaves bad cliques, so the shattered-component
        # path runs too.
        if pipeline == "deterministic":
            delta_color_deterministic(
                network, params=params, classification=shared
            )
        elif pipeline == "randomized":
            delta_color_randomized(
                network, params=params, seed=3, classification=shared,
                activation_probability=0.02,
            )
        elif pipeline == "general":
            delta_color_general(
                network, params=params, seed=0, classification=shared
            )
        elif pipeline == "ghkm":
            ghkm_randomized_coloring(
                network, params=params, seed=3, classification=shared,
                activation_probability=0.02,
            )
        else:
            dcc_layering_coloring(
                network, params=params, classification=shared
            )
        assert shared == before


class TestServerOverload:
    def test_sheds_past_queue_bound(self, tmp_path, payload):
        async def scenario():
            async with serving(
                tmp_path, max_queue=1, max_batch=1, linger_ms=0.0,
                batch_runner=slow_runner, cache_size=0,
            ) as (server, client):
                registered = await client.request(
                    {"op": "register", "instance": payload}
                )
                body = {
                    "op": "color", "method": "randomized",
                    "epsilon": EPSILON,
                    "instance_hash": registered["instance_hash"],
                }
                first = asyncio.get_running_loop().create_task(
                    client.request({**body, "seed": 1, "id": "first"})
                )
                await asyncio.sleep(0.05)  # first now occupies the bound
                shed = await client.request({**body, "seed": 2, "id": "shed"})
                assert shed["ok"] is False
                assert shed["error"]["code"] == "shed"
                assert server.admission.shed_total == 1
                assert (await first)["ok"]

        asyncio.run(scenario())

    def test_deadline_expires_before_execution(self, tmp_path, payload):
        async def scenario():
            async with serving(
                tmp_path, max_batch=1, linger_ms=0.0,
                batch_runner=slow_runner, cache_size=0,
            ) as (_, client):
                registered = await client.request(
                    {"op": "register", "instance": payload}
                )
                body = {
                    "op": "color", "method": "randomized",
                    "epsilon": EPSILON,
                    "instance_hash": registered["instance_hash"],
                }
                # The first request occupies the single dispatch slot for
                # 200ms; the second's 50ms deadline expires while queued.
                first = asyncio.get_running_loop().create_task(
                    client.request({**body, "seed": 1, "id": "first"})
                )
                await asyncio.sleep(0.05)
                late = await client.request(
                    {**body, "seed": 2, "id": "late", "deadline_ms": 50}
                )
                assert late["ok"] is False
                assert late["error"]["code"] == "deadline"
                assert (await first)["ok"]

        asyncio.run(scenario())

    def test_drain_completes_in_flight_then_refuses(self, tmp_path, payload):
        async def scenario():
            async with serving(
                tmp_path, max_batch=1, linger_ms=0.0,
                batch_runner=slow_runner, cache_size=0,
            ) as (server, client):
                registered = await client.request(
                    {"op": "register", "instance": payload}
                )
                body = {
                    "op": "color", "method": "randomized",
                    "epsilon": EPSILON,
                    "instance_hash": registered["instance_hash"],
                }
                loop = asyncio.get_running_loop()
                in_flight = loop.create_task(
                    client.request({**body, "seed": 1, "id": "inflight"})
                )
                await asyncio.sleep(0.05)
                done_order = []
                in_flight.add_done_callback(
                    lambda _: done_order.append("color")
                )
                drain = loop.create_task(
                    client.request({"op": "drain", "id": "drain"})
                )
                drain.add_done_callback(lambda _: done_order.append("drain"))
                drained = await drain
                assert drained["ok"] and drained["drained"] is True
                assert (await in_flight)["ok"]
                assert done_order == ["color", "drain"]
                refused = await client.request(
                    {**body, "seed": 3, "id": "after"}
                )
                assert refused["error"]["code"] == "draining"
                assert server.admission.state() == "drained"

        asyncio.run(scenario())

    def test_sigterm_style_drain_stops_the_server(self, tmp_path):
        async def scenario():
            async with serving(tmp_path) as (server, _):
                server._on_signal()
                await asyncio.wait_for(server.wait_stopped(), 2)
                assert server.admission.draining

        asyncio.run(scenario())

    def test_signal_drain_task_is_retained_and_deduplicated(self, tmp_path):
        # Regression: the drain task handle must be stored — the event
        # loop holds only a weak reference, so a bare create_task could
        # be garbage-collected mid-drain — and a repeat SIGTERM while a
        # drain is in flight must not spawn a second drain task.
        async def scenario():
            async with serving(tmp_path) as (server, _):
                server._on_signal()
                first = server._drain_task
                assert first is not None
                server._on_signal()
                assert server._drain_task is first
                await asyncio.wait_for(server.wait_stopped(), 2)

        asyncio.run(scenario())


def crashing_runner(specs, instances, registered):
    import os

    os._exit(13)


class TestCrashIsolation:
    def test_worker_crash_fails_request_not_server(self, tmp_path, payload):
        async def scenario():
            async with serving(
                tmp_path, jobs=1, backoff=0.0, dispatch_retries=1,
                batch_runner=crashing_runner, cache_size=0,
            ) as (server, client):
                registered = await client.request(
                    {"op": "register", "instance": payload}
                )
                response = await client.request({
                    "op": "color", "method": "randomized", "seed": 1,
                    "epsilon": EPSILON,
                    "instance_hash": registered["instance_hash"],
                })
                assert response["ok"] is False
                assert response["error"]["code"] == "internal"
                assert server.pool_rebuilds >= 1
                health = await client.request({"op": "health"})
                assert health["ok"]

        asyncio.run(scenario())


class TestOps:
    def test_status_health_metrics(self, tmp_path, payload):
        async def scenario():
            async with serving(tmp_path) as (_, client):
                health = await client.request({"op": "health"})
                assert health["status"] == "ok"
                await client.request({
                    "op": "color", "method": "deterministic",
                    "epsilon": EPSILON, "instance": payload,
                })
                status = await client.request({"op": "status"})
                assert status["state"] == "accepting"
                assert status["admitted_total"] == 1
                assert status["cache"]["misses"] == 1
                assert status["batches"]["dispatched"] == 1
                metrics = await client.request({"op": "metrics"})
                counters = metrics["metrics"]["counters"]
                assert counters["serve.completed"] == 1
                assert counters["serve.cache_miss"] == 1
                # Pressure gauges: sampled at answer time, so an idle
                # server reports zero for both, and the gauges always
                # mirror the status fields they are sampled from.
                gauges = metrics["metrics"]["gauges"]
                assert gauges["serve.in_flight"] == 0.0
                assert gauges["serve.queue_depth"] == 0.0
                assert gauges["serve.in_flight"] == float(
                    metrics["server"]["depth"]
                )
                assert gauges["serve.queue_depth"] == float(
                    metrics["server"]["queued"]
                )

        asyncio.run(scenario())

    def test_counters_stay_with_their_server(self, tmp_path, payload):
        # Two servers in one process: a register sent to the first is
        # counted by the first only, whichever of them started last.
        async def counters(client):
            metrics = await client.request({"op": "metrics"})
            return metrics["metrics"]["counters"]

        async def scenario():
            (tmp_path / "a").mkdir()
            (tmp_path / "b").mkdir()
            async with serving(tmp_path / "a") as (_, a), \
                    serving(tmp_path / "b") as (_, b):
                registered = await a.request(
                    {"op": "register", "instance": payload}
                )
                assert registered["ok"], registered
                assert (await counters(a)).get("serve.register", 0) == 1
                assert (await counters(b)).get("serve.register", 0) == 0

        asyncio.run(scenario())

    def test_metrics_in_flight_gauge_sees_pressure(self, tmp_path, payload):
        """The in_flight gauge reflects admitted-but-unfinished work."""
        release = threading.Event()

        def stalling_runner(specs, instances, registered):
            release.wait(timeout=10.0)
            return execute_batch(specs, instances, registered)

        async def scenario():
            async with serving(
                tmp_path, batch_runner=stalling_runner
            ) as (_, client):
                task = asyncio.create_task(client.request({
                    "op": "color", "method": "deterministic",
                    "epsilon": EPSILON, "instance": payload,
                }))
                try:
                    for _ in range(200):
                        metrics = await client.request({"op": "metrics"})
                        gauges = metrics["metrics"]["gauges"]
                        if gauges.get("serve.in_flight", 0.0) >= 1.0:
                            break
                        await asyncio.sleep(0.01)
                    else:
                        raise AssertionError(
                            "in_flight gauge never saw the stalled request"
                        )
                finally:
                    release.set()
                response = await task
                assert response["ok"] is True
                metrics = await client.request({"op": "metrics"})
                assert metrics["metrics"]["gauges"]["serve.in_flight"] == 0.0

        asyncio.run(scenario())

    def test_disk_cache_survives_server_restart(self, tmp_path, payload):
        cache_dir = str(tmp_path / "results")

        async def first_run():
            async with serving(
                tmp_path, cache_dir=cache_dir
            ) as (_, client):
                response = await client.request({
                    "op": "color", "method": "deterministic",
                    "epsilon": EPSILON, "instance": payload,
                })
                assert response["cached"] is False
                return response["result"]["colors"]

        async def second_run():
            async with serving(
                tmp_path, cache_dir=cache_dir
            ) as (_, client):
                response = await client.request({
                    "op": "color", "method": "deterministic",
                    "epsilon": EPSILON, "instance": payload,
                })
                assert response["cached"] is True
                return response["result"]["colors"]

        assert asyncio.run(first_run()) == asyncio.run(second_run())

    def test_register_requires_instance(self, tmp_path):
        async def scenario():
            async with serving(tmp_path) as (_, client):
                response = await client.request({"op": "register"})
                assert response["ok"] is False
                assert response["error"]["code"] == "bad_request"

        asyncio.run(scenario())

    def test_baseline_method(self, tmp_path, payload):
        async def scenario():
            async with serving(tmp_path) as (_, client):
                response = await client.request({
                    "op": "color", "method": "baseline-dplus1",
                    "instance": payload,
                })
                assert response["ok"]
                assert response["result"]["num_colors"] == payload["delta"] + 1

        asyncio.run(scenario())


class TestEncodingRoundTrip:
    def test_responses_are_single_json_lines(self, tmp_path, payload):
        async def scenario():
            async with serving(tmp_path) as (server, _):
                reader, writer = await asyncio.open_unix_connection(
                    server.config.unix_path
                )
                writer.write(json.dumps({
                    "op": "color", "id": 9, "method": "deterministic",
                    "epsilon": EPSILON, "instance": payload,
                }).encode() + b"\n")
                await writer.drain()
                line = await reader.readline()
                assert line.endswith(b"\n")
                body = json.loads(line)
                assert body["id"] == 9 and body["ok"]
                writer.close()
                await writer.wait_closed()

        asyncio.run(scenario())
