"""Tests for repro.serve.client: backoff, reconnects, timeouts, health."""

from __future__ import annotations

import asyncio
import gc
import json
import logging
import socket
import time
from contextlib import asynccontextmanager

import pytest

from repro.graphs import hard_clique_graph
from repro.serve import (
    ClientError,
    ColoringServer,
    Endpoint,
    ResilientClient,
    RetryPolicy,
    ServeClient,
    ServeConfig,
)
from repro.serve.client import PROBE_DOWN_AFTER

#: Every test here runs under Python 3.12.1's ``Server.wait_closed``.
pytestmark = pytest.mark.usefixtures("wait_closed_3121")

EPSILON = 0.25


@pytest.fixture(scope="module")
def payload():
    instance = hard_clique_graph(16, 8, seed=3)
    return {
        "n": instance.n,
        "edges": [list(edge) for edge in instance.network.edges()],
        "delta": instance.delta,
        "uids": list(instance.network.uids),
    }


def fast_runner(specs, instances, registered):
    return [
        {"key": spec["key"], "result": {"colors": [0], "num_colors": 1}}
        for spec in specs
    ]


def slow_runner(specs, instances, registered):
    time.sleep(0.25)
    return [
        {"key": spec["key"], "result": {"colors": [1], "num_colors": 1}}
        for spec in specs
    ]


@asynccontextmanager
async def one_server(tmp_path, name, **overrides):
    options = {"jobs": 0, "linger_ms": 0.0, "batch_runner": fast_runner}
    options.update(overrides)
    config = ServeConfig(unix_path=str(tmp_path / f"{name}.sock"), **options)
    server = ColoringServer(config)
    await server.start()
    try:
        yield server
    finally:
        await server.close()


def color_body(payload, seed=1):
    return {
        "op": "color", "method": "randomized", "epsilon": EPSILON,
        "seed": seed, "instance": dict(payload), "include_colors": True,
    }


# ----------------------------------------------------------------------
# The reference client
# ----------------------------------------------------------------------


class TestServeClient:
    def test_failed_write_leaves_no_unretrieved_future(
        self, tmp_path, caplog
    ):
        # The server answers one request, then closes.  The next request
        # fails on the dead connection; no future of it may linger for
        # close() to fail unobserved ("Future exception was never
        # retrieved").
        sock = str(tmp_path / "once.sock")

        async def answer_once(reader, writer):
            request = json.loads(await reader.readline())
            writer.write(
                json.dumps({"id": request["id"], "ok": True}).encode() + b"\n"
            )
            await writer.drain()
            writer.close()

        async def scenario():
            server = await asyncio.start_unix_server(answer_once, path=sock)
            client = ServeClient(unix_path=sock)
            await client.connect()
            try:
                assert (await client.request({"op": "health"}))["ok"]
                while not client._reader_task.done():  # the server's EOF
                    await asyncio.sleep(0.005)
                with pytest.raises((ConnectionError, OSError)):
                    await client.request({"op": "health"})
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            asyncio.run(scenario())
            gc.collect()  # a leaked future reports itself when collected
        assert "never retrieved" not in caplog.text


# ----------------------------------------------------------------------
# Endpoint specs
# ----------------------------------------------------------------------


class TestEndpoint:
    def test_parse_tcp(self):
        endpoint = Endpoint.parse("10.0.0.7:9001")
        assert (endpoint.host, endpoint.port) == ("10.0.0.7", 9001)
        assert endpoint.unix_path is None
        assert endpoint.label == "10.0.0.7:9001"

    def test_parse_bare_port_defaults_host(self):
        assert Endpoint.parse(":9001").host == "127.0.0.1"

    def test_parse_unix(self):
        endpoint = Endpoint.parse("unix:/tmp/serve.sock")
        assert endpoint.unix_path == "/tmp/serve.sock"
        assert endpoint.label == "unix:/tmp/serve.sock"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ClientError):
            Endpoint.parse("not-an-endpoint")
        with pytest.raises(ClientError):
            Endpoint.parse("unix:")


# ----------------------------------------------------------------------
# Seeded backoff schedules
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_same_seed_same_schedule(self):
        a = RetryPolicy(attempts=5, seed=7)
        b = RetryPolicy(attempts=5, seed=7)
        for call_index in range(4):
            assert a.delays(call_index) == b.delays(call_index)

    def test_different_seed_different_schedule(self):
        assert (
            RetryPolicy(attempts=5, seed=1).delays(0)
            != RetryPolicy(attempts=5, seed=2).delays(0)
        )

    def test_different_call_index_different_jitter(self):
        policy = RetryPolicy(attempts=5, seed=7)
        assert policy.delays(0) != policy.delays(1)

    def test_exponential_shape_and_bounds(self):
        policy = RetryPolicy(
            attempts=6, base_delay_s=0.1, multiplier=2.0,
            max_delay_s=0.4, jitter=0.5, seed=0,
        )
        delays = policy.delays(0)
        assert len(delays) == 5
        for i, delay in enumerate(delays):
            base = min(0.4, 0.1 * 2.0**i)
            assert base <= delay <= base * 1.5

    def test_single_attempt_has_no_delays(self):
        assert RetryPolicy(attempts=1).delays(0) == []

    def test_validation(self):
        with pytest.raises(ClientError):
            RetryPolicy(attempts=0)
        with pytest.raises(ClientError):
            RetryPolicy(jitter=-1)


# ----------------------------------------------------------------------
# End-to-end: reconnect, timeout, exhaustion
# ----------------------------------------------------------------------


class TestResilientClientEndToEnd:
    def test_single_endpoint_drop_in(self, tmp_path, payload):
        async def scenario():
            async with one_server(tmp_path, "a") as server:
                client = ResilientClient(unix_path=server.config.unix_path)
                await client.connect()
                try:
                    response = await client.request({"op": "health"})
                    assert response["ok"] and response["status"] == "ok"
                    outcome = await client.call(color_body(payload))
                    assert outcome.ok and not outcome.retried
                    assert outcome.attempts == 1
                    assert outcome.latency_ms > 0
                finally:
                    await client.close()

        asyncio.run(scenario())

    def test_reconnects_after_reset(self, tmp_path, payload):
        async def scenario():
            async with one_server(tmp_path, "c") as server:
                client = ResilientClient(
                    unix_path=server.config.unix_path,
                    retry=RetryPolicy(attempts=2, base_delay_s=0.0),
                )
                await client.connect()
                try:
                    assert (await client.call(color_body(payload, seed=1))).ok
                    # Kill the transport under the client's feet.
                    connection = client._connection
                    connection._writer.transport.abort()
                    await asyncio.sleep(0.05)
                    assert connection.closed
                    outcome = await client.call(color_body(payload, seed=2))
                    assert outcome.ok
                    assert client.reconnects == 1
                finally:
                    await client.close()

        asyncio.run(scenario())

    def test_timeout_then_unavailable(self, tmp_path, payload):
        async def scenario():
            async with one_server(
                tmp_path, "stall", batch_runner=slow_runner, cache_size=0,
            ) as server:
                client = ResilientClient(
                    unix_path=server.config.unix_path,
                    retry=RetryPolicy(attempts=1),
                    request_timeout_s=0.05,
                )
                await client.connect()
                try:
                    outcome = await client.call(color_body(payload))
                    assert not outcome.ok
                    assert outcome.body["error"]["code"] == "unavailable"
                    assert "timeout" in outcome.body["error"]["message"]
                finally:
                    await client.close()

        asyncio.run(scenario())

    def test_unreachable_everywhere_returns_unavailable(self, tmp_path):
        async def scenario():
            client = ResilientClient(
                unix_path=str(tmp_path / "void.sock"),
                retry=RetryPolicy(attempts=2, base_delay_s=0.0),
            )
            outcome = await client.call({"op": "health"})
            assert not outcome.ok
            assert outcome.body["error"]["code"] == "unavailable"
            assert outcome.attempts == 2
            await client.close()

        asyncio.run(scenario())

    def test_drain_is_never_retried_on_reset(self):
        retryable = ResilientClient._retryable
        assert retryable("drain", "reset", None) is False
        assert retryable("drain", "connect", None) is True
        assert retryable("color", "reset", None) is True
        assert retryable("color", "timeout", None) is True
        shed = {"ok": False, "error": {"code": "shed"}}
        assert retryable("color", None, shed) is True
        bad = {"ok": False, "error": {"code": "bad_request"}}
        assert retryable("color", None, bad) is False


# ----------------------------------------------------------------------
# Health probing
# ----------------------------------------------------------------------


class TestProbe:
    def test_ok_then_draining_once_the_server_drains(self, tmp_path):
        async def scenario():
            async with one_server(tmp_path, "p") as server:
                client = ResilientClient(unix_path=server.config.unix_path)
                try:
                    assert await client.probe(1.0) == "ok"
                    server.admission.begin_drain()
                    assert await client.probe(1.0) == "draining"
                    assert client.status == "draining"
                finally:
                    await client.close()

        asyncio.run(scenario())

    def test_a_probe_of_a_hung_endpoint_is_one_attempt(self, tmp_path):
        # The endpoint accepts and never answers.  However many attempts
        # the retry policy gives other requests, a probe makes one, so
        # its timeout bounds it.
        async def hang(reader, writer):
            await reader.read()
            writer.close()

        async def scenario():
            path = str(tmp_path / "hung.sock")
            server = await asyncio.start_unix_server(hang, path=path)
            client = ResilientClient(
                unix_path=path, retry=RetryPolicy(attempts=3)
            )
            try:
                loop = asyncio.get_running_loop()
                started = loop.time()
                assert await client.probe(0.3) == "ok"
                assert loop.time() - started < 1.5 * 0.3
                assert client._failures == 1
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_down_after_consecutive_failures_and_back_on_one_answer(
        self, tmp_path
    ):
        async def scenario():
            client = ResilientClient(
                unix_path=str(tmp_path / "p.sock"),
                retry=RetryPolicy(attempts=1),
            )
            try:
                for _ in range(PROBE_DOWN_AFTER - 1):
                    assert await client.probe(1.0) == "ok"
                assert await client.probe(1.0) == "down"
                async with one_server(tmp_path, "p"):
                    assert await client.probe(1.0) == "ok"
            finally:
                await client.close()

        asyncio.run(scenario())

    def test_a_dead_endpoint_answered_again_gets_its_next_request(
        self, tmp_path
    ):
        # Status is the endpoint's only health state: once an answer
        # clears the failures, nothing else refuses the next request.
        async def scenario():
            client = ResilientClient(
                unix_path=str(tmp_path / "p.sock"),
                retry=RetryPolicy(attempts=1),
            )
            try:
                for _ in range(4):
                    body = await client.request({"op": "health"})
                    assert body["error"]["code"] == "unavailable"
                async with one_server(tmp_path, "p"):
                    client.note_answer()
                    assert client.status == "ok"
                    outcome = await client.call({"op": "health"})
                    assert outcome.attempts >= 1
                    assert outcome.ok, outcome.body
            finally:
                await client.close()

        asyncio.run(scenario())

    def test_refused_unix_connect_is_down_at_once(self, tmp_path):
        # A socket file nothing listens on is what a killed server
        # leaves behind: the first refused connect convicts, and an
        # answer from a restarted server brings the endpoint back.
        path = tmp_path / "p.sock"
        orphan = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        orphan.bind(str(path))
        orphan.close()

        async def scenario():
            client = ResilientClient(
                unix_path=str(path), retry=RetryPolicy(attempts=1)
            )
            try:
                body = await client.request({"op": "health"})
                assert body["error"]["code"] == "unavailable"
                assert client.status == "down"
                path.unlink()
                async with one_server(tmp_path, "p"):
                    assert await client.probe(1.0) == "ok"
            finally:
                await client.close()

        asyncio.run(scenario())
