"""Protocol fuzzing and slowloris-defense tests for the NDJSON front end.

The contract under attack traffic: every malformed input gets a
canonical ``bad_request``/``unsupported`` error body or a clean close —
never an unhandled exception — and the tier keeps serving well-formed
clients afterwards.  Each test runs against a server and, in the
``TestRouter*`` subclasses, against a router over one in-process shard:
both tiers share one front end (:mod:`repro.serve.frontend`).
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from contextlib import asynccontextmanager
from dataclasses import fields
from functools import partial

import pytest

from repro.graphs import hard_clique_graph
from repro.serve import (
    DEFAULT_IDLE_TIMEOUT_S,
    ColoringServer,
    FleetRouter,
    RouterConfig,
    ServeConfig,
)

@pytest.fixture(scope="module")
def payload():
    instance = hard_clique_graph(16, 8, seed=3)
    return {
        "n": instance.n,
        "edges": [list(edge) for edge in instance.network.edges()],
        "delta": instance.delta,
        "uids": list(instance.network.uids),
    }


@asynccontextmanager
async def serve_tier(tmp_path, **overrides):
    options = {"jobs": 0, "linger_ms": 1.0}
    options.update(overrides)
    config = ServeConfig(unix_path=str(tmp_path / "serve.sock"), **options)
    server = ColoringServer(config)
    await server.start()
    try:
        yield server, config
    finally:
        await server.close()


_ROUTER_KNOBS = {field.name for field in fields(RouterConfig)}


@asynccontextmanager
async def route_tier(tmp_path, **overrides):
    """A router over one in-process shard.  An override goes to the
    router when it has that knob (``idle_timeout_s``), else to the
    shard (``batch_runner``, ``cache_size``, ...)."""
    router_options = {"probe_interval_s": 0.0}
    router_options.update(
        (name, value) for name, value in overrides.items()
        if name in _ROUTER_KNOBS
    )
    shard_options = {
        name: value for name, value in overrides.items()
        if name not in _ROUTER_KNOBS
    }
    async with serve_tier(tmp_path, **shard_options) as (_, shard_config):
        config = RouterConfig(
            shards=(f"unix:{shard_config.unix_path}",),
            unix_path=str(tmp_path / "router.sock"),
            **router_options,
        )
        router = FleetRouter(config)
        await router.start()
        try:
            yield router, config
        finally:
            await router.close()


async def raw_connection(config):
    return await asyncio.open_unix_connection(config.unix_path)


async def send_line(writer, reader, data: bytes) -> dict:
    writer.write(data)
    await writer.drain()
    return json.loads(await reader.readline())


async def server_still_serves(config) -> None:
    """The canary: a well-formed health check on a fresh connection."""
    reader, writer = await raw_connection(config)
    try:
        response = await send_line(writer, reader, b'{"op": "health"}\n')
        assert response["ok"] and response["status"] == "ok"
    finally:
        writer.close()
        await writer.wait_closed()


def slow_runner(specs, instances, registered):
    time.sleep(0.3)
    return [
        {"key": spec["key"], "result": {"colors": [0], "num_colors": 1}}
        for spec in specs
    ]


# ----------------------------------------------------------------------
# Malformed frames
# ----------------------------------------------------------------------


class TestProtocolFuzz:
    @pytest.fixture
    def serving(self):
        return serve_tier
    def test_binary_garbage_gets_bad_request(self, tmp_path, serving):
        async def scenario():
            async with serving(tmp_path) as (server, config):
                reader, writer = await raw_connection(config)
                try:
                    response = await send_line(
                        writer, reader, b"\xde\xad\xbe\xef\x00\xff\n"
                    )
                    assert response["ok"] is False
                    assert response["error"]["code"] == "bad_request"
                finally:
                    writer.close()
                    await writer.wait_closed()
                await server_still_serves(config)

        asyncio.run(scenario())

    def test_truncated_frame_then_disconnect_is_clean(self, tmp_path, serving):
        async def scenario():
            async with serving(tmp_path) as (server, config):
                reader, writer = await raw_connection(config)
                # Half a JSON object, no newline, then vanish.
                writer.write(b'{"op": "color", "method": "rand')
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                await server_still_serves(config)

        asyncio.run(scenario())

    def test_mid_request_reset_is_clean(self, tmp_path, serving):
        async def scenario():
            async with serving(tmp_path) as (server, config):
                reader, writer = await raw_connection(config)
                writer.write(b'{"op": "status"')
                await writer.drain()
                writer.transport.abort()  # RST, not FIN
                await asyncio.sleep(0.05)
                await server_still_serves(config)

        asyncio.run(scenario())

    def test_oversized_line_is_refused_not_buffered(self, tmp_path, serving):
        async def scenario():
            async with serving(tmp_path) as (server, config):
                reader, writer = await raw_connection(config)
                try:
                    # Past MAX_LINE_BYTES (32 MiB) without a newline: the
                    # stream limit trips and the server must answer with
                    # a canonical error, not eat unbounded memory.
                    chunk = b'{"op": "color", "pad": "' + b"x" * (1 << 20)
                    for _ in range(33):
                        writer.write(chunk)
                        await writer.drain()
                    response = json.loads(
                        await asyncio.wait_for(reader.readline(), 10)
                    )
                    assert response["ok"] is False
                    assert response["error"]["code"] == "bad_request"
                    assert "line" in response["error"]["message"]
                except (ConnectionError, OSError):
                    pass  # a clean close mid-write is acceptable too
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass
                await server_still_serves(config)

        asyncio.run(scenario())

    def test_seeded_garbage_stream_never_kills_the_server(
        self, tmp_path, serving
    ):
        """Seeded fuzz: 100 random byte lines; every answered line is a
        canonical error and the server survives the whole barrage."""
        rng = random.Random(1234)
        lines = [
            bytes(
                rng.randrange(1, 256)  # no embedded newlines
                if rng.random() < 0.8 else rng.randrange(32, 127)
                for _ in range(rng.randrange(1, 200))
            ).replace(b"\n", b" ") + b"\n"
            for _ in range(100)
        ]

        async def scenario():
            async with serving(tmp_path) as (server, config):
                reader, writer = await raw_connection(config)
                try:
                    for line in lines:
                        writer.write(line)
                    await writer.drain()
                    answered = 0
                    while answered < len(lines):
                        raw = await asyncio.wait_for(reader.readline(), 5)
                        if not raw:
                            break  # server may close on a hostile stream
                        response = json.loads(raw)
                        assert response["ok"] is False
                        assert response["error"]["code"] in (
                            "bad_request", "unsupported"
                        )
                        answered += 1
                    assert answered > 0
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass
                await server_still_serves(config)

        asyncio.run(scenario())

    def test_valid_json_wrong_shape_gets_bad_request(self, tmp_path, serving):
        cases = [b"[1, 2, 3]\n", b'"a string"\n', b"42\n", b'{"no": "op"}\n']

        async def scenario():
            async with serving(tmp_path) as (server, config):
                reader, writer = await raw_connection(config)
                try:
                    for case in cases:
                        response = await send_line(writer, reader, case)
                        assert response["ok"] is False
                        assert response["error"]["code"] == "bad_request"
                finally:
                    writer.close()
                    await writer.wait_closed()
                await server_still_serves(config)

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Slowloris defense (idle read timeout)
# ----------------------------------------------------------------------


class TestIdleTimeout:
    @pytest.fixture
    def serving(self):
        return serve_tier

    @pytest.fixture
    def make_config(self):
        return ServeConfig
    def test_defaults_off_on_unix_on_for_tcp(
        self, tmp_path, make_config
    ):
        unix = make_config(unix_path=str(tmp_path / "s.sock"))
        assert unix.resolved_idle_timeout is None
        tcp = make_config(port=0)
        assert tcp.resolved_idle_timeout == DEFAULT_IDLE_TIMEOUT_S
        explicit_off = make_config(port=0, idle_timeout_s=0)
        assert explicit_off.resolved_idle_timeout is None
        explicit_on = make_config(
            unix_path=str(tmp_path / "s.sock"), idle_timeout_s=2.5
        )
        assert explicit_on.resolved_idle_timeout == 2.5

    def test_rejects_negative(self, tmp_path, make_config):
        with pytest.raises(ValueError, match="idle_timeout_s"):
            make_config(idle_timeout_s=-1)

    def test_silent_connection_is_reaped_with_canonical_error(
        self, tmp_path, serving
    ):
        async def scenario():
            async with serving(tmp_path, idle_timeout_s=0.1) as (
                server, config,
            ):
                reader, writer = await raw_connection(config)
                try:
                    raw = await asyncio.wait_for(reader.readline(), 5)
                    response = json.loads(raw)
                    assert response["ok"] is False
                    assert response["error"]["code"] == "idle_timeout"
                    assert await reader.readline() == b""  # then EOF
                finally:
                    writer.close()
                    await writer.wait_closed()
                await server_still_serves(config)

        asyncio.run(scenario())

    def test_connection_waiting_on_in_flight_work_is_not_reaped(
        self, tmp_path, payload, serving
    ):
        """A client that sent a request and is quietly awaiting the
        response must survive idle periods longer than the timeout."""

        async def scenario():
            async with serving(
                tmp_path, idle_timeout_s=0.1, batch_runner=slow_runner,
                cache_size=0, max_batch=1, linger_ms=0.0,
            ) as (server, config):
                reader, writer = await raw_connection(config)
                try:
                    registered = await send_line(
                        writer, reader,
                        json.dumps(
                            {"op": "register", "instance": payload}
                        ).encode() + b"\n",
                    )
                    body = {
                        "op": "color", "method": "randomized", "seed": 1,
                        "epsilon": 0.25,
                        "instance_hash": registered["instance_hash"],
                    }
                    # slow_runner holds this for 0.3s = 3x the idle bound.
                    response = await send_line(
                        writer, reader, json.dumps(body).encode() + b"\n"
                    )
                    assert response["ok"], response
                finally:
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(scenario())

    def test_activity_resets_the_idle_clock(self, tmp_path, serving):
        async def scenario():
            async with serving(tmp_path, idle_timeout_s=0.15) as (
                server, config,
            ):
                reader, writer = await raw_connection(config)
                try:
                    for _ in range(4):  # 0.4s total, each gap < 0.15s
                        await asyncio.sleep(0.1)
                        response = await send_line(
                            writer, reader, b'{"op": "health"}\n'
                        )
                        assert response["ok"]
                finally:
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(scenario())


class TestRouterProtocolFuzz(TestProtocolFuzz):
    @pytest.fixture
    def serving(self):
        return route_tier


class TestRouterIdleTimeout(TestIdleTimeout):
    @pytest.fixture
    def serving(self):
        return route_tier

    @pytest.fixture
    def make_config(self):
        return partial(RouterConfig, shards=("unix:/nowhere.sock",))
