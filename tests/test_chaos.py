"""Tests for repro.serve.chaos: seeded schedules and E2E fault injection."""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager

import pytest

from repro.errors import ReproError
from repro.graphs import hard_clique_graph
from repro.serve import (
    ChaosPlan,
    ChaosProxy,
    ColoringServer,
    Endpoint,
    ResilientClient,
    RetryPolicy,
    ServeConfig,
    fault_schedule,
)

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


@asynccontextmanager
async def proxied_server(tmp_path, plan, **server_overrides):
    """A real server with a chaos proxy in front, both on UNIX sockets."""
    options = {"jobs": 0, "linger_ms": 1.0}
    options.update(server_overrides)
    config = ServeConfig(unix_path=str(tmp_path / "upstream.sock"), **options)
    server = ColoringServer(config)
    await server.start()
    proxy = ChaosProxy(
        plan,
        Endpoint(unix_path=config.unix_path),
        unix_path=str(tmp_path / "chaos.sock"),
    )
    await proxy.start()
    try:
        yield server, proxy
    finally:
        await proxy.close()
        await server.close()


# ----------------------------------------------------------------------
# Plan validation and seeded schedules
# ----------------------------------------------------------------------


class TestChaosPlan:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(ReproError):
            ChaosPlan(reset_probability=1.5)
        with pytest.raises(ReproError):
            ChaosPlan(blackhole_probability=-0.1)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ReproError):
            ChaosPlan(latency_ms=-1)
        with pytest.raises(ReproError):
            ChaosPlan(bandwidth_bytes_per_s=0)
        with pytest.raises(ReproError):
            ChaosPlan(chunk_bytes=0)

    def test_as_dict_round_trips(self):
        plan = ChaosPlan(seed=9, reset_probability=0.1, latency_ms=2.0)
        assert ChaosPlan(**plan.as_dict()) == plan


class TestFaultSchedule:
    PLAN = ChaosPlan(
        seed=11, latency_ms=1.0, latency_jitter_ms=3.0,
        latency_probability=0.5, reset_probability=0.1,
        truncate_probability=0.1,
    )

    def test_same_seed_identical_schedule(self):
        copy = ChaosPlan(**self.PLAN.as_dict())
        for connection in range(3):
            for direction in ("c2s", "s2c"):
                assert (
                    fault_schedule(self.PLAN, connection, direction, 50)
                    == fault_schedule(copy, connection, direction, 50)
                )

    def test_schedule_is_a_prefix_stable_stream(self):
        long = fault_schedule(self.PLAN, 0, "c2s", 50)
        short = fault_schedule(self.PLAN, 0, "c2s", 10)
        assert long[:10] == short

    def test_different_seed_differs(self):
        other = ChaosPlan(**{**self.PLAN.as_dict(), "seed": 12})
        assert (
            fault_schedule(self.PLAN, 0, "c2s", 50)
            != fault_schedule(other, 0, "c2s", 50)
        )

    def test_directions_and_connections_are_independent_streams(self):
        assert (
            fault_schedule(self.PLAN, 0, "c2s", 50)
            != fault_schedule(self.PLAN, 0, "s2c", 50)
        )
        assert (
            fault_schedule(self.PLAN, 0, "c2s", 50)
            != fault_schedule(self.PLAN, 1, "c2s", 50)
        )

    def test_fault_rates_match_plan_roughly(self):
        schedule = fault_schedule(self.PLAN, 0, "c2s", 2000)
        # Reset/truncate terminate a real pump, but the offline stream
        # keeps rolling; rates must track the configured probabilities.
        resets = sum(1 for fault in schedule if fault.action == "reset")
        assert 0.05 < resets / len(schedule) < 0.2

    def test_blackhole_roll_is_deterministic(self):
        plan = ChaosPlan(seed=5, blackhole_probability=0.5)
        copy = ChaosPlan(seed=5, blackhole_probability=0.5)
        rolls = [plan.blackholes(i) for i in range(64)]
        assert rolls == [copy.blackholes(i) for i in range(64)]
        assert any(rolls) and not all(rolls)


# ----------------------------------------------------------------------
# End-to-end through the proxy
# ----------------------------------------------------------------------


async def register_then_bodies(client, payload, count):
    """Register the instance (with retries) and build small hash-keyed
    color bodies — steady-state requests must fit one proxy chunk so
    fault rates stay per-request, not per-kilobyte."""
    registered = await client.request({"op": "register", "instance": dict(payload)})
    assert registered.get("ok"), registered
    return [
        {
            "op": "color", "method": "randomized", "epsilon": EPSILON,
            "seed": 1000 + i, "instance_hash": registered["instance_hash"],
            "include_colors": True,
        }
        for i in range(count)
    ]


class TestChaosProxyEndToEnd:
    def test_clean_plan_forwards_transparently(self, tmp_path, payload):
        async def scenario():
            async with proxied_server(tmp_path, ChaosPlan(seed=0)) as (
                server, proxy,
            ):
                client = ResilientClient(unix_path=proxy.unix_path)
                await client.connect()
                try:
                    response = await client.request({"op": "health"})
                    assert response["ok"]
                finally:
                    await client.close()
                assert proxy.connections == 1
                assert proxy.resets == 0 and proxy.truncations == 0
                assert proxy.bytes_forwarded > 0

        asyncio.run(scenario())

    def test_fault_log_matches_offline_schedule(self, tmp_path, payload):
        plan = ChaosPlan(
            seed=21, latency_ms=0.1, latency_jitter_ms=0.2,
            latency_probability=0.5, chunk_bytes=512,
        )

        async def scenario():
            async with proxied_server(tmp_path, plan) as (server, proxy):
                client = ResilientClient(unix_path=proxy.unix_path)
                await client.connect()
                try:
                    bodies = await register_then_bodies(client, payload, 5)
                    for body in bodies:
                        response = await client.request(body)
                        assert response["ok"]
                finally:
                    await client.close()
                return list(proxy.fault_log)

        log = asyncio.run(scenario())
        assert log
        for connection in {entry["connection"] for entry in log}:
            for direction in ("c2s", "s2c"):
                observed = [
                    entry for entry in log
                    if entry["connection"] == connection
                    and entry["direction"] == direction
                ]
                predicted = fault_schedule(
                    plan, connection, direction, len(observed)
                )
                for entry, fault in zip(observed, predicted):
                    assert entry["action"] == fault.action
                    assert entry["delay_ms"] == round(fault.delay_ms, 6)

    def test_resets_are_survived_and_responses_identical(
        self, tmp_path, payload
    ):
        """The acceptance bar: every completed response through a lossy
        proxy is byte-identical to the fault-free run — determinism makes
        the retries invisible."""
        plan = ChaosPlan(seed=7, reset_probability=0.05, chunk_bytes=2048)

        async def direct(tmp_path):
            config = ServeConfig(
                unix_path=str(tmp_path / "direct.sock"), jobs=0, linger_ms=1.0
            )
            server = ColoringServer(config)
            await server.start()
            client = ResilientClient(unix_path=config.unix_path)
            await client.connect()
            try:
                bodies = await register_then_bodies(client, payload, 12)
                return [await client.request(body) for body in bodies]
            finally:
                await client.close()
                await server.close()

        async def chaotic(tmp_path):
            async with proxied_server(tmp_path, plan) as (server, proxy):
                client = ResilientClient(
                    unix_path=proxy.unix_path,
                    retry=RetryPolicy(attempts=8, base_delay_s=0.01, seed=3),
                )
                await client.connect()
                try:
                    bodies = await register_then_bodies(client, payload, 12)
                    outcomes = [await client.call(body) for body in bodies]
                finally:
                    await client.close()
                return outcomes, proxy.resets

        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        baseline = asyncio.run(direct(tmp_path / "a"))
        outcomes, resets = asyncio.run(chaotic(tmp_path / "b"))
        assert resets > 0, "plan injected no resets; raise the rate"
        assert any(outcome.retried for outcome in outcomes)
        assert all(outcome.ok for outcome in outcomes)
        for reference, outcome in zip(baseline, outcomes):
            assert outcome.body["result"] == reference["result"]

    def test_truncation_mid_response_is_retried(self, tmp_path, payload):
        plan = ChaosPlan(seed=13, truncate_probability=0.05, chunk_bytes=2048)

        async def scenario():
            async with proxied_server(tmp_path, plan) as (server, proxy):
                client = ResilientClient(
                    unix_path=proxy.unix_path,
                    retry=RetryPolicy(attempts=8, base_delay_s=0.01),
                )
                await client.connect()
                try:
                    bodies = await register_then_bodies(client, payload, 10)
                    outcomes = [await client.call(body) for body in bodies]
                finally:
                    await client.close()
                return outcomes, proxy.truncations

        outcomes, truncations = asyncio.run(scenario())
        assert truncations > 0, "plan injected no truncations; raise the rate"
        assert all(outcome.ok for outcome in outcomes)

    def test_blackholed_connection_times_out_clean(self, tmp_path, payload):
        plan = ChaosPlan(seed=0, blackhole_probability=1.0)

        async def scenario():
            async with proxied_server(tmp_path, plan) as (server, proxy):
                client = ResilientClient(
                    unix_path=proxy.unix_path,
                    retry=RetryPolicy(attempts=2, base_delay_s=0.0),
                    request_timeout_s=0.1,
                )
                outcome = await client.call({"op": "health"})
                await client.close()
                assert not outcome.ok
                assert outcome.body["error"]["code"] == "unavailable"
                assert proxy.blackholed >= 1
                # The upstream server never saw the connection.
                assert server.connections == 0

        asyncio.run(scenario())

    def test_added_latency_slows_but_completes(self, tmp_path, payload):
        plan = ChaosPlan(seed=2, latency_ms=30.0)

        async def scenario():
            loop = asyncio.get_running_loop()
            async with proxied_server(tmp_path, plan) as (server, proxy):
                client = ResilientClient(unix_path=proxy.unix_path)
                await client.connect()
                try:
                    started = loop.time()
                    response = await client.request({"op": "health"})
                    elapsed_ms = (loop.time() - started) * 1000.0
                finally:
                    await client.close()
                assert response["ok"]
                # One chunk each way pays >= 30ms.
                assert elapsed_ms >= 50.0

        asyncio.run(scenario())

    def test_summary_counts(self, tmp_path, payload):
        plan = ChaosPlan(seed=0)

        async def scenario():
            async with proxied_server(tmp_path, plan) as (server, proxy):
                client = ResilientClient(unix_path=proxy.unix_path)
                await client.connect()
                await client.request({"op": "health"})
                await client.close()
                summary = proxy.summary()
                assert summary["connections"] == 1
                assert summary["plan"] == plan.as_dict()

        asyncio.run(scenario())

    def test_close_ends_a_connection_to_a_hung_upstream(self, tmp_path):
        # The upstream neither answers nor closes.  close() must still
        # end the proxied connection: no handler left waiting on the
        # upstream, and its socket closed, which the upstream sees as
        # a failed write.
        async def scenario():
            loop = asyncio.get_running_loop()
            accepted: asyncio.Future = loop.create_future()
            proxy_closed = asyncio.Event()
            closed = asyncio.Event()

            async def upstream_handler(reader, writer):
                accepted.set_result(None)
                await proxy_closed.wait()
                try:
                    while True:
                        writer.write(b"late\n")
                        await writer.drain()
                        await asyncio.sleep(0.01)
                except ConnectionError:
                    closed.set()
                finally:
                    writer.close()

            upstream = await asyncio.start_unix_server(
                upstream_handler, path=str(tmp_path / "upstream.sock")
            )
            proxy = ChaosProxy(
                ChaosPlan(seed=0),
                Endpoint(unix_path=str(tmp_path / "upstream.sock")),
                unix_path=str(tmp_path / "chaos.sock"),
            )
            await proxy.start()
            _, writer = await asyncio.open_unix_connection(proxy.unix_path)
            try:
                await asyncio.wait_for(accepted, 1.0)
                await asyncio.wait_for(proxy.close(), 1.0)
                proxy_closed.set()
                assert not [
                    task for task in asyncio.all_tasks()
                    if task.get_coro().__qualname__ == "Listener._accept"
                ]
                await asyncio.wait_for(closed.wait(), 1.0)
            finally:
                writer.close()
                upstream.close()

        asyncio.run(scenario())

    def test_close_resets_open_connections_upstream(self, tmp_path):
        async def scenario():
            loop = asyncio.get_running_loop()
            accepted: asyncio.Future = loop.create_future()
            upstream_eof: asyncio.Future = loop.create_future()

            async def upstream_handler(reader, writer):
                accepted.set_result(None)
                upstream_eof.set_result(await reader.read())
                writer.close()

            upstream = await asyncio.start_unix_server(
                upstream_handler, path=str(tmp_path / "upstream.sock")
            )
            proxy = ChaosProxy(
                ChaosPlan(seed=0),
                Endpoint(unix_path=str(tmp_path / "upstream.sock")),
                unix_path=str(tmp_path / "chaos.sock"),
            )
            await proxy.start()
            _, writer = await asyncio.open_unix_connection(proxy.unix_path)
            try:
                await asyncio.wait_for(accepted, 1.0)
                await asyncio.wait_for(proxy.close(), 1.0)
                # The proxied connection ends with the proxy: its
                # upstream socket is closed, not leaked.
                assert await asyncio.wait_for(upstream_eof, 1.0) == b""
            finally:
                writer.close()
                upstream.close()

        asyncio.run(scenario())
