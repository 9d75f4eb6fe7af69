"""Tests for the sharded fleet tier: hash ring, router, supervisor.

The in-process tests run several :class:`ColoringServer` instances and
one :class:`FleetRouter` on a single event loop (fast, deterministic);
:class:`TestFleetSubprocess` runs the real thing — ``repro serve``
subprocesses under a :class:`FleetSupervisor` — and kills a shard
mid-run to exercise the crash → re-route → restart → heal path the
in-process harness can only approximate.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import time
from contextlib import asynccontextmanager

import pytest

from repro.errors import ReproError
from repro.graphs import hard_clique_graph
from repro.serve import (
    ColoringServer,
    FleetConfig,
    FleetRouter,
    FleetSupervisor,
    HashRing,
    InstanceRecord,
    InstanceRegistry,
    RouterConfig,
    ServeClient,
    ServeConfig,
    make_cache_key,
    normalize_instance_payload,
)

#: Every test here runs under Python 3.12.1's ``Server.wait_closed``.
pytestmark = pytest.mark.usefixtures("wait_closed_3121")

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
# The hash ring
# ----------------------------------------------------------------------


class TestHashRing:
    NODES = ("unix:/a.sock", "unix:/b.sock", "unix:/c.sock", "unix:/d.sock")

    def test_deterministic_across_instances(self):
        one = HashRing(self.NODES, vnodes=32, seed=7)
        two = HashRing(tuple(reversed(self.NODES)), vnodes=32, seed=7)
        for index in range(50):
            key = f"key-{index}"
            assert one.owners(key) == two.owners(key)
        assert one.ownership() == two.ownership()

    def test_seed_changes_placement(self):
        one = HashRing(self.NODES, vnodes=32, seed=0)
        two = HashRing(self.NODES, vnodes=32, seed=1)
        assert any(
            one.owners(f"key-{i}") != two.owners(f"key-{i}")
            for i in range(50)
        )

    def test_owners_are_distinct_and_bounded(self):
        ring = HashRing(self.NODES, vnodes=16, seed=0)
        owners = ring.owners("some-key")
        assert sorted(owners) == sorted(self.NODES)
        assert ring.owners("some-key", count=2) == owners[:2]
        assert HashRing((), vnodes=16, seed=0).owners("some-key") == []

    def test_remove_then_readd_restores_identical_slots(self):
        ring = HashRing(self.NODES, vnodes=32, seed=3)
        before = {f"key-{i}": ring.owners(f"key-{i}") for i in range(64)}
        ring.remove(self.NODES[1])
        assert self.NODES[1] not in ring
        ring.add(self.NODES[1])
        after = {f"key-{i}": ring.owners(f"key-{i}") for i in range(64)}
        assert before == after

    def test_failover_order_equals_removal(self):
        # The next owner with the primary present must be the owner
        # once the primary is removed: failover and membership change
        # route identically (DESIGN.md §14).
        full = HashRing(self.NODES, vnodes=32, seed=5)
        for index in range(32):
            key = f"key-{index}"
            primary, successor = full.owners(key, count=2)
            without = HashRing(
                tuple(n for n in self.NODES if n != primary),
                vnodes=32, seed=5,
            )
            assert without.owners(key)[0] == successor

    def test_ownership_sums_to_one_and_is_balanced(self):
        ring = HashRing(self.NODES, vnodes=64, seed=0)
        shares = ring.ownership()
        assert sum(shares.values()) == pytest.approx(1.0)
        for share in shares.values():
            assert 0.1 < share < 0.45

    def test_rejects_bad_vnodes(self):
        with pytest.raises(ReproError):
            HashRing(self.NODES, vnodes=0)


# ----------------------------------------------------------------------
# Router + in-process shards
# ----------------------------------------------------------------------


@asynccontextmanager
async def routed(tmp_path, shards=3, per_shard=None, **router_overrides):
    """N in-process shards behind one router, plus a connected client."""
    servers = []
    specs = []
    for index in range(shards):
        options = {"jobs": 0, "linger_ms": 1.0}
        options.update((per_shard or {}).get(index, {}))
        server = ColoringServer(ServeConfig(
            unix_path=str(tmp_path / f"shard-{index}.sock"), **options
        ))
        await server.start()
        servers.append(server)
        specs.append(f"unix:{tmp_path / f'shard-{index}.sock'}")
    options = {"probe_interval_s": 0.0}
    options.update(router_overrides)
    router = FleetRouter(RouterConfig(
        shards=tuple(specs),
        unix_path=str(tmp_path / "router.sock"),
        **options,
    ))
    await router.start()
    client = ServeClient(unix_path=str(tmp_path / "router.sock"))
    await client.connect()
    try:
        yield router, servers, client
    finally:
        await client.close()
        await router.close()
        for server in servers:
            await server.close()


def seeds_owned_by(router, instance_hash, label, count=1):
    """The first ``count`` randomized seeds whose cache key the given
    shard owns."""
    seeds = [
        seed for seed in range(500)
        if router.ring.owners(
            make_cache_key(instance_hash, "randomized", seed, EPSILON, {})
        )[0] == label
    ][:count]
    assert len(seeds) == count, f"too few seeds owned by {label}"
    return seeds


async def crash_shard(router, servers, index):
    """In-process stand-in for a shard crash: stop the listener and
    sever the router's pooled connection so the next dispatch fails."""
    await servers[index].close()
    label = router.shard_labels()[index]
    await router._shards[label].client.close()
    return label


class TestRouterEndToEnd:
    def test_tiers_close_with_an_idle_client_connected(self, tmp_path):
        # From Python 3.12.1 Server.wait_closed waits for every accepted
        # connection, so each tier closes its own before it waits.
        async def scenario():
            async with routed(tmp_path, shards=1) as (router, servers, client):
                shard = ServeClient(unix_path=servers[0].config.unix_path)
                await shard.connect()
                try:
                    assert (await client.request({"op": "health"}))["ok"]
                    assert (await shard.request({"op": "health"}))["ok"]
                    await asyncio.wait_for(router.close(), 1)
                    await asyncio.wait_for(servers[0].close(), 1)
                finally:
                    await shard.close()

        asyncio.run(scenario())

    def test_register_fans_out_to_every_shard(self, tmp_path, payload):
        async def scenario():
            async with routed(tmp_path) as (router, servers, client):
                response = await client.request(
                    {"op": "register", "instance": payload}
                )
                assert response["ok"]
                assert set(response["shards"]) == set(router.shard_labels())
                assert all(response["shards"].values())
                for server in servers:
                    assert response["instance_hash"] in server.registry

        asyncio.run(scenario())

    def test_color_is_byte_identical_to_a_direct_shard(
        self, tmp_path, payload
    ):
        async def scenario():
            async with routed(tmp_path) as (router, servers, client):
                registered = await client.request(
                    {"op": "register", "instance": payload}
                )
                body = {
                    "op": "color", "method": "randomized", "seed": 9,
                    "epsilon": EPSILON,
                    "instance_hash": registered["instance_hash"],
                }
                via_router = await client.request(dict(body))
                direct_client = ServeClient(
                    unix_path=servers[0].config.unix_path
                )
                await direct_client.connect()
                direct = await direct_client.request(dict(body))
                await direct_client.close()
                assert via_router["ok"] and direct["ok"]
                assert json.dumps(via_router["result"], sort_keys=True) == \
                    json.dumps(direct["result"], sort_keys=True)

        asyncio.run(scenario())

    def test_same_key_routes_to_the_same_shard(self, tmp_path, payload):
        async def scenario():
            async with routed(tmp_path) as (router, servers, client):
                registered = await client.request(
                    {"op": "register", "instance": payload}
                )
                body = {
                    "op": "color", "method": "randomized", "seed": 3,
                    "epsilon": EPSILON,
                    "instance_hash": registered["instance_hash"],
                }
                first = await client.request(dict(body))
                second = await client.request(dict(body))
                assert first["ok"] and second["ok"]
                assert second["cached"] is True  # same shard, warm cache

        asyncio.run(scenario())

    def test_crash_reroutes_with_byte_identical_response(
        self, tmp_path, payload
    ):
        async def scenario():
            async with routed(tmp_path) as (router, servers, client):
                registered = await client.request(
                    {"op": "register", "instance": payload}
                )
                label = router.shard_labels()[0]
                (seed,) = seeds_owned_by(
                    router, registered["instance_hash"], label
                )
                body = {
                    "op": "color", "method": "randomized", "seed": seed,
                    "epsilon": EPSILON,
                    "instance_hash": registered["instance_hash"],
                }
                before = await client.request(dict(body))
                assert before["ok"]
                await crash_shard(router, servers, 0)
                after = await client.request(dict(body))
                assert after["ok"]
                assert json.dumps(after["result"], sort_keys=True) == \
                    json.dumps(before["result"], sort_keys=True)
                assert router.rerouted >= 1
                assert label not in router.ring

        asyncio.run(scenario())

    def test_fleet_op_reflects_crash_and_breaker_state(
        self, tmp_path, payload
    ):
        async def scenario():
            async with routed(tmp_path) as (router, servers, client):
                registered = await client.request(
                    {"op": "register", "instance": payload}
                )
                healthy = await client.request({"op": "fleet"})
                assert healthy["ok"]
                assert set(healthy["shards"]) == set(router.shard_labels())
                total = sum(
                    shard["ownership"]
                    for shard in healthy["shards"].values()
                )
                assert total == pytest.approx(1.0, abs=0.01)
                label = await crash_shard(router, servers, 0)
                (seed,) = seeds_owned_by(
                    router, registered["instance_hash"], label
                )
                await client.request({
                    "op": "color", "method": "randomized", "seed": seed,
                    "epsilon": EPSILON,
                    "instance_hash": registered["instance_hash"],
                })
                report = await client.request({"op": "fleet"})
                crashed = report["shards"][label]
                assert crashed["state"] == "down"
                assert crashed["in_ring"] is False
                alive = [
                    shard for name, shard in report["shards"].items()
                    if name != label
                ]
                assert all(shard["in_ring"] for shard in alive)
                assert label not in report["ring"]["members"]

        asyncio.run(scenario())

    def test_restarted_shard_serves_its_next_key_after_a_probe(
        self, tmp_path, payload
    ):
        # The supervisor's path: probes take a dead shard out, it comes
        # back on the same socket, a probe's ok puts it in the ring.
        # The failed probes leave nothing behind that refuses its next
        # key.
        async def scenario():
            async with routed(tmp_path) as (router, servers, client):
                registered = await client.request(
                    {"op": "register", "instance": payload}
                )
                label = await crash_shard(router, servers, 0)
                for _ in range(2):
                    await router.probe_once()
                assert label not in router.ring
                servers[0] = ColoringServer(ServeConfig(
                    unix_path=servers[0].config.unix_path,
                    jobs=0, linger_ms=1.0,
                ))
                await servers[0].start()
                assert (await router.probe_once())[label] == "ok"
                assert label in router.ring
                (seed,) = seeds_owned_by(
                    router, registered["instance_hash"], label
                )
                rerouted = router.rerouted
                served = router._shards[label].served
                response = await client.request({
                    "op": "color", "method": "randomized", "seed": seed,
                    "epsilon": EPSILON,
                    "instance_hash": registered["instance_hash"],
                })
                assert response["ok"], response
                assert router._shards[label].served == served + 1
                assert router.rerouted == rerouted
                assert label in router.ring

        asyncio.run(scenario())

    def test_probe_sweep_costs_one_timeout_however_many_shards_hang(
        self, tmp_path, monkeypatch
    ):
        import repro.serve.router as router_module

        monkeypatch.setattr(router_module, "PROBE_TIMEOUT_S", 1.0)

        async def hang(reader, writer):
            # Accept and read, never answer.
            while await reader.read(4096):
                pass
            writer.close()

        async def scenario():
            hung = [
                await asyncio.start_unix_server(
                    hang, path=str(tmp_path / f"hung-{index}.sock")
                )
                for index in range(2)
            ]
            healthy = ColoringServer(ServeConfig(
                unix_path=str(tmp_path / "ok.sock"), jobs=0
            ))
            await healthy.start()
            router = FleetRouter(RouterConfig(
                shards=(
                    f"unix:{tmp_path / 'hung-0.sock'}",
                    f"unix:{tmp_path / 'ok.sock'}",
                    f"unix:{tmp_path / 'hung-1.sock'}",
                ),
                unix_path=str(tmp_path / "router.sock"),
                probe_interval_s=0.0, attempts=1,
            ))
            await router.start()
            try:
                loop = asyncio.get_running_loop()
                started = loop.time()
                states = await router.probe_once()
                elapsed = loop.time() - started
                assert states[f"unix:{tmp_path / 'ok.sock'}"] == "ok"
                assert elapsed < 1.5 * router_module.PROBE_TIMEOUT_S, elapsed
            finally:
                await router.close()
                await healthy.close()
                for server in hung:
                    server.close()

        asyncio.run(scenario())

    def test_inline_color_is_parsed_once_and_forwarded_by_hash(
        self, tmp_path, payload, monkeypatch
    ):
        import repro.serve.server as server_module

        parses = []
        normalize = server_module.normalize_instance_payload

        def counting(body):
            parses.append(1)
            return normalize(body)

        monkeypatch.setattr(
            server_module, "normalize_instance_payload", counting
        )
        body = {
            "id": "inline", "op": "color", "method": "randomized",
            "seed": 4, "epsilon": EPSILON, "no_cache": True,
            "instance": payload,
        }

        async def direct(server):
            direct_client = ServeClient(unix_path=server.config.unix_path)
            await direct_client.connect()
            try:
                return await direct_client.request(dict(body))
            finally:
                await direct_client.close()

        async def scenario():
            async with routed(tmp_path, shards=1) as (router, servers, client):
                registered = await client.request(
                    {"op": "register", "instance": payload}
                )
                assert registered["ok"]
                parses.clear()
                via_router = await client.request(dict(body))
                assert via_router["ok"], via_router
                assert parses == []  # the shard held the graph
                assert router.healed == 0
                assert json.dumps(via_router, sort_keys=True) == \
                    json.dumps(await direct(servers[0]), sort_keys=True)

        asyncio.run(scenario())

    def test_inline_color_reaches_a_shard_without_the_graph_inline(
        self, tmp_path, payload, monkeypatch
    ):
        import repro.serve.server as server_module

        parses = []
        normalize = server_module.normalize_instance_payload

        def counting(body):
            parses.append(1)
            return normalize(body)

        monkeypatch.setattr(
            server_module, "normalize_instance_payload", counting
        )
        body = {
            "id": "inline", "op": "color", "method": "randomized",
            "seed": 4, "epsilon": EPSILON, "no_cache": True,
            "instance": payload,
        }

        async def scenario():
            async with routed(tmp_path, shards=1) as (router, servers, client):
                via_router = await client.request(dict(body))
                assert via_router["ok"], via_router
                # The by-hash send bounced; the inline body went next,
                # so the shard parsed the graph once and nothing was
                # registered.
                assert parses == [1]
                assert router.healed == 0
                assert servers[0].registry.get(
                    via_router["instance_hash"]
                ) == normalize_instance_payload(payload)[1]
                direct_client = ServeClient(
                    unix_path=servers[0].config.unix_path
                )
                await direct_client.connect()
                direct = await direct_client.request(dict(body))
                await direct_client.close()
                assert json.dumps(via_router, sort_keys=True) == \
                    json.dumps(direct, sort_keys=True)

        asyncio.run(scenario())

    def test_inline_colors_survive_a_shard_registry_of_one(
        self, monkeypatch, tmp_path
    ):
        # Interleaved inline requests for different graphs evict each
        # other from the shard's one-slot registry; each must still be
        # answered, as a shard answers an inline request directly.
        import repro.serve.server as server_module

        monkeypatch.setattr(server_module, "REGISTRY_SIZE", 1)
        payloads = []
        for seed in (3, 4, 5):
            graph = hard_clique_graph(16, 8, seed=seed)
            payloads.append({
                "n": graph.n,
                "edges": [list(edge) for edge in graph.network.edges()],
                "delta": graph.delta,
                "uids": list(graph.network.uids),
            })
        hashes = [normalize_instance_payload(p)[0] for p in payloads]
        assert len(set(hashes)) == len(hashes)

        async def scenario():
            async with routed(tmp_path, shards=1) as (router, servers, client):
                requests = [
                    {
                        "id": f"{index}-{seed}", "op": "color",
                        "method": "randomized", "seed": seed,
                        "epsilon": EPSILON, "include_colors": False,
                        "instance": payloads[index],
                    }
                    for seed in range(4)
                    for index in range(len(payloads))
                ]
                responses = await asyncio.gather(*(
                    client.request(request) for request in requests
                ))
                for request, response in zip(requests, responses):
                    assert response["ok"], response
                    index = int(request["id"].split("-")[0])
                    assert response["instance_hash"] == hashes[index]
                assert servers[0].registry.evictions > 0

        asyncio.run(scenario())

    @pytest.mark.parametrize("concurrent", [1, 4])
    def test_unknown_instance_is_healed_from_router_registry(
        self, tmp_path, payload, concurrent
    ):
        class CountingRegistry(InstanceRegistry):
            puts = 0

            def put(self, instance_hash, instance):
                self.puts += 1
                super().put(instance_hash, instance)

        async def scenario():
            async with routed(tmp_path) as (router, servers, client):
                registered = await client.request(
                    {"op": "register", "instance": payload}
                )
                instance_hash = registered["instance_hash"]
                label = router.shard_labels()[0]
                seeds = seeds_owned_by(
                    router, instance_hash, label, concurrent
                )
                # The shard restarts conceptually: registry and memory
                # cache both gone, so every dispatch hits unknown_instance.
                servers[0].registry = wiped = CountingRegistry(8)
                servers[0].cache._entries.clear()
                responses = await asyncio.gather(*(
                    client.request({
                        "op": "color", "method": "randomized", "seed": seed,
                        "epsilon": EPSILON, "instance_hash": instance_hash,
                    })
                    for seed in seeds
                ))
                assert all(response["ok"] for response in responses)
                # However many requests bounced, the graph is sent once.
                assert router.healed == 1 and wiped.puts == 1
                assert instance_hash in wiped

        asyncio.run(scenario())

    @pytest.mark.parametrize("order", ["canonical", "shuffled"])
    def test_heal_renders_the_compact_registry(self, tmp_path, payload, order):
        canonical = normalize_instance_payload(payload)[1]
        if order == "shuffled":
            # Rows follow the client's edge order, which need not be the
            # canonical one: flip some pairs and shuffle the list.
            edges = [
                edge[::-1] if index % 3 == 0 else edge
                for index, edge in enumerate(payload["edges"])
            ]
            random.Random(5).shuffle(edges)
            payload = {**payload, "edges": edges}

        async def scenario():
            async with routed(tmp_path) as (router, servers, client):
                registered = await client.request(
                    {"op": "register", "instance": payload}
                )
                instance_hash = registered["instance_hash"]
                # The router keeps the adjacency record, not the edges.
                stored = router.registry.get(instance_hash)
                assert isinstance(stored, InstanceRecord)
                assert (stored == canonical) == (order == "canonical")
                # The register fan-out gave every shard the same rows.
                assert all(
                    server.registry.get(instance_hash) == stored
                    for server in servers
                )
                label = router.shard_labels()[0]
                (seed,) = seeds_owned_by(router, instance_hash, label)
                servers[0].registry = InstanceRegistry(8)
                servers[0].cache._entries.clear()
                response = await client.request({
                    "op": "color", "method": "randomized", "seed": seed,
                    "epsilon": EPSILON, "instance_hash": instance_hash,
                })
                assert response["ok"], response
                assert response["instance_hash"] == instance_hash
                assert router.healed == 1
                # The rendered payload rebuilt the router's record exactly.
                healed = servers[0].registry.get(instance_hash)
                assert healed == stored

        asyncio.run(scenario())

    def test_heal_under_another_hash_is_an_error(
        self, tmp_path, payload, monkeypatch
    ):
        import repro.serve.server as server_module

        async def scenario():
            async with routed(tmp_path) as (router, servers, client):
                registered = await client.request(
                    {"op": "register", "instance": payload}
                )
                instance_hash = registered["instance_hash"]
                label = router.shard_labels()[0]
                (seed,) = seeds_owned_by(router, instance_hash, label)
                servers[0].registry = InstanceRegistry(8)
                servers[0].cache._entries.clear()
                wrong = "0" * 64
                normalize = server_module.normalize_instance_payload
                monkeypatch.setattr(
                    server_module, "normalize_instance_payload",
                    lambda body: (wrong, normalize(body)[1]),
                )
                response = await client.request({
                    "op": "color", "method": "randomized", "seed": seed,
                    "epsilon": EPSILON, "instance_hash": instance_hash,
                })
                assert not response["ok"]
                message = response["error"]["message"]
                assert instance_hash in message and wrong in message
                assert router.healed == 0

        asyncio.run(scenario())

    def test_draining_shard_leaves_ring_without_dropping_inflight(
        self, tmp_path, payload
    ):
        def slow_runner(specs, instances, registered):
            time.sleep(0.5)
            return [
                {"key": spec["key"],
                 "result": {"colors": [0], "num_colors": 1}}
                for spec in specs
            ]

        async def scenario():
            per_shard = {0: {"batch_runner": slow_runner}}
            async with routed(tmp_path, per_shard=per_shard) as (
                router, servers, client
            ):
                loop = asyncio.get_running_loop()
                registered = await client.request(
                    {"op": "register", "instance": payload}
                )
                label = router.shard_labels()[0]
                (seed,) = seeds_owned_by(
                    router, registered["instance_hash"], label
                )
                inflight = loop.create_task(
                    client.request({
                        "op": "color", "method": "randomized",
                        "seed": seed, "epsilon": EPSILON,
                        "instance_hash": registered["instance_hash"],
                    })
                )
                await asyncio.sleep(0.05)  # let it reach shard 0's runner
                drain_client = ServeClient(
                    unix_path=servers[0].config.unix_path
                )
                await drain_client.connect()
                drain = loop.create_task(
                    drain_client.request({"op": "drain"})
                )
                while not servers[0].admission.draining:
                    await asyncio.sleep(0.005)
                # New work owned by the draining shard is refused there
                # and lands elsewhere, while the first request still runs.
                other = loop.create_task(client.request({
                    "op": "color", "method": "randomized",
                    "seed": seed, "epsilon": EPSILON, "no_cache": True,
                    "instance_hash": registered["instance_hash"],
                }))
                while label in router.ring:
                    await asyncio.sleep(0.005)
                assert not inflight.done()
                # The in-flight request was not dropped by the drain, and
                # its ok answer does not put the draining shard back.
                response = await inflight
                assert response["ok"]
                assert label not in router.ring
                assert (await other)["ok"]
                drained = await drain
                await drain_client.close()
                assert drained["ok"] and drained["drained"]
                assert label not in router.ring

        asyncio.run(scenario())

    def test_aggregated_ops_cover_the_fleet(self, tmp_path, payload):
        async def scenario():
            async with routed(tmp_path, shards=2) as (
                router, servers, client
            ):
                health = await client.request({"op": "health"})
                assert health["ok"] and health["status"] == "ok"
                assert set(health["shards"]) == set(router.shard_labels())
                metrics = await client.request({"op": "metrics"})
                assert "server" in metrics  # the single-server shape
                assert set(metrics["shards"]) == set(router.shard_labels())
                assert "router.requests" in metrics["metrics"]
                status = await client.request({"op": "status"})
                assert status["ok"] and status["state"] == "accepting"
                assert status["ring"]["members"] == sorted(
                    router.shard_labels()
                )

        asyncio.run(scenario())

    def test_single_server_bounces_the_fleet_op(self, tmp_path):
        async def scenario():
            server = ColoringServer(ServeConfig(
                unix_path=str(tmp_path / "solo.sock"), jobs=0
            ))
            await server.start()
            client = ServeClient(unix_path=server.config.unix_path)
            await client.connect()
            try:
                response = await client.request({"op": "fleet"})
                assert response["ok"] is False
                assert response["error"]["code"] == "unsupported"
            finally:
                await client.close()
                await server.close()

        asyncio.run(scenario())

    def test_router_answers_the_cell_op_unsupported(self, tmp_path):
        # Regression: the router fanned a cell op out to every shard as
        # an aggregated read op, then died on it without answering.
        # Campaigns send their cells as color requests; "cell" is no op,
        # and a shard answers it unsupported too.
        async def scenario():
            async with routed(tmp_path, shards=1) as (router, servers, client):
                response = await asyncio.wait_for(
                    client.request({"op": "cell", "id": "cell-1"}), 3
                )
                assert response["id"] == "cell-1"
                assert response["ok"] is False
                assert response["op"] == "cell"
                assert response["error"]["code"] == "unsupported"
                assert servers[0].connections == 0  # nothing reached a shard
                health = await asyncio.wait_for(
                    client.request({"op": "health", "id": "after"}), 3
                )
                assert health["ok"] and health["status"] == "ok"
                shard = ServeClient(unix_path=servers[0].config.unix_path)
                await shard.connect()
                try:
                    response = await asyncio.wait_for(
                        shard.request({"op": "cell", "id": "cell-2"}), 3
                    )
                finally:
                    await shard.close()
                assert response["id"] == "cell-2"
                assert response["op"] == "cell"
                assert response["error"]["code"] == "unsupported"

        asyncio.run(scenario())

    def test_router_drain_op_finishes_inflight_then_stops(
        self, tmp_path, payload
    ):
        async def scenario():
            async with routed(tmp_path, shards=2) as (
                router, servers, client
            ):
                registered = await client.request(
                    {"op": "register", "instance": payload}
                )
                response = await client.request({
                    "op": "color", "method": "randomized", "seed": 1,
                    "epsilon": EPSILON,
                    "instance_hash": registered["instance_hash"],
                })
                assert response["ok"]
                drained = await client.request({"op": "drain"})
                assert drained["ok"] and drained["drained"]
                refused = await client.request({
                    "op": "color", "method": "randomized", "seed": 2,
                    "epsilon": EPSILON,
                    "instance_hash": registered["instance_hash"],
                })
                assert refused["error"]["code"] == "draining"
                await asyncio.wait_for(router.wait_stopped(), 2.0)

        asyncio.run(scenario())

    def test_router_signal_drain_task_is_retained_and_deduplicated(
        self, tmp_path
    ):
        # Regression: the SIGTERM drain task handle must be stored (the
        # event loop only weakly references tasks) and a repeat signal
        # during an in-flight drain must not spawn a second task.
        async def scenario():
            async with routed(tmp_path) as (router, _servers, _client):
                router.shutdown()
                first = router._drain_task
                assert first is not None
                router.shutdown()
                assert router._drain_task is first
                await asyncio.wait_for(router.wait_stopped(), 2.0)

        asyncio.run(scenario())


class TestRouterConfig:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ReproError):
            RouterConfig(shards=())

    def test_rejects_duplicate_shards(self):
        with pytest.raises(ReproError):
            FleetRouter(RouterConfig(
                shards=("unix:/a.sock", "unix:/a.sock")
            ))

    @pytest.mark.parametrize("overrides", [
        {"vnodes": 0},
        {"attempts": 0},
        {"timeout_ms": 0},
        {"timeout_ms": -1},
        {"probe_interval_s": -1},
        {"max_inflight": 0},
        {"idle_timeout_s": -1},
    ])
    def test_rejects_bad_knobs(self, overrides):
        with pytest.raises(ReproError):
            RouterConfig(shards=("unix:/a.sock",), **overrides)


class TestFleetConfig:
    @pytest.mark.parametrize("overrides", [
        {"shards": 0},
        {"jobs": -1},
        {"drain_timeout_s": 0},
        {"max_batch": 0},
        {"max_restarts": -1},
        {"cache_max_bytes": 0},
        {"linger_ms": -1},
        {"max_queue": 0},
        {"cache_size": -1},
        {"cache_dir": "", "cache_max_bytes": 1024},
        {"vnodes": 0},
    ])
    def test_rejects_bad_knobs(self, overrides):
        # Shard and router knobs are checked up front, by the bounds
        # declared on ServeConfig / RouterConfig, not by a shard that
        # exits at boot.
        with pytest.raises(ReproError):
            FleetConfig(**overrides)

    def test_shard_argv_round_trips_through_the_serve_cli(self, tmp_path):
        from repro.cli import _knob_config, build_parser

        config = FleetConfig(
            shards=1,
            runtime_dir=str(tmp_path / "rt"),
            jobs=3,
            max_batch=5,
            linger_ms=0.5,
            max_queue=7,
            cache_size=11,
            cache_dir=str(tmp_path / "cache"),
            cache_max_bytes=4096,
        )
        supervisor = FleetSupervisor(config)
        argv = supervisor._shard_argv(0)
        assert argv[1:4] == ["-m", "repro", "serve"]
        args = build_parser().parse_args(argv[3:])
        shard = _knob_config(ServeConfig, args)
        assert shard == ServeConfig(
            unix_path=str(supervisor.runtime_dir / "shard-0.sock"),
            jobs=3,
            max_batch=5,
            linger_ms=0.5,
            max_queue=7,
            cache_size=11,
            cache_dir=str(tmp_path / "cache"),
            cache_max_bytes=4096,
        )

    def test_router_config_comes_from_the_fleet_knobs(self, tmp_path):
        config = FleetConfig(
            shards=2,
            unix_path=str(tmp_path / "router.sock"),
            runtime_dir=str(tmp_path / "rt"),
            vnodes=8,
            ring_seed=3,
            attempts=4,
            timeout_ms=250.0,
            probe_interval_s=0,
            max_inflight=9,
            idle_timeout_s=1.5,
        )
        router = FleetSupervisor(config).router.config
        assert router == RouterConfig(
            shards=tuple(
                f"unix:{tmp_path / 'rt' / f'shard-{index}.sock'}"
                for index in range(2)
            ),
            unix_path=str(tmp_path / "router.sock"),
            vnodes=8,
            ring_seed=3,
            attempts=4,
            timeout_ms=250.0,
            probe_interval_s=0,
            max_inflight=9,
            idle_timeout_s=1.5,
        )


# ----------------------------------------------------------------------
# The real thing: supervisor + subprocess shards
# ----------------------------------------------------------------------


class TestFleetSubprocess:
    def test_kill_reroute_restart_heal_and_cascade_drain(
        self, monkeypatch, tmp_path, payload
    ):
        import repro.serve.fleet as fleet_module

        monkeypatch.setattr(fleet_module, "MONITOR_INTERVAL_S", 0.05)
        monkeypatch.setattr(fleet_module, "RESTART_BACKOFF_S", 0.05)

        async def scenario():
            config = FleetConfig(
                shards=2,
                unix_path=str(tmp_path / "router.sock"),
                runtime_dir=str(tmp_path / "rt"),
                cache_dir="",  # no disk tier: survivors must recompute
                # No periodic prober: ring membership follows dispatch
                # answers, the supervisor's monitor and the fleet op's
                # probes, so nothing races the reroute below.
                probe_interval_s=0,
            )
            supervisor = FleetSupervisor(config)
            await supervisor.start()
            client = ServeClient(unix_path=config.unix_path)
            await client.connect()
            try:
                registered = await client.request(
                    {"op": "register", "instance": payload}
                )
                assert registered["ok"]
                instance_hash = registered["instance_hash"]
                seeds = list(range(8))
                before = {}
                for seed in seeds:
                    response = await client.request({
                        "op": "color", "method": "randomized",
                        "seed": seed, "epsilon": EPSILON,
                        "instance_hash": instance_hash,
                    })
                    assert response["ok"]
                    before[seed] = response["result"]

                router = supervisor.router
                label = router.shard_labels()[0]
                (owned,) = seeds_owned_by(router, instance_hash, label)
                shard = router._shards[label]
                dispatched = shard.dispatched
                victim = supervisor.shard_pid(0)
                # A stopped shard is alive to the monitor and stays in the
                # ring, so a key it owns is dispatched to it for certain;
                # killing it then fails that dispatch over to the next
                # owner, which the router counts as a reroute.
                os.kill(victim, signal.SIGSTOP)
                pending = asyncio.ensure_future(client.request({
                    "op": "color", "method": "randomized",
                    "seed": owned, "epsilon": EPSILON,
                    "instance_hash": instance_hash,
                }))
                deadline = asyncio.get_running_loop().time() + 30.0
                while shard.dispatched == dispatched:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)
                os.kill(victim, signal.SIGKILL)
                response = await pending
                assert response["ok"]
                assert json.dumps(response["result"], sort_keys=True) \
                    == json.dumps(before[owned], sort_keys=True)
                assert router.rerouted >= 1
                # Every seed still answers, byte-identically: keys owned
                # by the dead shard re-route to the next ring owner,
                # which recomputes the same pure function.
                for seed in seeds:
                    response = await client.request({
                        "op": "color", "method": "randomized",
                        "seed": seed, "epsilon": EPSILON,
                        "instance_hash": instance_hash,
                    })
                    assert response["ok"]
                    assert json.dumps(response["result"], sort_keys=True) \
                        == json.dumps(before[seed], sort_keys=True)
                assert supervisor.router.rerouted >= 1

                # The supervisor restarts the shard and the router heals
                # its empty registry on the next owned dispatch.
                deadline = asyncio.get_running_loop().time() + 30.0
                while True:
                    report = await client.request({"op": "fleet"})
                    states = {
                        name: shard["state"]
                        for name, shard in report["shards"].items()
                    }
                    if all(state == "ok" for state in states.values()):
                        break
                    assert asyncio.get_running_loop().time() < deadline, \
                        states
                    await asyncio.sleep(0.1)
                assert supervisor.restarts[0] == 1
                assert supervisor.shard_pid(0) != victim
                for seed in seeds:
                    response = await client.request({
                        "op": "color", "method": "randomized",
                        "seed": seed, "epsilon": EPSILON,
                        "instance_hash": instance_hash,
                    })
                    assert response["ok"]
                    assert json.dumps(response["result"], sort_keys=True) \
                        == json.dumps(before[seed], sort_keys=True)
                # Under load a probe can transiently time out and pull
                # a shard from the ring; poll until the prober restores
                # both instead of asserting a single snapshot.
                deadline = asyncio.get_running_loop().time() + 30.0
                while True:
                    report = await client.request({"op": "fleet"})
                    if all(
                        shard["in_ring"] is True
                        for shard in report["shards"].values()
                    ):
                        break
                    assert asyncio.get_running_loop().time() < deadline, \
                        report["shards"]
                    await asyncio.sleep(0.1)
            finally:
                await client.close()
                await supervisor.close()
            # Cascade drain left no orphan: both shards have exited.
            for proc in supervisor._procs:
                assert proc is not None and proc.returncode is not None

        asyncio.run(scenario())
