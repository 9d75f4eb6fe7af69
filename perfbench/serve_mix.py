"""``serve_mix``: an open loop of ``color`` requests through a fleet router.

One asyncio process sends requests at a fixed arrival rate over one
pipelined connection to ``repro fleet --shards 2`` (inline shards, a
fresh runtime directory per run), on ``hard_clique_graph(34, 16)`` with
``randomized`` and epsilon 0.25.  The mix is stationary:

* ~70% hits -- hash-referenced requests on a fixed hot seed set that
  set-up warms (and verifies);
* ~20% misses -- hash-referenced requests with never-seen seeds;
* ~10% writes -- the full instance inline with a never-seen seed, which
  exercises protocol parsing, canonical hashing and the registry.

Each request is timed from its scheduled send time, so a stall charges
every request queued behind it.  Hits exercise the front end only
(router hop, client, protocol, cache); misses and writes exercise
admission, batching and the pipeline.  The workload seed drives the mix
and the fresh seeds.
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
import time
from pathlib import Path
from typing import Any

from common import (
    BenchmarkError,
    Context,
    OperationTimeout,
    colors_digest,
    fresh_run_dir,
    median,
    peak_rss_mb,
    percentile,
    remove_run_dir,
)
from layers import LayerTracer

CLIQUES, DELTA, GRAPH_SEED = 34, 16, 1
METHOD, EPSILON = "randomized", 0.25
#: Fixed arrival rate (requests per second) and latency limit of goodput.
RATE_RPS = 30.0
LATENCY_LIMIT_MS = 250.0
MIX = (("hit", 0.70), ("miss", 0.20), ("inline", 0.10))
HOT_SEEDS = tuple(range(16))
#: Fresh seeds start here, so they never meet the hot set.
FRESH_SEED_BASE = 1_000_000
SHARDS = 2
TINY = {"cliques": 16, "delta": 8, "rate": 20.0}

SETUP_REPEATS = 3
BOOT_DEADLINE_S = 60.0
REQUEST_DEADLINE_S = 10.0
#: Misses re-colored in-process to check the fleet's answers.
VERIFY_SAMPLE = 6
HOP_PROBES = 64


class Fleet:
    """One ``repro fleet`` process tree and a client connection to it."""

    def __init__(self, ctx: Context, tag: str) -> None:
        self.ctx = ctx
        self.run_dir = fresh_run_dir(tag)
        self.socket = self.run_dir / "router.sock"
        self.proc = ctx.tree.spawn(
            [sys.executable, "-m", "repro", "fleet", "--shards", str(SHARDS),
             "--unix", str(self.socket), "--runtime-dir", str(self.run_dir)],
            self.run_dir / "fleet.log",
        )
        self.client: Any = None

    def shard_socket(self, index: int) -> Path:
        return self.run_dir / f"shard-{index}.sock"

    async def connect(self) -> None:
        """Wait until the router answers ``health`` ok, then connect."""
        from repro.serve.client import ServeClient

        loop = asyncio.get_running_loop()
        deadline = loop.time() + BOOT_DEADLINE_S
        while loop.time() < deadline:
            if self.proc.poll() is not None:
                log = (self.run_dir / "fleet.log").read_text()[-2000:]
                raise BenchmarkError(f"fleet exited during boot:\n{log}")
            if self.socket.exists():
                client = ServeClient(unix_path=str(self.socket))
                try:
                    await client.connect()
                    health = await asyncio.wait_for(
                        client.request({"op": "health"}), 2.0)
                    if health.get("status") == "ok":
                        self.client = client
                        return
                except (ConnectionError, OSError, asyncio.TimeoutError):
                    pass
                await client.close()
            await asyncio.sleep(0.05)
        raise OperationTimeout(f"fleet not healthy within {BOOT_DEADLINE_S:g}s")

    async def request(self, body: dict[str, Any]) -> dict[str, Any]:
        return await asyncio.wait_for(
            self.client.request(body), REQUEST_DEADLINE_S)

    async def close(self) -> None:
        if self.client is not None:
            await self.client.close()
        await asyncio.to_thread(self.ctx.tree.stop, self.proc)
        remove_run_dir(self.run_dir)


def run(ctx: Context) -> None:
    asyncio.run(_run(ctx))


async def _run(ctx: Context) -> None:
    from repro import generators

    cliques = TINY["cliques"] if ctx.tiny else CLIQUES
    delta = TINY["delta"] if ctx.tiny else DELTA
    rate = TINY["rate"] if ctx.tiny else RATE_RPS
    instance = generators.hard_clique_graph(cliques, delta, seed=GRAPH_SEED)
    payload = {
        "n": instance.n,
        "uids": list(instance.network.uids),
        "edges": [list(edge) for edge in instance.network.edges()],
        "delta": delta,
    }
    ctx.provenance.update({"n": instance.n, "rate_rps": rate,
                           "latency_limit_ms": LATENCY_LIMIT_MS})
    result = ctx.result

    # -- set-up: boot, register, warm the hot set; repeated -------------
    setups: list[float] = []
    register_ms: list[float] = []
    fleet: Fleet | None = None
    try:
        for repeat in range(SETUP_REPEATS):
            if fleet is not None:
                await fleet.close()
            start = time.perf_counter()
            fleet = Fleet(ctx, f"serve{repeat}")
            await fleet.connect()
            hot, instance_hash, register = await _warm(
                fleet, payload, instance, result)
            setups.append(time.perf_counter() - start)
            register_ms.append(register)
        assert fleet is not None
        await _measure(ctx, fleet, instance, payload, instance_hash, hot,
                       rate, setups, register_ms)
    finally:
        if fleet is not None:
            await fleet.close()
    result.update({"peak_rss_mb": peak_rss_mb()})


async def _warm(fleet: Fleet, payload: dict[str, Any], instance: Any,
                result: Any) -> tuple[dict[int, tuple[str, int]], str, float]:
    """Register the instance and color the hot set, verifying each."""
    from repro.errors import ReproError
    from repro.verify.coloring import verify_coloring

    start = time.perf_counter()
    registered = await fleet.request({"op": "register", "instance": payload})
    register_ms = (time.perf_counter() - start) * 1000.0
    if not registered.get("ok"):
        raise BenchmarkError(f"register failed: {registered}")
    instance_hash = registered["instance_hash"]
    responses = await asyncio.gather(*(
        fleet.request({
            "op": "color", "method": METHOD, "seed": seed,
            "epsilon": EPSILON, "instance_hash": instance_hash,
            "include_colors": True,
        })
        for seed in HOT_SEEDS
    ))
    hot: dict[int, tuple[str, int]] = {}
    for seed, response in zip(HOT_SEEDS, responses):
        if not response.get("ok"):
            raise BenchmarkError(f"warm-up seed {seed} failed: {response}")
        body = response["result"]
        try:
            verify_coloring(instance.network, body["colors"], body["num_colors"])
        except ReproError as error:
            result.fail(f"hot seed {seed}: {error}")
        if colors_digest(body["colors"]) != body.get("colors_sha256"):
            result.fail(f"hot seed {seed}: colors_sha256 does not match colors")
        hot[seed] = (body["colors_sha256"], body["rounds"])
    return hot, instance_hash, register_ms


def _request_plan(seed: int, count: int, instance_hash: str,
                  payload: dict[str, Any]) -> list[tuple[str, int, dict]]:
    rng = random.Random(seed)
    fresh = FRESH_SEED_BASE
    plan = []
    for index in range(count):
        roll = rng.random()
        kind = MIX[-1][0]
        for name, share in MIX:
            if roll < share:
                kind = name
                break
            roll -= share
        if kind == "hit":
            color_seed = rng.choice(HOT_SEEDS)
        else:
            fresh += 1
            color_seed = fresh
        body: dict[str, Any] = {
            "op": "color", "id": index, "method": METHOD, "seed": color_seed,
            "epsilon": EPSILON, "include_colors": False,
        }
        if kind == "inline":
            body["instance"] = payload
        else:
            body["instance_hash"] = instance_hash
        plan.append((kind, color_seed, body))
    return plan


async def _counters(fleet: Fleet) -> dict[str, float]:
    """Router and shard counters from the ``metrics`` and ``fleet`` ops."""
    metrics = await fleet.request({"op": "metrics"})
    topology = await fleet.request({"op": "fleet"})
    out = {key: float(value) for key, value in metrics["metrics"].items()}
    batches = items = shed = disk_hits = 0
    for body in metrics.get("shards", {}).values():
        server = body.get("server", {})
        batches += server.get("batches", {}).get("dispatched", 0)
        items += server.get("batches", {}).get("items", 0)
        shed += server.get("shed_total", 0)
        disk_hits += server.get("cache", {}).get("disk_hits", 0)
    out.update({
        "batches": batches, "items": items, "shard_shed": shed,
        "disk_hits": disk_hits,
        "forwarded": sum(shard.get("dispatched", 0)
                         for shard in topology.get("shards", {}).values()),
    })
    return out


async def _measure(ctx: Context, fleet: Fleet, instance: Any,
                   payload: dict[str, Any], instance_hash: str,
                   hot: dict[int, tuple[str, int]], rate: float,
                   setups: list[float], register_ms: list[float]) -> None:
    result = ctx.result
    count = max(1, int(rate * ctx.seconds))
    plan = _request_plan(ctx.seed, count, instance_hash, payload)
    before = await _counters(fleet)

    loop = asyncio.get_running_loop()
    latency_ms: dict[str, list[float]] = {"hit": [], "miss": [], "inline": []}
    #: Every request's latency; a failure counts as missing the limit.
    all_ms: list[float] = []
    lags_ms: list[float] = []
    ok_total = ok_within = cached_hits = vertices = 0
    last_reply = 0.0
    computed: list[tuple[int, str]] = []

    async def one(kind: str, color_seed: int, body: dict, due: float
                  ) -> None:
        nonlocal ok_total, ok_within, cached_hits, vertices, last_reply
        try:
            response = await fleet.request(body)
        except (asyncio.TimeoutError, ConnectionError, OSError) as error:
            result.fail(f"{kind} seed {color_seed}: {type(error).__name__}")
            all_ms.append(REQUEST_DEADLINE_S * 1000.0)
            return
        last_reply = max(last_reply, loop.time())
        elapsed = (loop.time() - due) * 1000.0
        if not response.get("ok"):
            result.fail(f"{kind} seed {color_seed}: {response.get('error')}")
            all_ms.append(max(elapsed, LATENCY_LIMIT_MS))
            return
        body_result = response["result"]
        if kind == "hit":
            cached_hits += bool(response.get("cached"))
            if body_result.get("colors_sha256") != hot[color_seed][0]:
                result.fail(f"hit seed {color_seed}: colors differ from warm-up")
        elif body_result.get("num_colors") != instance.delta:
            result.fail(f"{kind} seed {color_seed}: not a Delta-coloring")
        else:
            computed.append((color_seed, body_result.get("colors_sha256")))
        ok_total += 1
        ok_within += elapsed <= LATENCY_LIMIT_MS
        vertices += instance.n
        latency_ms[kind].append(elapsed)
        all_ms.append(elapsed)

    tasks = []
    start = loop.time() + 0.05
    for index, (kind, color_seed, body) in enumerate(plan):
        due = start + index / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lags_ms.append(max(0.0, loop.time() - due) * 1000.0)
        result.attempted += 1
        tasks.append(loop.create_task(one(kind, color_seed, body, due)))
    await asyncio.gather(*tasks)
    #: From the first scheduled send to the last reply.
    load_s = last_reply - start
    after = await _counters(fleet)

    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    # -- output check: recolor a sample of misses in-process -------------
    tracer = LayerTracer() if ctx.trace else None
    walls = await asyncio.wait_for(asyncio.to_thread(
        _recolor, instance, computed[:VERIFY_SAMPLE], tracer, result),
        REQUEST_DEADLINE_S * VERIFY_SAMPLE)

    hits = len(latency_ms["hit"])
    result.update({
        "setup_s": median(setups),
        "vertices_per_s": vertices / load_s,
        "local_rounds": sum(rounds for _, rounds in hot.values()),
        "goodput_rps": ok_within / load_s,
        "cells_per_s": ok_total / load_s,
        "serve.request_p50_ms": median(all_ms),
        "serve.request_p95_ms": percentile(all_ms, 95),
        "serve.hit_p50_ms": median(latency_ms["hit"]),
        "serve.miss_p50_ms": median(latency_ms["miss"]),
        "serve.inline_p50_ms": median(latency_ms["inline"]),
        "serve.batch_mean": delta("items") / max(delta("batches"), 1.0),
        "serve.hit_ratio": cached_hits / max(ok_total, 1),
        "serve.router.rerouted": delta("router.rerouted"),
        "serve.router.hedged": delta("router.hedged"),
        "serve.shed": delta("router.shed") + delta("shard_shed"),
        "serve.cache.disk_hits": delta("disk_hits"),
        "serve.router.useful_ratio": (
            delta("router.requests") / max(delta("forwarded"), 1.0)),
        "serve.register_ms": median(register_ms),
        "gen.lag_p99_ms": percentile(lags_ms, 99),
    })
    ctx.provenance["requests"] = {"scheduled": count, "hits": hits,
                                  "ok": ok_total}
    if tracer is not None:
        result.update(tracer.metrics(max(len(walls[1]), 1)))
        if walls[0] and walls[1]:
            result.update({"trace.overhead": sum(walls[1]) / sum(walls[0])})
        result.update({
            "serve.router.hop_ms": await _router_hop(fleet, instance_hash),
            "serve.protocol.inline_parse_ms": _inline_parse_ms(payload),
        })


def _recolor(instance: Any, sample: list[tuple[int, str]],
             tracer: LayerTracer | None, result: Any
             ) -> tuple[list[float], list[float]]:
    """Recolor sampled misses in-process; the fleet's digest must match.

    With a tracer, each is colored twice -- untraced, then traced -- which
    gives the pipeline layers of a serve-sized instance and the tracing
    overhead.
    """
    from repro import delta_color

    untraced: list[float] = []
    traced: list[float] = []
    for color_seed, digest in sample:
        start = time.perf_counter()
        coloring = delta_color(instance.network, method=METHOD,
                               epsilon=EPSILON, seed=color_seed)
        untraced.append(time.perf_counter() - start)
        if colors_digest(coloring.colors) != digest:
            result.fail(f"seed {color_seed}: fleet coloring differs from "
                        "an in-process run")
        if tracer is not None:
            start = time.perf_counter()
            with tracer:
                tracer.call(delta_color, instance.network, method=METHOD,
                            epsilon=EPSILON, seed=color_seed)
            traced.append(time.perf_counter() - start)
    return untraced, traced


async def _router_hop(fleet: Fleet, instance_hash: str) -> float:
    """Idle hit latency through the router minus straight to a shard."""
    from repro.serve.client import ServeClient

    def body(seed: int) -> dict[str, Any]:
        return {"op": "color", "method": METHOD, "seed": seed,
                "epsilon": EPSILON, "instance_hash": instance_hash,
                "include_colors": False}

    shards = []
    try:
        for index in range(SHARDS):
            client = ServeClient(unix_path=str(fleet.shard_socket(index)))
            await client.connect()
            shards.append(client)
        # Warm each shard's memory tier (the shared disk tier has them).
        for client in shards:
            for seed in HOT_SEEDS:
                await asyncio.wait_for(client.request(body(seed)),
                                       REQUEST_DEADLINE_S)
        routed: list[float] = []
        direct: list[float] = []
        for probe in range(HOP_PROBES):
            seed = HOT_SEEDS[probe % len(HOT_SEEDS)]
            start = time.perf_counter()
            await fleet.request(body(seed))
            routed.append(time.perf_counter() - start)
            client = shards[probe % len(shards)]
            start = time.perf_counter()
            await asyncio.wait_for(client.request(body(seed)),
                                   REQUEST_DEADLINE_S)
            direct.append(time.perf_counter() - start)
    finally:
        for client in shards:
            await client.close()
    return (median(routed) - median(direct)) * 1000.0


def _inline_parse_ms(payload: dict[str, Any]) -> float:
    """Protocol cost of one write: parse the line, hash the instance."""
    from repro.serve.protocol import normalize_instance_payload, parse_request

    line = json.dumps({"op": "color", "method": METHOD, "seed": 1,
                       "epsilon": EPSILON, "instance": payload}).encode()
    samples = []
    for _ in range(10):
        start = time.perf_counter()
        normalize_instance_payload(parse_request(line)["instance"])
        samples.append(time.perf_counter() - start)
    return median(samples) * 1000.0
