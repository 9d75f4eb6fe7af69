"""Serving smoke check: boot ``repro serve``, exercise the contract.

Used by ``make serve-smoke`` and the CI serving step.  Boots the real
server as a subprocess (worker pool, UNIX socket) and asserts the
end-to-end guarantees the serving layer advertises:

1. the server starts and answers ``health``;
2. a ``color`` response byte-matches a direct in-process
   ``delta_color_deterministic`` call on the same instance (the
   determinism contract across the wire);
3. resubmitting the same request is answered from the result cache;
4. a second server with ``--max-queue 1`` sheds concurrent overload
   with ``shed`` errors while still completing admitted work;
5. SIGTERM drains gracefully: the process exits 0 and reports the
   drain on stdout.

Exit status 0 on success; nonzero with a FAIL message otherwise.
"""

from __future__ import annotations

import asyncio
import os
import sys
import tempfile

from _smoke import (
    CLIQUES,
    DELTA,
    EPSILON,
    GRAPH_SEED,
    fail,
    instance_payload,
    ok,
    start,
    stop_clean,
)
from repro.constants import AlgorithmParameters
from repro.core.deterministic import delta_color_deterministic
from repro.graphs import hard_clique_graph
from repro.serve import ServeClient


def start_server(sock: str, *extra: str):
    return start(["serve", "--unix", sock, "-j", "1", *extra], sock, polls=1200)


async def check_correctness_and_cache(sock: str) -> None:
    payload = instance_payload()
    direct = delta_color_deterministic(
        hard_clique_graph(CLIQUES, DELTA, seed=GRAPH_SEED).network,
        params=AlgorithmParameters(epsilon=EPSILON),
    )
    client = ServeClient(unix_path=sock)
    await client.connect()
    try:
        health = await client.request({"op": "health"})
        if not health.get("ok") or health.get("status") != "ok":
            fail(f"health check: {health}")
        ok("server is up and healthy")

        first = await client.request({
            "op": "color", "method": "deterministic", "epsilon": EPSILON,
            "instance": payload,
        })
        if not first.get("ok"):
            fail(f"color request failed: {first}")
        if first["result"]["colors"] != direct.colors:
            fail("served coloring does not byte-match the direct call")
        if first["result"]["num_colors"] != direct.num_colors:
            fail("served num_colors does not match the direct call")
        if first["cached"]:
            fail("first submission must not be a cache hit")
        ok("color response byte-matches delta_color_deterministic")

        again = await client.request({
            "op": "color", "method": "deterministic", "epsilon": EPSILON,
            "instance_hash": first["instance_hash"],
        })
        if not again.get("ok") or not again.get("cached"):
            fail(f"resubmission was not served from the cache: {again}")
        if again["result"]["colors"] != direct.colors:
            fail("cached coloring differs from the computed one")
        ok("identical resubmission served from the result cache")
    finally:
        await client.close()


async def check_shedding(sock: str) -> None:
    payload = instance_payload()
    client = ServeClient(unix_path=sock)
    await client.connect()
    try:
        registered = await client.request(
            {"op": "register", "instance": payload}
        )
        if not registered.get("ok"):
            fail(f"register failed: {registered}")
        responses = await asyncio.gather(*(
            client.request({
                "op": "color", "method": "randomized", "seed": seed,
                "epsilon": EPSILON, "include_colors": False,
                "instance_hash": registered["instance_hash"],
            })
            for seed in range(8)
        ))
        shed = sum(
            1 for r in responses
            if not r.get("ok") and r["error"]["code"] == "shed"
        )
        completed = sum(1 for r in responses if r.get("ok"))
        if shed < 1:
            fail(f"no request shed past max_queue=1 (statuses: {responses})")
        if completed < 1:
            fail("every request shed; admitted work must still complete")
        ok(f"load shedding past the queue bound ({shed} shed, "
           f"{completed} completed)")
    finally:
        await client.close()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        sock_a = os.path.join(tmp, "a.sock")
        server_a = start_server(sock_a)
        try:
            asyncio.run(check_correctness_and_cache(sock_a))
        except BaseException:
            server_a.kill()
            raise
        stop_clean(server_a, "main server", "drained")

        sock_b = os.path.join(tmp, "b.sock")
        server_b = start_server(
            sock_b, "--max-queue", "1", "--max-batch", "1",
            "--linger-ms", "0", "--cache-size", "0",
        )
        try:
            asyncio.run(check_shedding(sock_b))
        except BaseException:
            server_b.kill()
            raise
        stop_clean(server_b, "overload server", "drained")
    print("serving smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
