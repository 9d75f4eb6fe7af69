"""Fleet smoke check: 2 shards behind the router vs a single server.

Used by ``make fleet-smoke`` and the CI serving step.  Asserts the
guarantees the sharded tier advertises (DESIGN.md §14):

1. a single ``repro serve`` baseline answers 20 seeded ``color``
   requests; its results are the reference bytes;
2. a ``repro fleet`` (2 shards + router, shared disk cache) answers the
   same 20 requests **byte-identically** — consistent-hash routing must
   be invisible to clients;
3. with one shard SIGKILLed mid-run, every remaining request still
   answers byte-identically (re-route to the next ring owner), and the
   ``fleet`` op reports the dead shard out of the ring;
4. the supervisor restarts the shard (fleet op shows both shards ok and
   a restart count of 1), and the restarted shard serves again: the 20
   requests replayed after the restart byte-match the baseline and
   raise its ``served`` count;
5. SIGTERM drains the whole tree gracefully: exit 0, drain report on
   stdout, no orphan shard processes.

Exit status 0 on success; nonzero with a FAIL message otherwise.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import tempfile

from _smoke import EPSILON, fail, instance_payload, ok, start, stop_clean
from repro.serve import ServeClient

SEEDS = list(range(20))


async def collect_results(sock: str, seeds: list[int]) -> dict[int, str]:
    """Register the instance and return seed -> canonical result JSON."""
    client = ServeClient(unix_path=sock)
    await client.connect()
    try:
        registered = await client.request(
            {"op": "register", "instance": instance_payload()}
        )
        if not registered.get("ok"):
            fail(f"register failed: {registered}")
        results: dict[int, str] = {}
        for seed in seeds:
            response = await client.request({
                "op": "color", "method": "randomized", "seed": seed,
                "epsilon": EPSILON,
                "instance_hash": registered["instance_hash"],
            })
            if not response.get("ok"):
                fail(f"color seed={seed} failed: {response}")
            results[seed] = json.dumps(response["result"], sort_keys=True)
        return results
    finally:
        await client.close()


async def fleet_scenario(sock: str, baseline: dict[int, str]) -> None:
    client = ServeClient(unix_path=sock)
    await client.connect()
    try:
        registered = await client.request(
            {"op": "register", "instance": instance_payload()}
        )
        if not registered.get("ok"):
            fail(f"register via router failed: {registered}")
        instance_hash = registered["instance_hash"]

        async def color(seed: int) -> str:
            response = await client.request({
                "op": "color", "method": "randomized", "seed": seed,
                "epsilon": EPSILON, "instance_hash": instance_hash,
            })
            if not response.get("ok"):
                fail(f"fleet color seed={seed} failed: {response}")
            return json.dumps(response["result"], sort_keys=True)

        for seed in SEEDS[:10]:
            if await color(seed) != baseline[seed]:
                fail(f"fleet result differs from baseline at seed={seed}")
        ok("first 10 fleet responses byte-match the single-server baseline")

        report = await client.request({"op": "fleet"})
        if not report.get("ok") or len(report["shards"]) != 2:
            fail(f"fleet op: {report}")
        victim_label, victim = next(iter(report["shards"].items()))
        if not isinstance(victim.get("pid"), int):
            fail(f"fleet op carries no shard pid: {victim}")
        os.kill(victim["pid"], signal.SIGKILL)
        ok(f"killed shard {victim_label} (pid {victim['pid']}) mid-run")

        for seed in SEEDS[10:]:
            if await color(seed) != baseline[seed]:
                fail(
                    f"post-kill fleet result differs from baseline at "
                    f"seed={seed}"
                )
        for seed in SEEDS:
            if await color(seed) != baseline[seed]:
                fail(f"replayed seed={seed} differs after the shard kill")
        ok("all 20 responses byte-identical with one shard dead")

        for _ in range(300):  # 300 x 200ms = a 60s restart budget
            report = await client.request({"op": "fleet"})
            states = {
                name: shard["state"]
                for name, shard in report["shards"].items()
            }
            if all(state == "ok" for state in states.values()):
                break
            await asyncio.sleep(0.2)
        else:
            fail(f"shard was not restarted within 60s: {states}")
        restarts = report["shards"][victim_label].get("restarts")
        if restarts != 1:
            fail(f"expected 1 restart for {victim_label}, got {restarts}")
        ok("supervisor restarted the killed shard (restarts=1)")

        served = report["shards"][victim_label]["served"]
        for seed in SEEDS:
            if await color(seed) != baseline[seed]:
                fail(f"replayed seed={seed} differs after the restart")
        report = await client.request({"op": "fleet"})
        served_after = report["shards"][victim_label]["served"]
        if served_after <= served:
            fail(
                f"restarted shard {victim_label} served nothing of the "
                f"replay (served {served} -> {served_after})"
            )
        ok(
            f"restarted shard serves again (served {served} -> "
            f"{served_after}); all 20 replayed responses byte-identical"
        )
    finally:
        await client.close()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-fleet-smoke-") as tmp:
        baseline_sock = os.path.join(tmp, "baseline.sock")
        baseline_proc = start(
            ["serve", "--unix", baseline_sock, "-j", "0"], baseline_sock
        )
        try:
            baseline = asyncio.run(collect_results(baseline_sock, SEEDS))
        except BaseException:
            baseline_proc.kill()
            raise
        ok(f"single-server baseline collected ({len(SEEDS)} results)")
        stop_clean(baseline_proc, "baseline server", "drained")

        router_sock = os.path.join(tmp, "router.sock")
        fleet_proc = start(
            ["fleet", "--shards", "2", "--unix", router_sock,
             "--runtime-dir", os.path.join(tmp, "rt"),
             "--probe-interval", "0.1"],
            router_sock,
        )
        try:
            asyncio.run(fleet_scenario(router_sock, baseline))
        except BaseException:
            fleet_proc.kill()
            raise
        stop_clean(fleet_proc, "fleet", "drained")
    print("fleet smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
