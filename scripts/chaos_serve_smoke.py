"""Chaos serving smoke check: server behind a seeded chaos proxy.

Used by ``make chaos-serve`` and the CI serving step.  Boots the real
``repro serve`` and ``repro chaosproxy`` as subprocesses (UNIX sockets)
and drives a deterministic workload through the resilient client over
the lossy path.  Asserts the fleet-robustness guarantees:

1. the proxy forwards a clean health check end-to-end;
2. under seeded resets + latency, **100% of requests complete** after
   retries and every completed coloring byte-matches the fault-free
   direct run against the same server (the retry-safety argument from
   determinism, DESIGN.md §13);
3. the chaos run actually exercised the machinery: faults were
   injected and the client retried;
4. SIGTERM stops the proxy cleanly (exit 0 with a fault summary) and
   drains the server.

Exit status 0 on success; nonzero with a FAIL message otherwise.
"""

from __future__ import annotations

import asyncio
import os
import sys
import tempfile

from _smoke import EPSILON, fail, instance_payload, ok, start, stop_clean
from repro.serve import ResilientClient, RetryPolicy

REQUESTS = 20
CHAOS_SEED = 7


async def run_workload(sock: str, *, attempts: int) -> tuple[list, dict]:
    """Register + REQUESTS seeded colorings; returns (outcomes, stats)."""
    client = ResilientClient(
        unix_path=sock,
        retry=RetryPolicy(attempts=attempts, base_delay_s=0.02, seed=1),
    )
    await client.connect()
    try:
        health = await client.request({"op": "health"})
        if not health.get("ok"):
            fail(f"health through the path {sock}: {health}")
        registered = await client.request(
            {"op": "register", "instance": instance_payload()}
        )
        if not registered.get("ok"):
            fail(f"register through the path {sock}: {registered}")
        outcomes = []
        for seed in range(REQUESTS):
            outcomes.append(await client.call({
                "op": "color", "method": "randomized", "seed": seed,
                "epsilon": EPSILON, "include_colors": True,
                "instance_hash": registered["instance_hash"],
            }))
        stats = {
            "retried": sum(1 for o in outcomes if o.retried),
            "attempts": sum(o.attempts for o in outcomes),
            "reconnects": client.reconnects,
        }
        return outcomes, stats
    finally:
        await client.close()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        server_sock = os.path.join(tmp, "server.sock")
        chaos_sock = os.path.join(tmp, "chaos.sock")
        server = start(
            ["serve", "--unix", server_sock, "-j", "1"], server_sock,
            polls=1200,
        )
        proxy = None
        try:
            # Fault-free reference run, straight at the server.
            baseline, _ = asyncio.run(run_workload(server_sock, attempts=1))
            if not all(o.ok for o in baseline):
                fail("fault-free baseline did not complete cleanly")
            ok(f"fault-free baseline: {len(baseline)}/{REQUESTS} completed")

            proxy = start(
                ["chaosproxy", "--unix", chaos_sock,
                 "--upstream", f"unix:{server_sock}",
                 "--seed", str(CHAOS_SEED),
                 "--reset-probability", "0.05",
                 "--latency-ms", "1", "--latency-jitter-ms", "2",
                 "--chunk-bytes", "2048"],
                chaos_sock, polls=1200,
            )
            chaotic, stats = asyncio.run(run_workload(chaos_sock, attempts=8))

            incomplete = [o for o in chaotic if not o.ok]
            if incomplete:
                fail(
                    f"{len(incomplete)}/{REQUESTS} requests failed through "
                    f"chaos: {[o.body.get('error') for o in incomplete]}"
                )
            ok(f"chaos run: {REQUESTS}/{REQUESTS} completed "
               f"({stats['retried']} retried, {stats['attempts']} attempts, "
               f"{stats['reconnects']} reconnects)")

            mismatched = [
                seed for seed, (reference, outcome)
                in enumerate(zip(baseline, chaotic))
                if outcome.body["result"] != reference.body["result"]
            ]
            if mismatched:
                fail(f"chaos responses differ from baseline at seeds "
                     f"{mismatched}")
            ok("every chaos response byte-matches the fault-free baseline")

            if stats["retried"] < 1:
                fail("chaos injected no client-visible faults; the smoke "
                     "exercised nothing — check the plan rates")
            ok("faults were injected and retried "
               f"({stats['retried']} requests needed retries)")
        except BaseException:
            if proxy is not None and proxy.poll() is None:
                proxy.kill()
            if server.poll() is None:
                server.kill()
            raise
        stop_clean(proxy, "chaos proxy", "chaos proxy stopped")
        stop_clean(server, "server", "drained")
    print("chaos serving smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
