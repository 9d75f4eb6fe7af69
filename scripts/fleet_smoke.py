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
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.graphs import hard_clique_graph  # noqa: E402
from repro.serve import ServeClient  # noqa: E402

EPSILON = 0.25
CLIQUES, DELTA, GRAPH_SEED = 16, 8, 3
SEEDS = list(range(20))


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    raise SystemExit(1)


def ok(message: str) -> None:
    print(f"ok: {message}")


def start(argv: list[str], sock: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    deadline = time.time() + 120
    while not os.path.exists(sock):
        if proc.poll() is not None:
            fail(f"{argv[0]} exited early:\n{proc.stdout.read()}")
        if time.time() > deadline:
            proc.kill()
            fail(f"{argv[0]} did not bind {sock} within 120s")
        time.sleep(0.05)
    return proc


def instance_payload() -> dict:
    instance = hard_clique_graph(CLIQUES, DELTA, seed=GRAPH_SEED)
    return {
        "n": instance.n,
        "edges": [list(edge) for edge in instance.network.edges()],
        "delta": instance.delta,
        "uids": list(instance.network.uids),
    }


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

        deadline = time.time() + 60
        while True:
            report = await client.request({"op": "fleet"})
            states = {
                name: shard["state"]
                for name, shard in report["shards"].items()
            }
            if all(state == "ok" for state in states.values()):
                break
            if time.time() > deadline:
                fail(f"shard was not restarted within 60s: {states}")
            await asyncio.sleep(0.2)
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


def check_sigterm_drain(proc: subprocess.Popen, label: str) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        stdout, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail(f"{label}: did not exit within 60s of SIGTERM")
    if proc.returncode != 0:
        fail(f"{label}: exit code {proc.returncode} after SIGTERM:\n{stdout}")
    if "drained" not in stdout:
        fail(f"{label}: no drain report on stdout:\n{stdout}")
    ok(f"{label}: SIGTERM drained gracefully (exit 0)")


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
        check_sigterm_drain(baseline_proc, "baseline server")

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
        check_sigterm_drain(fleet_proc, "fleet")
    print("fleet smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
