"""Distributed campaign smoke check: remote executor vs a live fleet.

Used by ``make dist-smoke`` and the CI serving step.  Asserts the
guarantees the distributed campaign plane advertises (DESIGN.md §15):

1. an inline ``run_campaign`` over 20 cells is the reference — its row
   list is the byte-identity baseline;
2. ``run_campaign(executor="remote")`` against a live 2-shard serve
   fleet completes every cell and its artifact is **byte-identical**
   to the inline reference;
3. the first campaign registered the graph exactly once per shard,
   and a second campaign on the same graph and the same live fleet
   ships it to no shard (their ``serve.register`` counters do not
   move: cells go by hash to shards that already hold it) and its
   artifact is byte-identical to its inline reference;
4. with one shard SIGKILLed mid-campaign (after the fourth completed
   cell), the dispatcher re-queues the shard's in-flight cells onto the
   survivor: the campaign still completes 100% of its cells with zero
   failures, rows still byte-identical, and the executor's stats report
   the backend death.  The killed shard's pool worker exits too instead
   of living on as an orphan.

Exit status 0 on success; nonzero with a FAIL message otherwise.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from _smoke import CLIQUES, DELTA, EPSILON, GRAPH_SEED, fail, ok, start
from repro.runner import CampaignCell, run_campaign
from repro.runner.remote import RemoteOptions

METHODS = ("randomized", "deterministic")
KILL_AFTER = 4  # completed cells before the victim shard dies


def cells(tag: str, seed_base: int) -> list[CampaignCell]:
    """20 cells; distinct ``seed_base`` per scenario so the second
    scenario cannot be answered from the shards' result caches."""
    return [
        CampaignCell(
            label=f"{tag}-{index}", workload="hard", num_cliques=CLIQUES,
            delta=DELTA, graph_seed=GRAPH_SEED, epsilon=EPSILON,
            method=METHODS[index % 2], seed=seed_base + index,
        )
        for index in range(20)
    ]


def row_bytes(result) -> bytes:
    return json.dumps(result.rows, sort_keys=True).encode()


def start_shard(sock: str) -> subprocess.Popen:
    return start(
        ["serve", "--unix", sock, "-j", "1", "--idle-timeout", "300"], sock
    )


OPTIONS = RemoteOptions(probe_interval_s=0.2, probe_timeout_s=1.0)


def counter(sock: str, name: str) -> float:
    """One counter from a shard's ``metrics`` op (0 when never bumped)."""
    with socket.socket(socket.AF_UNIX) as conn:
        conn.settimeout(10)
        conn.connect(sock)
        conn.sendall(b'{"op": "metrics", "id": 1}\n')
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = conn.recv(65536)
            if not chunk:
                break
            reply += chunk
    return json.loads(reply)["metrics"]["counters"].get(name, 0)


def children(pid: int) -> list[int]:
    """Live child pids of ``pid`` (empty without a /proc filesystem)."""
    found = []
    for entry in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = entry.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            found.append(int(entry.parent.name))
    return found


def alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def clean_fleet_run(reference, campaign, backends) -> None:
    result = run_campaign(
        campaign, backends=backends, remote_options=OPTIONS,
    )
    if result.failures:
        fail(f"clean fleet run recorded failures: {result.failures}")
    if row_bytes(result) != row_bytes(reference):
        fail("clean fleet artifact differs from the inline reference")
    stats = result.remote_stats
    if stats["completed"] != len(campaign):
        fail(f"clean fleet run completed {stats['completed']} cells")
    ok(
        f"fleet campaign byte-identical to inline "
        f"({stats['completed']} cells across {len(stats['backends'])} "
        f"shards)"
    )


def second_campaign_ships_nothing(reference, campaign, socks) -> None:
    before = [counter(sock, "serve.register") for sock in socks]
    if before != [1] * len(socks):
        fail(f"first campaign should register once per shard: {before}")
    result = run_campaign(
        campaign, backends=[f"unix:{sock}" for sock in socks],
        remote_options=OPTIONS,
    )
    after = [counter(sock, "serve.register") for sock in socks]
    if result.failures:
        fail(f"second fleet run recorded failures: {result.failures}")
    if row_bytes(result) != row_bytes(reference):
        fail("second fleet artifact differs from the inline reference")
    if after != before:
        fail(f"second campaign registered again: {before} -> {after}")
    ok(
        f"second campaign byte-identical, no graph re-sent (registers "
        f"per shard stay {after})"
    )


def kill_mid_run(reference, campaign, backends, victim) -> None:
    state = {"killed": False, "workers": []}

    def on_progress(done: int, total: int, label: str) -> None:
        if done >= KILL_AFTER and not state["killed"]:
            state["killed"] = True
            state["workers"] = children(victim.pid)
            os.kill(victim.pid, signal.SIGKILL)
            print(
                f"ok: SIGKILLed shard pid {victim.pid} after "
                f"{done}/{total} cells"
            )

    # retries=3: a cell can be charged a loss more than once while the
    # dying shard is still being convicted (mirrors pool crash budgets).
    result = run_campaign(
        campaign, backends=backends, progress=on_progress, retries=3,
        remote_options=OPTIONS,
    )
    if not state["killed"]:
        fail("campaign finished before the kill fired; add cells")
    if result.failures:
        fail(f"post-kill campaign recorded failures: {result.failures}")
    if len(result.rows) != len(campaign):
        fail(f"post-kill campaign returned {len(result.rows)} rows")
    if row_bytes(result) != row_bytes(reference):
        fail("post-kill artifact differs from the inline reference")
    stats = result.remote_stats
    if stats["backend_deaths"] < 1:
        fail(f"dispatcher never declared the dead shard: {stats}")
    ok(
        f"campaign completed 100% of {len(campaign)} cells with one "
        f"shard dead (requeued {stats['requeued']}, deaths "
        f"{stats['backend_deaths']})"
    )
    for _ in range(100):  # 100 x 100ms = a 10s exit budget
        if not any(map(alive, state["workers"])):
            break
        time.sleep(0.1)
    orphans = [pid for pid in state["workers"] if alive(pid)]
    for pid in orphans:
        os.kill(pid, signal.SIGKILL)
    if orphans:
        fail(f"killed shard's pool workers outlived it: {orphans}")
    ok(f"killed shard's pool workers exited: {state['workers']}")


def main() -> int:
    clean = cells("clean", 0)
    again = cells("again", 200)
    chaos = cells("chaos", 100)
    clean_reference = run_campaign(clean)
    again_reference = run_campaign(again)
    chaos_reference = run_campaign(chaos)
    ok(
        f"inline references collected "
        f"({len(clean) + len(again) + len(chaos)} cells)"
    )

    with tempfile.TemporaryDirectory(prefix="repro-dist-smoke-") as tmp:
        socks = [os.path.join(tmp, f"shard{i}.sock") for i in range(2)]
        shards = [start_shard(sock) for sock in socks]
        backends = [f"unix:{sock}" for sock in socks]
        try:
            clean_fleet_run(clean_reference, clean, backends)
            second_campaign_ships_nothing(again_reference, again, socks)
            kill_mid_run(chaos_reference, chaos, backends, shards[1])
        finally:
            for shard in shards:
                if shard.poll() is None:
                    shard.send_signal(signal.SIGTERM)
            for shard in shards:
                try:
                    shard.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    shard.kill()
    print("distributed campaign smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
