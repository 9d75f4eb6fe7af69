"""What the smoke scripts share: reporting, the test instance, and
spawning and stopping ``python -m repro`` tiers on UNIX sockets.

Importing it puts ``src/`` on ``sys.path``, so a smoke script run from
anywhere imports ``repro`` from this checkout.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

EPSILON = 0.25
CLIQUES, DELTA, GRAPH_SEED = 16, 8, 3


def fail(message: str) -> NoReturn:
    print(f"FAIL: {message}")
    raise SystemExit(1)


def ok(message: str) -> None:
    print(f"ok: {message}")


def instance_payload() -> dict:
    """The wire form of the smokes' hard instance."""
    from repro.graphs import hard_clique_graph

    instance = hard_clique_graph(CLIQUES, DELTA, seed=GRAPH_SEED)
    return {
        "n": instance.n,
        "edges": [list(edge) for edge in instance.network.edges()],
        "delta": instance.delta,
        "uids": list(instance.network.uids),
    }


def start(argv: list[str], sock: str, *, polls: int = 2400) -> subprocess.Popen:
    """Spawn ``python -m repro *argv``; return once ``sock`` accepts.

    The startup budget is ``polls`` polls 50 ms apart (2400: 120 s).
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    for _ in range(polls):
        if proc.poll() is not None:
            fail(f"{argv[0]} exited early:\n{proc.stdout.read()}")
        if os.path.exists(sock):
            try:
                with socket.socket(socket.AF_UNIX) as probe:
                    probe.connect(sock)
                return proc
            except OSError:
                pass
        time.sleep(0.05)
    proc.kill()
    fail(f"{argv[0]} did not bind {sock} within {polls * 0.05:g}s")


def stop_clean(proc: subprocess.Popen, label: str, marker: str) -> None:
    """SIGTERM ``proc``; fail unless it exits 0 within 60 s and prints
    ``marker``."""
    proc.send_signal(signal.SIGTERM)
    try:
        stdout, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail(f"{label}: did not exit within 60s of SIGTERM")
    if proc.returncode != 0:
        fail(f"{label}: exit code {proc.returncode} after SIGTERM:\n{stdout}")
    if marker not in stdout:
        fail(f"{label}: no '{marker}' report on stdout:\n{stdout}")
    ok(f"{label}: SIGTERM stopped cleanly (exit 0)")
