"""The long-running commands stop cleanly on SIGTERM.

``repro serve``, ``router``, ``fleet`` and ``chaosproxy`` share one
runner in :mod:`repro.cli`: SIGTERM/SIGINT call the tier's
``shutdown()``, and the command closes the tier and prints its
farewell.  Each case boots the real command, waits until its socket
accepts, sends SIGTERM twice (a repeat signal during the drain must do
nothing) and expects exit code 0 and the farewell line.  Without a
handler the exit code would be -15.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def spawn(*argv: str) -> subprocess.Popen:
    """Start a command in its own process group, which the test kills
    whole: a fleet that dies without its handler orphans its shards."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        start_new_session=True,
    )


def wait_accepting(proc: subprocess.Popen, sock: Path) -> None:
    for _ in range(600):  # 600 x 50ms = a 30s startup budget
        if proc.poll() is not None:
            pytest.fail(f"exited early ({proc.returncode}):\n{proc.stdout.read()}")
        try:
            with socket.socket(socket.AF_UNIX) as probe:
                probe.connect(str(sock))
            return
        except OSError:
            time.sleep(0.05)
    pytest.fail(f"{sock} did not accept within 30s")


def stop(proc: subprocess.Popen) -> str:
    """SIGTERM twice; the output once the process exited 0."""
    proc.send_signal(signal.SIGTERM)
    proc.send_signal(signal.SIGTERM)
    stdout, _ = proc.communicate(timeout=30)
    assert proc.returncode == 0, stdout
    return stdout


#: command -> (argv after the command, needs an upstream serve, farewell)
CASES = {
    "serve": (["-j", "0"], False, "drained after"),
    "router": (["--shard", "unix:{upstream}"], True, "router drained after"),
    "fleet": (["--shards", "1"], False, "fleet drained after"),
    "chaosproxy": (["--upstream", "unix:{upstream}"], True,
                   "chaos proxy stopped:"),
}


@pytest.mark.parametrize("command", list(CASES))
def test_sigterm_twice_exits_zero_with_the_farewell(tmp_path, command):
    extra, needs_upstream, farewell = CASES[command]
    upstream = tmp_path / "upstream.sock"
    sock = tmp_path / "tier.sock"
    procs = []
    try:
        if needs_upstream:
            procs.append(spawn("serve", "--unix", str(upstream), "-j", "0"))
            wait_accepting(procs[-1], upstream)
        argv = [item.format(upstream=upstream) for item in extra]
        procs.append(spawn(command, "--unix", str(sock), *argv))
        wait_accepting(procs[-1], sock)
        stdout = stop(procs[-1])
        assert farewell in stdout
        if needs_upstream:
            assert "drained after" in stop(procs[0])
    finally:
        for proc in procs:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
