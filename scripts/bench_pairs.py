"""Interleaved parent/change pairs of one perfbench workload.

    python3 scripts/bench_pairs.py --workload campaign_remote \
        --base HEAD~1 --change HEAD --seeds 101 102 103 104 105 7919

Each side is a clean ``git archive`` of its commit in a temporary
directory, so neither sees the other's files or this checkout's
uncommitted edits.  Each side also gets its own, initially empty,
``PYTHONPYCACHEPREFIX`` with bytecode writing on: a shared or stale
``__pycache__`` makes one side recompile modules the other loads from
cache, and every spawned backend pays that again.  Pair ``i`` runs
``perfbench/run.py --workload W --seed seeds[i] --trace 0`` on both
sides, base first on even ``i`` and change first on odd ``i``, for
``BENCHMARK.json``'s ``run_seconds``: every entry runs at that one
length, so entries stay comparable.  For a short exploratory run, call
``perfbench/run.py`` directly.

The entry appended to ``BENCH_<workload>.json`` (a JSON list, one entry
per invocation) records both commits, the seeds, every run's metrics
and failure counts, each side's median and quartiles per end-to-end
metric, the per-pair ratios change/base and their median, the pairs
won and lost (direction from ``BENCHMARK.json``), and the machine
fingerprint perfbench reports.
Exit status is 1 when a run printed no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
#: Bounds one run: perfbench's own run deadline plus set-up and reaping.
RUN_TIMEOUT_S = 600


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()


def checkout(rev: str, into: Path) -> dict[str, str]:
    """Extract ``rev``'s tree into ``into``; return its identity."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    into.mkdir()
    with subprocess.Popen(
        ["git", "archive", "--format=tar", commit],
        cwd=ROOT, stdout=subprocess.PIPE,
    ) as archive:
        subprocess.run(
            ["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True
        )
    if archive.returncode:
        raise SystemExit(f"git archive {commit} failed")
    return {"commit": commit, "subject": git("log", "-1", "--format=%s", commit)}


def run_once(
    tree: Path, pycache: Path, workload: str, seed: int, seconds: float
) -> dict[str, Any]:
    """One perfbench run; its result line and provenance."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    completed = subprocess.run(
        command, cwd=tree, env=env, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S,
    )
    result: dict[str, Any] | None = None
    provenance: dict[str, Any] = {}
    for line in completed.stdout.splitlines():
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None:
        raise SystemExit(
            f"{tree.name} seed {seed}: no result (exit "
            f"{completed.returncode})\n{completed.stderr[-2000:]}"
        )
    return {"result": result, "provenance": provenance}


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(
    pairs: list[dict[str, Any]], declared: list[dict[str, Any]]
) -> dict[str, Any]:
    summary: dict[str, Any] = {}
    for metric in declared:
        name = metric["name"]
        base = [pair["base"]["metrics"].get(name) for pair in pairs]
        change = [pair["change"]["metrics"].get(name) for pair in pairs]
        if None in base or None in change:
            continue
        sign = 1 if metric["better"] == "higher" else -1
        ratios = [c / b if b else None for b, c in zip(base, change)]
        defined = [ratio for ratio in ratios if ratio is not None]
        summary[name] = {
            "base": quartiles(base),
            "change": quartiles(change),
            "ratios": ratios,
            "ratio_median": statistics.median(defined) if defined else None,
            "wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
            "losses": sum(sign * (c - b) < 0 for b, c in zip(base, change)),
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[101, 102, 103, 104, 105, 7919])
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    pairs: list[dict[str, Any]] = []
    fingerprint: dict[str, Any] = {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {
            side: (Path(scratch) / side, Path(scratch) / f"{side}-pycache")
            for side in ("base", "change")
        }
        commits = {
            side: checkout(rev, trees[side][0])
            for side, rev in (("base", args.base), ("change", args.change))
        }
        for index, seed in enumerate(args.seeds):
            order = ("base", "change") if index % 2 == 0 else ("change", "base")
            pair: dict[str, Any] = {"seed": seed, "first": order[0]}
            for side in order:
                tree, pycache = trees[side]
                run = run_once(tree, pycache, args.workload, seed, seconds)
                fingerprint = run["provenance"].get("machine", fingerprint)
                result = run["result"]
                pair[side] = {
                    **{key: result.get(key)
                       for key in ("attempted", "failed", "correct")},
                    "metrics": {
                        name: metric["value"]
                        for name, metric in result["metrics"].items()
                    },
                }
            print(json.dumps(pair), flush=True)
            pairs.append(pair)

    entry = {
        "workload": args.workload,
        "seconds": seconds,
        "seeds": args.seeds,
        "base": commits["base"],
        "change": commits["change"],
        "machine": fingerprint,
        "summary": summarize(pairs, benchmark["end_to_end"]),
        "pairs": pairs,
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    history = json.loads(out.read_text()) if out.exists() else []
    history.append(entry)
    out.write_text(json.dumps(history, indent=1) + "\n")
    print(f"appended an entry to {out.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
