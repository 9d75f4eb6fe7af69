"""Build REPORT.md from the benchmark artifacts.

Run the benchmarks first (they drop JSON rows under
``benchmarks/artifacts/``), then::

    python scripts/build_report.py

``--check`` writes nothing and exits 1 when the committed REPORT.md
differs from what the artifacts generate (CI and ``make ci`` run it).

The resulting REPORT.md is the machine-generated companion to the
hand-annotated EXPERIMENTS.md: one markdown table per experiment, raw
numbers only, regenerated from whatever the latest benchmark run
measured.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = ROOT / "benchmarks" / "artifacts"

TITLES = {
    "chaos_drop_sweep": "EC — Chaos: drop rate vs surviving-coloring validity",
    "e1_theorem1_scaling": "E1 — Theorem 1: deterministic rounds vs n",
    "e1b_paper_constants": "E1b — Theorems 1/2 at the paper constants",
    "e2_theorem2_scaling": "E2 — Theorem 2: randomized rounds and shattering",
    "e3_landscape": "E3 — Figure 1: the measured complexity landscape",
    "e3b_girth": "E3b — The DCC barrier: loophole diameter vs rounds",
    "e4_lemma11_ratio": "E4 — Lemma 11: hypergraph slack",
    "e5_matching_balance": "E5 — Lemmas 12/13: the matching cascade",
    "e6_triads_virtual_degree": "E6 — Lemmas 15/16: triads and G_V",
    "e7_round_breakdown": "E7 — Lemma 18: round decomposition",
    "e8_easy_phase": "E8 — Lemma 20: the easy phase",
    "e9_ablations": "E9 — Ablations",
    "e10_subroutines": "E10 — Substrate costs",
    "e11_congest": "E11 — CONGEST bandwidth",
    "e12_sparse_extension": "E12 — Sparse-vertex extension",
}

SKIP = {"e6_figure2_3_structures"}  # raw figure data, not a table


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    if isinstance(value, dict):
        return "; ".join(f"{k}={_cell(v)}" for k, v in sorted(value.items()))
    if isinstance(value, list):
        return ",".join(str(x) for x in value[:8]) + (
            ",..." if len(value) > 8 else ""
        )
    return str(value)


def table_for(rows: list[dict]) -> str:
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(_cell(row.get(c, "")) for c in columns) + " |"
        )
    return "\n".join(lines)


def decomposition_table(rows: list[dict]) -> str:
    """E7-style round decomposition from per-cell telemetry summaries.

    Campaigns run with ``--telemetry`` attach a
    ``repro.obs.telemetry_summary`` to every row; render its top-level
    breakdown as one decomposition row per cell (phases as columns, the
    ledger total last — the columns always sum to it).
    """
    cells = [
        (row.get("label", "?"), row["telemetry"])
        for row in rows
        if isinstance(row.get("telemetry"), dict)
    ]
    if not cells:
        return ""
    phases: list[str] = []
    for _, summary in cells:
        for phase in summary.get("breakdown", {}):
            if phase not in phases:
                phases.append(phase)
    columns = ["label", *phases, "total rounds"]
    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for label, summary in cells:
        breakdown = summary.get("breakdown", {})
        lines.append(
            "| " + " | ".join(
                [label]
                + [str(breakdown.get(phase, 0)) for phase in phases]
                + [str(summary.get("total_rounds", ""))]
            ) + " |"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if REPORT.md is stale instead of rewriting it",
    )
    args = parser.parse_args(argv)
    if not ARTIFACTS.is_dir():
        print(
            "no artifacts found — run `pytest benchmarks/ --benchmark-only` "
            "first",
            file=sys.stderr,
        )
        return 1
    sections = []
    for path in sorted(ARTIFACTS.glob("*.json")):
        name = path.stem
        if name in SKIP:
            continue
        rows = json.loads(path.read_text())
        if not isinstance(rows, list) or not rows:
            continue
        # Failed-cell placeholders (campaigns run with strict=False)
        # carry no numbers; count them in a footnote instead of letting
        # them smear an "error" column across the table.
        errors = [
            row for row in rows
            if isinstance(row, dict)
            and (row.get("status") == "error"
                 or ("error" in row and "rounds" not in row))
        ]
        rows = [row for row in rows if row not in errors]
        if not rows:
            continue
        title = TITLES.get(name, name)
        note = (
            f"\n*({len(errors)} failed cell(s) omitted)*\n" if errors else ""
        )
        # Telemetry summaries get their own decomposition table; the
        # nested dict would otherwise smear into a single giant cell.
        decomposition = decomposition_table(rows)
        if decomposition:
            rows = [
                {k: v for k, v in row.items() if k != "telemetry"}
                for row in rows
            ]
            decomposition = (
                "\n\n**Round decomposition** (from `--telemetry` "
                f"summaries):\n\n{decomposition}"
            )
        sections.append(
            f"## {title}\n\n{table_for(rows)}{decomposition}\n{note}"
        )
    report = (
        "# REPORT — measured experiment tables\n\n"
        "Machine-generated from `benchmarks/artifacts/` by "
        "`scripts/build_report.py`; see EXPERIMENTS.md for the annotated "
        "expected-vs-measured discussion.\n\n" + "\n".join(sections)
    )
    target = ROOT / "REPORT.md"
    if args.check:
        if target.read_text() != report:
            print(
                "REPORT.md is stale: run `python scripts/build_report.py`",
                file=sys.stderr,
            )
            return 1
        print(f"REPORT.md is up to date ({len(sections)} experiment tables)")
        return 0
    target.write_text(report)
    print(f"wrote REPORT.md ({len(sections)} experiment tables)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
