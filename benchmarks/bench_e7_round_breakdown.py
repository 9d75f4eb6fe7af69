"""E7 — Lemma 18: the round-complexity decomposition, measured.

Lemma 18 bounds Algorithm 2 by T_MM + T_SP + T_deg+1 + T_HEG; this
bench reports each term's measured share at two scales (and the easy
phase's Lemma 20 terms on a mixed instance).
"""

from __future__ import annotations

import pytest

from repro.bench import (
    bench_params,
    hard_workload,
    mixed_workload,
    print_table,
    record_result,
    save_artifact,
    workload_classification,
)
from repro.core import delta_color_deterministic

_ROWS: list[dict] = []

CASES = {
    "hard t=68": (68, 0.0),
    "hard t=272": (272, 0.0),
    "mixed t=136": (136, 0.25),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_round_breakdown(benchmark, once, case):
    num_cliques, easy_fraction = CASES[case]
    if easy_fraction:
        instance = mixed_workload(num_cliques, easy_fraction=easy_fraction)
    else:
        instance = hard_workload(num_cliques)
    classification = workload_classification(
        num_cliques, easy_fraction=easy_fraction,
        workload="mixed" if easy_fraction else "hard",
    )
    result = once(
        benchmark,
        delta_color_deterministic,
        instance.network,
        params=bench_params(),
        classification=classification,
    )
    record_result(benchmark, result)
    ledger = result.ledger
    _ROWS.append(
        {
            "label": case,
            "total": result.rounds,
            "T_MM": ledger.rounds_for("hard/phase1/maximal-matching"),
            "T_HEG": ledger.rounds_for("hard/phase1/heg"),
            "T_SP": ledger.rounds_for("hard/phase2"),
            "T_deg+1": (
                ledger.rounds_for("hard/phase4")
                + ledger.rounds_for("easy/layer")
            ),
            "easy_rest": (
                ledger.rounds_for("easy/ruling-set")
                + ledger.rounds_for("easy/bfs-layering")
                + ledger.rounds_for("easy/loophole-bruteforce")
            ),
        }
    )


def teardown_module(module):
    if not _ROWS:
        return
    print_table(
        ["case", "total", "T_MM", "T_HEG", "T_SP (splitting)",
         "T_deg+1 (sweeps)", "easy phase (Lemma 20)"],
        [
            [r["label"], r["total"], r["T_MM"], r["T_HEG"], r["T_SP"],
             r["T_deg+1"], r["easy_rest"]]
            for r in _ROWS
        ],
        title="E7 / Lemma 18: per-subroutine round decomposition",
    )
    save_artifact("e7_round_breakdown", _ROWS)
