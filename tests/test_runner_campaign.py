"""Tests for the parallel campaign runner (:mod:`repro.runner`)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.runner import (
    CampaignCell,
    cell_from_json,
    cell_to_json,
    cells_from_spec,
    derive_cell_seed,
    e2b_sample,
    e2b_summary_row,
    preset_cells,
    run_campaign,
    run_cell,
)

#: Small enough to run in a test, large enough to exercise the pipeline.
SMALL = dict(workload="hard", num_cliques=16, delta=8, epsilon=0.25)


def small_cells(seeds=(0, 1)) -> list[CampaignCell]:
    return [
        CampaignCell(label=f"seed={seed}", seed=seed, **SMALL)
        for seed in seeds
    ]


class TestRunCell:
    def test_row_shape(self):
        row = run_cell(small_cells()[0])
        assert row["label"] == "seed=0"
        assert row["seed"] == 0
        assert row["rounds"] > 0 and row["messages"] > 0
        assert row["delta"] == 8
        assert isinstance(row["breakdown"], dict)
        assert "shattering" in row  # randomized runs carry shattering stats

    def test_deterministic_method(self):
        cell = CampaignCell(label="det", method="deterministic", **SMALL)
        row = run_cell(cell)
        assert row["rounds"] > 0
        assert "shattering" not in row

    def test_unknown_workload_rejected(self):
        with pytest.raises(ReproError, match="workload"):
            run_cell(CampaignCell(label="bad", workload="nope"))

    def test_unknown_method_rejected(self):
        with pytest.raises(ReproError, match="method"):
            run_cell(CampaignCell(label="bad", method="nope", **SMALL))

    def test_cell_is_deterministic(self):
        cell = small_cells()[0]
        first, second = run_cell(cell), run_cell(cell)
        # Rows carry no volatile fields at all (the checkpoint/resume
        # byte-identity guarantee relies on this).
        assert first == second

    def test_unknown_engine_rejected(self):
        """There is one engine, so a wire cell naming one is malformed."""
        wire = {**cell_to_json(small_cells()[0]), "engine": "fast"}
        with pytest.raises(ReproError, match="engine"):
            cell_from_json(wire)

    @pytest.mark.parametrize("method", ["randomized", "deterministic"])
    def test_seed_engine_rows_are_byte_identical(self, method):
        """The same cell replayed on the seed engine must serialize to
        exactly the bytes ``Network.run`` produces (the artifact
        contract rests on engine parity)."""
        from tests.legacy_engine import force_legacy_engine

        cell = CampaignCell(label="parity", seed=0, **{**SMALL, "method": method})
        row = run_cell(cell)
        with force_legacy_engine():
            seed_row = run_cell(cell)
        assert json.dumps(seed_row, sort_keys=True) == json.dumps(
            row, sort_keys=True
        )

    def test_clique_check_runs_once_per_graph(self, monkeypatch):
        """The inline and pool executors cache the (Delta+1)-clique
        verdict next to the classification: two cells over one graph
        run the check once, not once per cell."""
        import repro.bench.workloads as workloads
        import repro.core.deterministic as deterministic

        calls: list[int] = []
        check = deterministic.assert_no_delta_plus_one_clique

        def counted(network):
            calls.append(network.n)
            check(network)

        monkeypatch.setattr(workloads, "assert_no_delta_plus_one_clique", counted)
        monkeypatch.setattr(deterministic, "assert_no_delta_plus_one_clique", counted)
        workloads.workload_clique_free.cache_clear()
        run_cell(CampaignCell(label="det", method="deterministic", **SMALL))
        run_cell(small_cells()[0])
        assert calls == [16 * 8]


    def test_mixed_cell_setup_matches_its_graph(self, monkeypatch):
        """A mixed cell with the default ``easy_fraction=0.0`` is colored
        on the mixed graph, and its cached classification and clique
        check are of that graph, not of the hard graph of equal size."""
        import repro.bench.workloads as workloads
        import repro.runner.campaign as campaign
        from repro.acd import compute_acd
        from repro.core.hardness import classify_cliques

        cell = CampaignCell(
            label="mixed", workload="mixed", num_cliques=16, delta=8,
            epsilon=0.25, graph_seed=1,
        )
        network = campaign._build_instance(cell).network
        checked: list = []
        classified: list = []

        def recording_classify(graph, acd):
            classified.append(graph)
            return classify_cliques(graph, acd)

        monkeypatch.setattr(
            workloads, "assert_no_delta_plus_one_clique", checked.append
        )
        monkeypatch.setattr(workloads, "classify_cliques", recording_classify)
        workloads.workload_classification.cache_clear()
        workloads.workload_clique_free.cache_clear()
        seen: dict = {}

        def capture(cell, network, delta, classification_for, validated):
            seen["network"] = network
            seen["classification"] = classification_for(cell.epsilon)
            validated()
            return {}

        monkeypatch.setattr(campaign, "_execute_cell", capture)
        run_cell(cell)
        assert seen["network"] is network
        assert classified == [network]
        assert seen["classification"] == classify_cliques(
            network, compute_acd(network, epsilon=0.25)
        )
        assert checked == [network]

class TestRunCampaign:
    def test_rows_in_cell_order(self):
        result = run_campaign(small_cells((3, 1, 2)))
        assert [row["seed"] for row in result.rows] == [3, 1, 2]

    def test_process_pool_matches_inline(self):
        cells = small_cells((0, 1, 2, 3))
        inline = run_campaign(cells, jobs=1)
        pooled = run_campaign(cells, jobs=2)
        # Scheduling must not leak into results.
        assert inline.rows == pooled.rows
        assert pooled.jobs == 2

    def test_derived_seeds_are_stable(self):
        cells = [CampaignCell(label="a", **SMALL), CampaignCell(label="b", **SMALL)]
        first = run_campaign(cells, base_seed=5)
        second = run_campaign(cells, base_seed=5)
        assert [c.seed for c in first.cells] == [c.seed for c in second.cells]
        assert first.cells[0].seed != first.cells[1].seed
        assert first.cells[0].seed == derive_cell_seed(5, 0, "a")

    def test_progress_callback(self):
        seen = []
        run_campaign(
            small_cells((0,)),
            progress=lambda done, total, label: seen.append((done, total, label)),
        )
        assert seen == [(1, 1, "seed=0")]

    def test_strict_failure_raises(self):
        bad = CampaignCell(label="bad", workload="nope")
        with pytest.raises(ReproError):
            run_campaign([bad])

    def test_non_strict_records_failure(self):
        cells = [CampaignCell(label="bad", workload="nope"), *small_cells((0,))]
        result = run_campaign(cells, strict=False)
        assert result.failures and result.failures[0]["label"] == "bad"
        assert result.rows[0]["error"]
        assert result.rows[0]["status"] == "error"
        assert result.rows[1]["seed"] == 0

    def test_summary(self):
        result = run_campaign(small_cells((0, 1)))
        summary = result.summary("rounds")
        assert summary["min"] <= summary["mean"] <= summary["max"]

    def test_write(self, tmp_path):
        result = run_campaign(small_cells((0,)))
        path = result.write(tmp_path / "out" / "rows.json")
        assert json.loads(path.read_text())[0]["seed"] == 0


class TestSpec:
    def test_explicit_cells(self):
        cells = cells_from_spec(
            {"cells": [{"label": "x", "num_cliques": 16, "delta": 8}]}
        )
        assert cells[0].label == "x"
        assert cells[0].num_cliques == 16

    def test_grid_product(self):
        cells = cells_from_spec(
            {"grid": {"num_cliques": [16, 32], "seed": [0, 1], "delta": 8}}
        )
        assert len(cells) == 4
        assert cells[0].label == "num_cliques=16 delta=8 seed=0"
        assert [ (c.num_cliques, c.seed) for c in cells ] == [
            (16, 0), (16, 1), (32, 0), (32, 1)
        ]

    def test_grid_options(self):
        cells = cells_from_spec(
            {"grid": {"seed": [0], "options": {"activation_probability": 0.5}}}
        )
        assert cells[0].option_dict() == {"activation_probability": 0.5}

    def test_grid_engine_field(self):
        # Engine selection is gone: "engine" is an unknown grid field.
        with pytest.raises(ReproError, match="engine"):
            cells_from_spec({"grid": {"num_cliques": [16], "engine": ["fast"]}})

    def test_unknown_grid_field_rejected(self):
        with pytest.raises(ReproError, match="grid fields"):
            cells_from_spec({"grid": {"bogus": [1]}})

    def test_empty_spec_rejected(self):
        with pytest.raises(ReproError, match="no cells"):
            cells_from_spec({})


class TestPresets:
    def test_known_presets(self):
        assert len(preset_cells("e2b")) == 24
        assert all(c.method == "randomized" for c in preset_cells("e2"))

    def test_unknown_preset(self):
        with pytest.raises(ReproError, match="preset"):
            preset_cells("nope")

    def test_e2b_row_shaping(self):
        samples = [
            {"seed": s, "rounds": 40 + s,
             "shattering": {"good": 5, "bad_cliques": 0, "max_component": 0}}
            for s in (0, 1)
        ]
        shaped = [e2b_sample(row) for row in samples]
        assert shaped[0] == {
            "seed": 0, "rounds": 40, "t_nodes": 5,
            "bad_cliques": 0, "max_component": 0,
        }
        summary = e2b_summary_row(shaped)
        assert summary["seed"] == "SUMMARY"
        assert summary["rounds"].startswith("40..41")


class TestCli:
    def test_campaign_spec_cli(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"name": "tiny",
             "grid": {"num_cliques": 16, "delta": 8, "epsilon": 0.25,
                      "seed": [0, 1]}}
        ))
        out = tmp_path / "rows.json"
        assert main([
            "campaign", "--spec", str(spec), "-o", str(out), "--quiet",
        ]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        assert {row["seed"] for row in rows} == {0, 1}
        assert "campaign tiny" in capsys.readouterr().out

    def test_campaign_preset_listed_in_help(self):
        from repro.cli import build_parser

        # Smoke: the parser accepts the presets wired from the runner.
        args = build_parser().parse_args(["campaign", "--preset", "e2b"])
        assert args.preset == "e2b"
