"""CLI error paths and less-traveled options."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["paint"])


class TestErrorPaths:
    def test_color_sparse_instance_fails_cleanly(self, tmp_path, capsys):
        from repro.graphs import save_instance, sparse_dense_mix

        path = tmp_path / "sparse.json"
        save_instance(sparse_dense_mix(34, 16, seed=1), path)
        code = main(["color", str(path), "--method", "randomized"])
        assert code == 1
        assert "not dense" in capsys.readouterr().err

    def test_info_on_sparse_instance(self, tmp_path, capsys):
        from repro.graphs import save_instance, sparse_dense_mix

        path = tmp_path / "sparse.json"
        save_instance(sparse_dense_mix(34, 16, seed=1), path)
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dense=False" in out

    def test_generate_bad_parameters(self, tmp_path, capsys):
        code = main([
            "generate", "--kind", "hard", "--cliques", "5", "--delta",
            "16", "-o", str(tmp_path / "x.json"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_verify_mismatched_length(self, tmp_path, capsys):
        from repro.graphs import hard_clique_graph, save_instance

        instance_path = tmp_path / "i.json"
        save_instance(hard_clique_graph(34, 16), instance_path)
        bad = tmp_path / "c.json"
        bad.write_text(json.dumps(
            {"format": 1, "num_colors": 16, "colors": [0, 1]}
        ))
        assert main(["verify", str(instance_path), str(bad)]) == 1
        assert "entries" in capsys.readouterr().err


class TestPgGeneration:
    def test_pg_roundtrip_and_info(self, tmp_path, capsys):
        path = tmp_path / "pg.json"
        assert main(["generate", "--kind", "pg", "--q", "7",
                     "-o", str(path)]) == 0
        assert main(["info", str(path), "--epsilon", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "114 hard" in out


class TestServeArgs:
    @pytest.mark.parametrize("argv, fragment", [
        (["serve", "--max-batch", "0"], "--max-batch"),
        (["serve", "--jobs", "-1"], "--jobs"),
        (["serve", "--linger-ms", "-1"], "--linger-ms"),
        (["serve", "--max-queue", "0"], "--max-queue"),
        (["serve", "--cache-size", "-1"], "--cache-size"),
        (["serve", "--deadline-ms", "0"], "--deadline-ms"),
        (["serve", "--cache-dir", "/tmp/c", "--cache-max-bytes", "0"],
         "--cache-max-bytes"),
        (["serve", "--cache-max-bytes", "1024"], "--cache-dir"),
    ])
    def test_serve_rejects_bad_knobs(self, argv, fragment, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err and fragment in err


class TestRouterArgs:
    def test_router_requires_a_shard(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["router"])

    @pytest.mark.parametrize("argv, fragment", [
        (["router", "--shard", "unix:/tmp/a.sock", "--vnodes", "0"],
         "vnodes"),
        (["router", "--shard", "unix:/tmp/a.sock", "--attempts", "0"],
         "attempts"),
        (["router", "--shard", "unix:/tmp/a.sock", "--timeout-ms", "0"],
         "timeout_ms"),
        (["router", "--shard", "unix:/tmp/a.sock", "--max-inflight", "0"],
         "max_inflight"),
        (["router", "--shard", "unix:/tmp/a.sock",
          "--shard", "unix:/tmp/a.sock"], "duplicate"),
    ])
    def test_router_rejects_bad_knobs(self, argv, fragment, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err and fragment in err


class TestFleetArgs:
    @pytest.mark.parametrize("argv, fragment", [
        (["fleet", "--shards", "0"], "shards"),
        (["fleet", "--jobs", "-1"], "jobs"),
        (["fleet", "--drain-timeout", "0"], "drain_timeout"),
        (["fleet", "--max-restarts", "-1"], "max_restarts"),
        (["fleet", "--cache-max-bytes", "0"], "cache_max_bytes"),
    ])
    def test_fleet_rejects_bad_knobs(self, argv, fragment, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err and fragment in err
