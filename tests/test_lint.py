"""Tests for repro.lint: rules, pragmas, baseline, CLI, and the
meta-invariant that the shipped sources are clean.

The fixture files under ``tests/fixtures/lint/`` are one-violation
snippets: each must yield *exactly* its expected rule ids, which pins
both detection (the rule fires) and precision (nothing else does).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.lint import (
    ALL_RULES,
    Baseline,
    BaselineError,
    RULES_BY_ID,
    load_sarif_schema,
    parse_pragmas,
    render_github,
    render_json,
    render_sarif,
    render_text,
    run_lint,
    sarif_document,
    select_rules,
)

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO_SRC = Path(__file__).parent.parent / "src"

ALL_RULE_IDS = sorted(RULES_BY_ID)


def lint_rules(path, *, baseline=None):
    """Lint one path with every family enabled; return sorted rule ids."""
    report = run_lint([path], rules=select_rules(), baseline=baseline)
    return sorted(finding.rule for finding in report.new)


# ----------------------------------------------------------------------
# Fixture snippets: one expected finding each
# ----------------------------------------------------------------------

EXPECTED_FINDINGS = {
    "loc001_global_read.py": ["LOC001"],
    "loc002_engine_internals.py": ["LOC002"],
    "loc003_network_capture.py": ["LOC003"],
    "det001_global_random.py": ["DET001"],
    "det002_set_iteration.py": ["DET002"],
    "det003_wall_clock.py": ["DET003"],
    "det004_os_entropy.py": ["DET004"],
    "det005_string_hash.py": ["DET005"],
    "led001_chaos_run.py": ["LED001"],
    "led001_discarded_run.py": ["LED001"],
    "led002_unaccounted_run.py": ["LED002"],
    "asy001_blocking_call.py": ["ASY001"] * 4,
    "asy002_unawaited_coroutine.py": ["ASY002"] * 2,
    "asy003_fire_and_forget_task.py": ["ASY003"] * 2,
    "asy004_await_under_sync_lock.py": ["ASY004"],
    "prv001_underived_seed.py": ["PRV001"] * 3,
    "prv002_shared_rng.py": ["PRV002"] * 2,
}


@pytest.mark.parametrize("fixture,expected", sorted(EXPECTED_FINDINGS.items()))
def test_bad_fixture_yields_exactly_expected_rule(fixture, expected):
    assert lint_rules(FIXTURES / fixture) == expected


def test_every_rule_family_has_a_fixture():
    covered = {rule for rules in EXPECTED_FINDINGS.values() for rule in rules}
    assert covered == set(ALL_RULE_IDS)


def test_clean_fixture_has_no_findings():
    assert lint_rules(FIXTURES / "clean_module.py") == []


def test_clean_async_fixture_has_no_findings():
    """Idiomatic asyncio — run_in_executor, stored task handles,
    async-with locks, wrap_future — must pass every ASY rule."""
    assert lint_rules(FIXTURES / "clean_async_module.py") == []


def test_clean_provenance_fixture_has_no_findings():
    """All sanctioned seed idioms — derive_cell_seed, threaded
    parameters, plan attributes, arithmetic over derived values, the
    None-default fallback — must pass both PRV rules."""
    assert lint_rules(FIXTURES / "clean_provenance.py") == []


def test_fixture_directory_is_fully_accounted():
    names = {path.name for path in FIXTURES.glob("*.py")}
    assert set(EXPECTED_FINDINGS) <= names


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------


def test_pragma_fixture_suppresses_everything():
    report = run_lint([FIXTURES / "pragma_exempt.py"], rules=select_rules())
    assert report.new == []
    assert sorted(f.rule for f in report.suppressed) == ["DET002", "DET003"]


def test_pragma_is_rule_scoped():
    pragmas = parse_pragmas("x = 1  # repro: lint-exempt[DET003]\n")
    assert pragmas == {1: frozenset({"DET003"})}


def test_pragma_comma_list():
    pragmas = parse_pragmas("a = 1  # repro: lint-exempt[DET002, LOC001]\n")
    assert pragmas[1] == frozenset({"DET002", "LOC001"})


def test_comment_only_pragma_covers_next_code_line():
    source = "# repro: lint-exempt[DET005]\n\nvalue = hash('x')\n"
    pragmas = parse_pragmas(source)
    assert "DET005" in pragmas[1]
    assert "DET005" in pragmas[3]


def test_pragma_does_not_hide_other_rules(tmp_path):
    bad = tmp_path / "wrong_pragma.py"
    bad.write_text(
        "import time\n\n"
        "def f():\n"
        "    return time.time()  # repro: lint-exempt[DET001]\n"
    )
    assert lint_rules(bad) == ["DET003"]


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------


def test_baseline_round_trip(tmp_path):
    fixture = FIXTURES / "det003_wall_clock.py"
    first = run_lint([fixture])
    assert [f.rule for f in first.new] == ["DET003"]

    baseline_path = tmp_path / "baseline.json"
    Baseline.from_findings(first.new).save(baseline_path)

    second = run_lint([fixture], baseline=Baseline.load(baseline_path))
    assert second.ok
    assert [f.rule for f in second.baselined] == ["DET003"]
    assert second.stale_baseline == []


def test_baseline_reports_stale_entries(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps({
        "version": 1,
        "entries": [
            {"path": "gone.py", "rule": "DET003",
             "line_text": "return time.time()", "count": 1},
        ],
    }))
    report = run_lint(
        [FIXTURES / "clean_module.py"], baseline=Baseline.load(baseline_path)
    )
    assert report.ok
    assert report.stale_baseline == [("gone.py", "DET003", "return time.time()")]


def test_baseline_counts_consume_per_finding(tmp_path):
    bad = tmp_path / "twice.py"
    bad.write_text(
        "import time\n\n"
        "def f():\n"
        "    return time.time(), time.time()\n"
    )
    report = run_lint([bad])
    assert len(report.new) == 2
    baseline = Baseline.from_findings(report.new)
    key = report.new[0].fingerprint()
    assert baseline.counts[key] == 2

    # A baseline admitting only one occurrence leaves the second new.
    baseline.counts[key] = 1
    partial = run_lint([bad], baseline=baseline)
    assert len(partial.new) == 1
    assert len(partial.baselined) == 1


def test_baseline_rejects_bad_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(BaselineError):
        Baseline.load(path)
    path.write_text(json.dumps({"version": 99, "entries": []}))
    with pytest.raises(BaselineError):
        Baseline.load(path)


def test_baseline_survives_line_shifts(tmp_path):
    bad = tmp_path / "shifty.py"
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    baseline = Baseline.from_findings(run_lint([bad]).new)
    # Insert lines above the finding: the fingerprint still matches.
    bad.write_text(
        "import time\n\nPAD = 1\nMORE = 2\n\ndef f():\n    return time.time()\n"
    )
    assert run_lint([bad], baseline=baseline).ok


def test_baseline_rename_surfaces_finding_and_stale_entry(tmp_path):
    # The fingerprint includes the path, so a rename must NOT silently
    # keep the grandfathering: the finding resurfaces as new at its new
    # path and the old entry is reported stale — never a quiet pass.
    bad = tmp_path / "old_name.py"
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    baseline = Baseline.from_findings(run_lint([bad]).new)
    renamed = tmp_path / "new_name.py"
    bad.rename(renamed)
    report = run_lint([renamed], baseline=baseline)
    assert [f.rule for f in report.new] == ["DET003"]
    assert [entry[1] for entry in report.stale_baseline] == ["DET003"]
    assert "old_name.py" in report.stale_baseline[0][0]


def test_update_baseline_never_resurrects_stale_entries(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    bad = tmp_path / "snippet.py"
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    assert main(["lint", str(bad), "--baseline", str(baseline_path),
                 "--update-baseline"]) == 0
    assert len(Baseline.load(baseline_path).counts) == 1
    # Fix the finding, then regenerate: the stale entry must vanish
    # rather than ride along forever (or come back on a later update).
    bad.write_text("def f():\n    return 0\n")
    assert main(["lint", str(bad), "--baseline", str(baseline_path),
                 "--update-baseline"]) == 0
    assert Baseline.load(baseline_path).counts == {}
    assert main(["lint", str(bad), "--baseline", str(baseline_path),
                 "--update-baseline"]) == 0
    assert Baseline.load(baseline_path).counts == {}


# ----------------------------------------------------------------------
# Rule selection and scoping
# ----------------------------------------------------------------------


def test_default_rules_include_every_family():
    default_ids = {rule.rule_id for rule in select_rules()}
    assert {"LOC001", "DET002", "LED001", "ASY001", "PRV001"} <= default_ids


def test_select_asy_and_prv_families():
    asy = select_rules(["ASY"])
    assert sorted(rule.rule_id for rule in asy) == [
        "ASY001", "ASY002", "ASY003", "ASY004",
    ]
    prv = select_rules(["PRV"])
    assert sorted(rule.rule_id for rule in prv) == ["PRV001", "PRV002"]


def test_select_by_family_prefix():
    det = select_rules(["DET"])
    assert sorted(rule.rule_id for rule in det) == [
        "DET001", "DET002", "DET003", "DET004", "DET005",
    ]


def test_select_unknown_rule_raises():
    with pytest.raises(ReproError, match="unknown lint rule"):
        select_rules(["NOPE999"])


def test_determinism_rules_skip_obs_package():
    # repro/obs/spans.py reads the wall clock by design; the DET family
    # must scope itself out of the observability layer.
    report = run_lint(
        [REPO_SRC / "repro" / "obs" / "spans.py"], rules=select_rules(["DET"])
    )
    assert report.ok


def test_determinism_rules_skip_serve_package(tmp_path):
    # The serving layer measures wall-clock latency by design.  The
    # scope-out is path-based, so the same nondeterministic module must
    # lint clean under repro/serve and dirty under repro/core.
    source = "import time\n\n\ndef now() -> float:\n    return time.time()\n"
    serve_mod = tmp_path / "src" / "repro" / "serve" / "timing.py"
    core_mod = tmp_path / "src" / "repro" / "core" / "timing.py"
    for module in (serve_mod, core_mod):
        module.parent.mkdir(parents=True)
        module.write_text(source)
    assert run_lint([serve_mod], rules=select_rules(["DET"])).ok
    dirty = run_lint([core_mod], rules=select_rules(["DET"]))
    assert not dirty.ok
    assert any(f.rule.startswith("DET") for f in dirty.new)


def test_real_serve_sources_are_determinism_exempt():
    report = run_lint(
        [REPO_SRC / "repro" / "serve"], rules=select_rules(["DET"])
    )
    assert report.ok


def test_prv_rules_claw_back_determinism_exempt_serve(tmp_path):
    # serve/ is DET-exempt, but an underived RNG seed there is still a
    # PRV001 finding: provenance scope covers the exempted packages.
    source = (
        "import random\n\n\n"
        "def backoff_rng():\n"
        "    return random.Random(1234)\n"
    )
    serve_mod = tmp_path / "src" / "repro" / "serve" / "retry.py"
    serve_mod.parent.mkdir(parents=True)
    serve_mod.write_text(source)
    report = run_lint([serve_mod], rules=select_rules())
    assert [f.rule for f in report.new] == ["PRV001"]
    # ...while the DET family alone stays silent there.
    assert run_lint([serve_mod], rules=select_rules(["DET"])).ok


def test_engine_module_exempt_from_ledger_rules():
    report = run_lint(
        [REPO_SRC / "repro" / "local" / "network.py"],
        rules=select_rules(["LED"]),
    )
    assert report.ok


def test_only_network_is_an_engine_module():
    """``Network.run`` is the one delivery loop, so only its module is
    exempt from the ledger rules; the fault plan is an ordinary module."""
    from repro.lint.source import ENGINE_MODULES

    assert ENGINE_MODULES == ("local/network.py",)


def test_engine_source_is_fully_clean():
    """The one engine loop passes every rule family with no pragmas."""
    report = run_lint(
        [
            REPO_SRC / "repro" / "local" / "network.py",
            REPO_SRC / "repro" / "local" / "faults.py",
        ],
        rules=select_rules(),
    )
    assert report.ok
    assert report.suppressed == []


# ----------------------------------------------------------------------
# Determinism-rule precision (no false positives on sanctioned shapes)
# ----------------------------------------------------------------------


def check_snippet(tmp_path, source):
    path = tmp_path / "snippet.py"
    path.write_text(source)
    return lint_rules(path)


def test_sorted_iteration_is_clean(tmp_path):
    assert check_snippet(
        tmp_path,
        "def f(vertices):\n"
        "    chosen = {str(v) for v in vertices}\n"
        "    return [c for c in sorted(chosen)]\n",
    ) == []


def test_int_annotated_set_is_clean(tmp_path):
    assert check_snippet(
        tmp_path,
        "def f(vertices: set[int]):\n"
        "    return [v * 2 for v in vertices]\n",
    ) == []


def test_set_of_range_is_clean(tmp_path):
    assert check_snippet(
        tmp_path,
        "def f():\n"
        "    classes = set(range(16))\n"
        "    out = []\n"
        "    for c in classes:\n"
        "        out.append(c)\n"
        "    return out\n",
    ) == []


def test_order_free_consumers_are_clean(tmp_path):
    assert check_snippet(
        tmp_path,
        "def f(words):\n"
        "    bag = {str(w) for w in words}\n"
        "    return sum(len(w) for w in bag), max(len(w) for w in bag)\n",
    ) == []


def test_set_intersection_propagates_kind(tmp_path):
    assert check_snippet(
        tmp_path,
        "def f(names):\n"
        "    left = {str(n) for n in names}\n"
        "    right = left | set()\n"
        "    return [n for n in right]\n",
    ) == ["DET002"]


def test_array_code_does_not_mask_set_iteration(tmp_path):
    """Numpy idioms alongside a genuine unordered-set iteration: the
    array code must stay clean while the true positive still fires —
    there is no vectorized-code carve-out for DET002."""
    assert check_snippet(
        tmp_path,
        "import numpy as np\n"
        "def deliver(dst, labels):\n"
        "    order = np.argsort(dst, kind='stable')\n"
        "    tags = {str(label) for label in labels}\n"
        "    return [t for t in tags], dst[order]\n",
    ) == ["DET002"]


def test_dict_iteration_is_not_flagged(tmp_path):
    # CPython dicts preserve insertion order (language guarantee since
    # 3.7) — only set iteration is hash-ordered.
    assert check_snippet(
        tmp_path,
        "def f(table):\n"
        "    out = []\n"
        "    for key in table:\n"
        "        out.append(key)\n"
        "    return out\n",
    ) == []


def test_seeded_random_instance_is_clean(tmp_path):
    assert check_snippet(
        tmp_path,
        "import random\n\n"
        "def f(seed):\n"
        "    rng = random.Random(seed)\n"
        "    return rng.randrange(10)\n",
    ) == []


def test_from_random_import_flagged(tmp_path):
    assert check_snippet(
        tmp_path, "from random import shuffle\n"
    ) == ["DET001"]


def test_hash_in_dunder_hash_is_clean(tmp_path):
    assert check_snippet(
        tmp_path,
        "class Key:\n"
        "    def __init__(self, parts):\n"
        "        self.parts = parts\n"
        "    def __hash__(self):\n"
        "        return hash(self.parts)\n",
    ) == []


# ----------------------------------------------------------------------
# Ledger-rule escape hatches
# ----------------------------------------------------------------------


def test_run_inside_charging_span_is_clean(tmp_path):
    assert check_snippet(
        tmp_path,
        "from repro.obs.spans import span\n\n"
        "def f(network, algorithm, ledger):\n"
        "    with span('phase', ledger=ledger):\n"
        "        result = network.run(algorithm)\n"
        "        ledger.charge_result('phase', result)\n"
        "    return result.outputs\n",
    ) == []


def test_run_returned_to_caller_is_clean(tmp_path):
    assert check_snippet(
        tmp_path,
        "def f(network, algorithm):\n"
        "    result = network.run(algorithm)\n"
        "    return [1], result\n",
    ) == []


def test_run_forwarded_to_callee_is_clean(tmp_path):
    assert check_snippet(
        tmp_path,
        "def f(network, algorithm, sink):\n"
        "    result = network.run(algorithm)\n"
        "    sink.consume(result)\n"
        "    return None\n",
    ) == []


def test_rounds_read_counts_as_accounted(tmp_path):
    assert check_snippet(
        tmp_path,
        "def f(network, algorithm):\n"
        "    result = network.run(algorithm)\n"
        "    return result.rounds + 1\n",
    ) == []


def test_zero_argument_run_is_ignored(tmp_path):
    # `.run()` of unrelated APIs (e.g. a test runner) is not an engine
    # execution; the rule keys on the algorithm argument.
    assert check_snippet(
        tmp_path,
        "def f(app):\n"
        "    app.run()\n",
    ) == []


# ----------------------------------------------------------------------
# Engine robustness + output formats
# ----------------------------------------------------------------------


def test_syntax_error_becomes_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    report = run_lint([bad])
    assert [f.rule for f in report.new] == ["LNT001"]


def test_missing_path_raises(tmp_path):
    with pytest.raises(ReproError, match="does not exist"):
        run_lint([tmp_path / "missing.py"])


def test_text_output_lists_findings_and_summary():
    report = run_lint([FIXTURES / "det003_wall_clock.py"])
    text = render_text(report)
    assert "DET003" in text
    assert "1 new finding(s)" in text


def test_json_output_shape():
    report = run_lint([FIXTURES / "det005_string_hash.py"])
    document = json.loads(render_json(report))
    assert document["summary"]["new"] == 1
    (finding,) = document["findings"]
    assert finding["rule"] == "DET005"
    assert finding["line"] > 0
    assert set(document["rules"]) == set(ALL_RULE_IDS)


def test_github_output_is_annotation_commands():
    report = run_lint([FIXTURES / "det004_os_entropy.py"])
    lines = render_github(report).splitlines()
    assert lines[0].startswith("::error file=")
    assert "DET004" in lines[0]
    assert lines[-1].startswith("::notice::repro lint:")


def test_github_output_escapes_newlines_and_commas(tmp_path):
    report = run_lint([FIXTURES / "det004_os_entropy.py"])
    for line in render_github(report).splitlines():
        properties = line.split("::")[1]
        assert "\n" not in line
        # Property values must escape commas/colons they contain.
        if "file=" in properties:
            for assignment in properties.split(",")[1:]:
                assert "=" in assignment


# ----------------------------------------------------------------------
# SARIF output
# ----------------------------------------------------------------------


def test_sarif_document_validates_against_schema():
    """The emitted SARIF must satisfy the checked-in subset schema —
    same dependency-free validator the telemetry document uses."""
    from repro.obs.schema import schema_errors

    report = run_lint([FIXTURES / "det003_wall_clock.py"])
    document = sarif_document(report)
    assert schema_errors(document, load_sarif_schema()) == []
    assert document["version"] == "2.1.0"
    (run,) = document["runs"]
    (result,) = run["results"]
    assert result["ruleId"] == "DET003"
    assert result["baselineState"] == "new"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("det003_wall_clock.py")
    assert location["region"]["startLine"] >= 1


def test_sarif_rule_catalog_is_complete():
    report = run_lint([FIXTURES / "clean_module.py"])
    document = sarif_document(report)
    descriptors = document["runs"][0]["tool"]["driver"]["rules"]
    assert {d["id"] for d in descriptors} == set(ALL_RULE_IDS)
    for descriptor in descriptors:
        assert descriptor["shortDescription"]["text"]
        assert descriptor["defaultConfiguration"]["level"] in (
            "error", "warning",
        )


def test_sarif_marks_baselined_findings_unchanged():
    fixture = FIXTURES / "det003_wall_clock.py"
    baseline = Baseline.from_findings(run_lint([fixture]).new)
    document = sarif_document(run_lint([fixture], baseline=baseline))
    (result,) = document["runs"][0]["results"]
    assert result["baselineState"] == "unchanged"
    assert "reproLintFingerprint/v1" in result["partialFingerprints"]


def test_render_sarif_is_valid_json_with_stable_keys():
    report = run_lint([FIXTURES / "det005_string_hash.py"])
    text = render_sarif(report)
    assert json.loads(text)["runs"][0]["results"][0]["ruleId"] == "DET005"
    # sort_keys: byte-stable output for artifact diffing.
    assert text == render_sarif(report)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_exit_zero_on_clean(capsys):
    assert main(["lint", str(FIXTURES / "clean_module.py"), "--no-baseline"]) == 0
    assert "0 new finding(s)" in capsys.readouterr().out


def test_cli_exit_one_on_findings(capsys):
    code = main(["lint", str(FIXTURES / "det001_global_random.py"), "--no-baseline"])
    assert code == 1
    assert "DET001" in capsys.readouterr().out


def test_cli_json_flag(capsys):
    main(["lint", str(FIXTURES / "det001_global_random.py"), "--json",
          "--no-baseline"])
    document = json.loads(capsys.readouterr().out)
    assert document["summary"]["new"] == 1


def test_cli_github_flag(capsys):
    code = main(["lint", str(FIXTURES / "loc002_engine_internals.py"),
                 "--github", "--no-baseline"])
    assert code == 1
    assert "::error file=" in capsys.readouterr().out


def test_cli_sarif_flag(capsys):
    code = main(["lint", str(FIXTURES / "det001_global_random.py"),
                 "--sarif", "--no-baseline"])
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == "2.1.0"
    assert document["runs"][0]["results"][0]["ruleId"] == "DET001"


def test_cli_select_flag(capsys):
    # Selecting only LED on a DET-violating file: clean.
    code = main(["lint", str(FIXTURES / "det001_global_random.py"),
                 "--select", "LED", "--no-baseline"])
    assert code == 0


def test_cli_update_baseline_then_clean(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    fixture = str(FIXTURES / "det002_set_iteration.py")
    assert main(["lint", fixture, "--baseline", str(baseline),
                 "--update-baseline"]) == 0
    assert baseline.exists()
    assert main(["lint", fixture, "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out


def test_cli_unknown_rule_is_error(capsys):
    code = main(["lint", str(FIXTURES / "clean_module.py"),
                 "--select", "BOGUS", "--no-baseline"])
    assert code == 1
    assert "unknown lint rule" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Meta: the shipped tree is clean, and core is clean *without* grace
# ----------------------------------------------------------------------


def test_repro_sources_are_lint_clean():
    """`repro lint src/` against the committed (empty) baseline."""
    baseline_path = Path(__file__).parent.parent / "lint-baseline.json"
    baseline = Baseline.load(baseline_path) if baseline_path.exists() else None
    report = run_lint([REPO_SRC], baseline=baseline)
    assert report.ok, "\n" + render_text(report)


def test_core_has_no_lint_exemptions():
    """src/repro/core/ must be *fixed*, not pragma'd or baselined."""
    core = REPO_SRC / "repro" / "core"
    for path in sorted(core.rglob("*.py")):
        assert "lint-exempt" not in path.read_text(), (
            f"{path} carries a lint-exempt pragma; core findings must be fixed"
        )
    baseline_path = Path(__file__).parent.parent / "lint-baseline.json"
    if baseline_path.exists():
        baseline = Baseline.load(baseline_path)
        core_entries = [
            key for key in baseline.counts if "repro/core/" in key[0]
        ]
        assert core_entries == []


def test_serve_sources_pass_async_and_provenance_rules():
    """The serving plane is the code the ASY/PRV families exist for —
    it must pass them with no pragmas and no baseline grace."""
    report = run_lint(
        [REPO_SRC / "repro" / "serve"], rules=select_rules(["ASY", "PRV"])
    )
    assert report.ok, "\n" + render_text(report)
    assert report.suppressed == []


def test_tools_tree_is_clean_against_its_baseline(monkeypatch):
    """benchmarks/ + scripts/ lint clean against the committed tools
    baseline, with no stale entries riding along.  Fingerprints are
    repo-relative, so lint from the repo root like CI does."""
    repo = Path(__file__).parent.parent
    monkeypatch.chdir(repo)
    baseline = Baseline.load(repo / "lint-baseline-tools.json")
    report = run_lint(["benchmarks", "scripts"], baseline=baseline)
    assert report.ok, "\n" + render_text(report)
    assert report.stale_baseline == []


def test_rule_ids_are_unique_and_stable():
    ids = [rule.rule_id for rule in ALL_RULES]
    assert len(ids) == len(set(ids))
    for rule in ALL_RULES:
        assert rule.severity in ("error", "warning")
        assert rule.title
