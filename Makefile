# Convenience targets for the repro repository.

.PHONY: install test test-all bench bench-pairs perfbench-selftest chaos trace serve-smoke chaos-serve fleet-smoke dist-smoke report examples ci lint lint-repro typecheck clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/ -m "not slow"

test-all:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only -s

# Self-test of the perfbench harness: every workload on tiny inputs,
# every declared metric present, failure paths reported as failures.
perfbench-selftest:
	timeout 600 python3 perfbench/selftest.py

# Interleaved parent/change pairs of one perfbench workload, each tree a
# clean archive with its own bytecode cache; appends an entry (medians,
# quartiles, per-pair ratios, machine) to BENCH_<workload>.json.
#   make bench-pairs WORKLOAD=campaign_remote BASE=HEAD~1 CHANGE=HEAD
WORKLOAD ?= campaign_remote
BASE ?= HEAD~1
CHANGE ?= HEAD
bench-pairs:
	python3 scripts/bench_pairs.py --workload $(WORKLOAD) --base $(BASE) --change $(CHANGE)

# Chaos hardening: engine fault injection + campaign-runner resilience.
chaos:
	PYTHONPATH=src python -m pytest tests/test_faults_chaos.py tests/test_runner_resilience.py -q

# Observability smoke: trace a small instance, validate the JSON
# telemetry against the checked-in schema + consistency invariants.
trace:
	PYTHONPATH=src python scripts/check_telemetry.py

# Serving smoke: boot `repro serve` as a subprocess and assert the
# end-to-end contract (byte-match vs direct call, cache hit, load
# shedding, SIGTERM drain).  Bounded: a hung server must fail, not stall.
serve-smoke:
	PYTHONPATH=src timeout 300 python scripts/serve_smoke.py

# Chaos serving smoke: `repro serve` behind a seeded `repro chaosproxy`,
# driven through the resilient client.  Asserts 100% completion with
# byte-identical responses vs the fault-free run (DESIGN.md section 13).
chaos-serve:
	PYTHONPATH=src timeout 300 python scripts/chaos_serve_smoke.py

# Fleet smoke: 2-shard `repro fleet` behind the consistent-hash router,
# byte-identical to a single-server baseline, one shard SIGKILLed
# mid-run (re-route + supervisor restart), SIGTERM cascade drain
# (DESIGN.md section 14).
fleet-smoke:
	PYTHONPATH=src timeout 300 python scripts/fleet_smoke.py

# Distributed campaign smoke: run_campaign(executor="remote") against a
# live 2-shard serve fleet — byte-identical to the inline executor, and
# 100% cell completion with one shard SIGKILLed mid-campaign
# (DESIGN.md section 15).
dist-smoke:
	PYTHONPATH=src timeout 300 python scripts/dist_smoke.py

# Mirrors .github/workflows/ci.yml: tier-1 suite + smokes + lint.
ci:
	PYTHONPATH=src python -m pytest -x -q
	$(MAKE) trace
	$(MAKE) serve-smoke
	$(MAKE) chaos-serve
	$(MAKE) fleet-smoke
	$(MAKE) dist-smoke
	$(MAKE) examples
	$(MAKE) perfbench-selftest
	python scripts/build_report.py --check
	$(MAKE) lint
	$(MAKE) lint-repro
	$(MAKE) typecheck

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

# The repo's own static analyzer: LOCAL-model locality, determinism,
# ledger accounting (see DESIGN.md section 9).  Always available — it is
# part of the package and needs no third-party tools.
lint-repro:
	PYTHONPATH=src python -m repro.cli lint src
	PYTHONPATH=src python -m repro.cli lint benchmarks scripts --baseline lint-baseline-tools.json

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping typecheck (CI runs it)"; \
	fi

report: 
	python scripts/build_report.py

# The examples drive `general`, the GHKM-style and DCC baselines through
# the public API, which the tier-1 suite reaches only via unit tests.
examples:
	PYTHONPATH=src python examples/quickstart.py
	PYTHONPATH=src python examples/anatomy_of_a_run.py
	PYTHONPATH=src python examples/custom_graph.py
	PYTHONPATH=src python examples/sparse_extension.py
	PYTHONPATH=src python examples/complexity_landscape.py
	PYTHONPATH=src python examples/write_your_own_algorithm.py

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
