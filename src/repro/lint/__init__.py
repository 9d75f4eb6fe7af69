"""repro.lint — whole-repo static analysis for the evidence chain.

An AST-based static analyzer enforcing the model assumptions the rest
of the evidence chain takes for granted:

* **LOC** — code that executes per-node (``DistributedAlgorithm``
  callbacks) sees only messages, its own neighborhood, and read-only
  config: no ``network.graph`` / ``.adjacency`` / ``._inboxes`` reads.
* **DET** — deterministic paths use no process-global entropy, no wall
  clock, no hash-randomized set iteration order.
* **LED** — every engine execution's rounds reach the
  :class:`~repro.local.ledger.RoundLedger` (directly, via a span, or
  by returning the :class:`RunResult` to a charging caller).
* **ASY** — the asyncio serving plane must not wedge its event loop:
  no blocking calls in coroutines, no dropped coroutine objects or
  task handles, no ``await`` under a synchronous lock.
* **PRV** — every RNG in the serving/scheduling layers derives its
  seed from the campaign scheme (``derive_cell_seed`` / threaded seed
  parameters) and is never shared across connection/cell boundaries.

Scoping is per rule family (see :mod:`repro.lint.source`): ``serve/``
is DET-exempt yet PRV-covered.  Entry points: :func:`run_lint`
(library), ``repro lint`` (CLI, with ``--sarif`` for dashboard
ingestion).  Suppression: ``# repro: lint-exempt[RULE]`` pragmas and a
committed baseline file (see :mod:`repro.lint.baseline`).  DESIGN.md §9
has the full rule catalog and the mapping onto the LOCAL model.
"""

from repro.lint.baseline import Baseline, BaselineError, partition_findings
from repro.lint.engine import LintReport, discover_files, run_lint, select_rules
from repro.lint.findings import Finding
from repro.lint.output import render_github, render_json, render_text
from repro.lint.pragmas import parse_pragmas
from repro.lint.rules import ALL_RULES, RULES_BY_ID
from repro.lint.sarif import load_sarif_schema, render_sarif, sarif_document
from repro.lint.source import SourceModule, parse_module

__all__ = [
    "ALL_RULES",
    "Baseline",
    "BaselineError",
    "Finding",
    "LintReport",
    "RULES_BY_ID",
    "SourceModule",
    "discover_files",
    "load_sarif_schema",
    "parse_module",
    "parse_pragmas",
    "partition_findings",
    "render_github",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
    "sarif_document",
    "select_rules",
]
