"""The lint engine: file discovery, rule dispatch, suppression, baseline.

:func:`run_lint` is the single entry point the CLI and the test suite
share.  The pipeline per file is parse → per-rule ``check`` → pragma
filtering; across files, findings are sorted, then partitioned against
the baseline.  A file that fails to parse yields one ``LNT001``
finding instead of crashing the run — the analyzer must never be the
flakiest tool in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import ReproError
from repro.lint.baseline import Baseline, partition_findings
from repro.lint.findings import Finding
from repro.lint.rules import ALL_RULES, RULES_BY_ID
from repro.lint.rules.base import Rule
from repro.lint.source import SourceModule, parse_module

__all__ = ["LintReport", "run_lint", "select_rules"]


@dataclass
class LintReport:
    """Outcome of one lint run."""

    #: Findings not covered by pragma or baseline — these fail the run.
    new: list[Finding] = field(default_factory=list)
    #: Findings matched by a baseline entry.
    baselined: list[Finding] = field(default_factory=list)
    #: Findings suppressed by an inline pragma.
    suppressed: list[Finding] = field(default_factory=list)
    #: Baseline entries that matched nothing (fixed findings — prune!).
    stale_baseline: list[tuple[str, str, str]] = field(default_factory=list)
    #: Files analyzed.
    files: int = 0

    @property
    def ok(self) -> bool:
        return not self.new

    def all_findings(self) -> list[Finding]:
        return sorted([*self.new, *self.baselined])


def select_rules(select: Iterable[str] | None = None) -> tuple[Rule, ...]:
    """Resolve the active rule set.

    ``select`` names rule ids or family prefixes (``DET``, ``LOC``,
    ``ASY``, ``PRV``, ...) and implies *only* those rules.  Without it,
    every rule runs.
    """
    if select:
        wanted = {token.strip().upper() for token in select if token.strip()}
        chosen: list[Rule] = []
        matched: set[str] = set()
        for rule in ALL_RULES:
            if rule.rule_id in wanted or any(
                rule.rule_id.startswith(prefix) and not prefix[-1:].isdigit()
                for prefix in wanted
            ):
                chosen.append(rule)
                matched.update(
                    token for token in wanted
                    if rule.rule_id == token or rule.rule_id.startswith(token)
                )
        unknown = wanted - matched
        if unknown:
            raise ReproError(
                f"unknown lint rule selector(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(RULES_BY_ID))})"
            )
        return tuple(chosen)
    return ALL_RULES


def discover_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of python files."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise ReproError(f"lint path does not exist: {path}")
    seen: set[Path] = set()
    unique: list[Path] = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def _syntax_error_finding(path: Path, error: SyntaxError) -> Finding:
    return Finding(
        path=path.as_posix(),
        line=error.lineno or 1,
        col=(error.offset or 1) - 1,
        rule="LNT001",
        severity="error",
        message=f"file does not parse: {error.msg}",
        line_text=(error.text or "").strip(),
    )


def lint_module(module: SourceModule, rules: Sequence[Rule]) -> tuple[list[Finding], list[Finding]]:
    """Run the rules over one parsed module; returns (kept, suppressed)."""
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for rule in rules:
        if not rule.applies(module):
            continue
        for finding in rule.check(module):
            if module.suppressed(finding.line, finding.rule):
                suppressed.append(finding)
            else:
                kept.append(finding)
    return kept, suppressed


def run_lint(
    paths: Sequence[str | Path],
    *,
    rules: Sequence[Rule] | None = None,
    baseline: Baseline | None = None,
) -> LintReport:
    """Lint files/directories and return the partitioned report."""
    active = tuple(rules) if rules is not None else select_rules()
    report = LintReport()
    findings: list[Finding] = []
    for path in discover_files(paths):
        report.files += 1
        try:
            module = parse_module(path)
        except SyntaxError as error:
            findings.append(_syntax_error_finding(path, error))
            continue
        kept, suppressed = lint_module(module, active)
        findings.extend(kept)
        report.suppressed.extend(suppressed)
    findings.sort()
    report.suppressed.sort()
    report.new, report.baselined, report.stale_baseline = partition_findings(
        findings, baseline
    )
    return report
