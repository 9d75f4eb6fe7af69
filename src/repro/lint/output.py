"""Output renderers: terminal text, machine JSON, GitHub annotations.

The GitHub format emits `workflow commands
<https://docs.github.com/en/actions/reference/workflow-commands>`_
(``::error file=...,line=...::message``) that the Actions runner turns
into inline annotations on the PR diff — so a locality violation shows
up attached to the exact line that escaped the LOCAL model.
"""

from __future__ import annotations

import json

from repro.lint.engine import LintReport
from repro.lint.findings import Finding
from repro.lint.rules import ALL_RULES

__all__ = ["render_github", "render_json", "render_text"]


def _format_finding(finding: Finding) -> str:
    return (
        f"{finding.path}:{finding.line}:{finding.col + 1}: "
        f"{finding.rule} {finding.severity}: {finding.message}"
    )


def render_text(report: LintReport, *, verbose: bool = False) -> str:
    """Human-readable report, one finding per line plus a summary."""
    lines: list[str] = []
    for finding in report.new:
        lines.append(_format_finding(finding))
    if verbose and report.baselined:
        lines.append("")
        lines.append(f"baselined ({len(report.baselined)} grandfathered):")
        lines.extend(f"  {_format_finding(f)}" for f in report.baselined)
    if report.stale_baseline:
        lines.append("")
        lines.append(
            f"stale baseline entries ({len(report.stale_baseline)}) — the "
            "findings were fixed; prune with --update-baseline:"
        )
        lines.extend(
            f"  {path}: {rule}: {text!r}"
            for path, rule, text in report.stale_baseline
        )
    summary = (
        f"{report.files} files: {len(report.new)} new finding(s), "
        f"{len(report.baselined)} baselined, "
        f"{len(report.suppressed)} pragma-suppressed"
    )
    if lines:
        lines.append("")
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable document (stable key order)."""
    document = {
        "version": 1,
        "files": report.files,
        "summary": {
            "new": len(report.new),
            "baselined": len(report.baselined),
            "suppressed": len(report.suppressed),
            "stale_baseline": len(report.stale_baseline),
        },
        "rules": {
            rule.rule_id: {"title": rule.title, "severity": rule.severity}
            for rule in ALL_RULES
        },
        "findings": [finding.to_dict() for finding in report.new],
        "baselined": [finding.to_dict() for finding in report.baselined],
        "stale_baseline": [
            {"path": path, "rule": rule, "line_text": text}
            for path, rule, text in report.stale_baseline
        ],
    }
    return json.dumps(document, indent=1, sort_keys=True)


def _escape_annotation(value: str) -> str:
    """Escape per the workflow-command property/data grammar."""
    return (
        value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def _escape_property(value: str) -> str:
    return _escape_annotation(value).replace(":", "%3A").replace(",", "%2C")


def render_github(report: LintReport) -> str:
    """GitHub Actions annotations, one workflow command per finding."""
    lines: list[str] = []
    for finding in report.new:
        level = "error" if finding.severity == "error" else "warning"
        lines.append(
            f"::{level} file={_escape_property(finding.path)},"
            f"line={finding.line},col={finding.col + 1},"
            f"title={_escape_property(finding.rule)}::"
            f"{_escape_annotation(finding.message)}"
        )
    lines.append(
        f"::notice::repro lint: {report.files} files, "
        f"{len(report.new)} new finding(s), {len(report.baselined)} baselined"
    )
    return "\n".join(lines)
