"""Inline suppression pragmas.

A pragma comment suppresses findings on the line it annotates (or,
for a comment-only line, on the next code line below it)::

    colors = {hash(tag)}  # repro: lint-exempt[DET005] -- tag set is per-run

    # repro: lint-exempt[DET002] -- consumed order-free below
    labels = [label for label in tag_set]

``lint-exempt`` takes a bracketed comma-separated list of rule ids.
Pragmas are deliberately rule-scoped — there is no blanket
``lint-exempt`` without brackets — so a suppression can never hide a
*different* rule that later starts firing on the same line.
"""

from __future__ import annotations

import re

__all__ = ["parse_pragmas"]

_EXEMPT = re.compile(r"#\s*repro:\s*lint-exempt\[([A-Z0-9,\s]+)\]")
_COMMENT_ONLY = re.compile(r"^\s*#")


def parse_pragmas(source: str) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the rule ids suppressed there.

    A pragma on a comment-only line also covers the next non-blank
    line, so a suppression can sit *above* a long statement.  Pragmas
    inside string literals are intentionally honored too: the parser is
    line-based for speed, and a pragma-shaped string literal in lint
    fixtures is a feature, not a bug.
    """
    suppressions: dict[int, set[str]] = {}
    lines = source.splitlines()
    for lineno, text in enumerate(lines, start=1):
        match = _EXEMPT.search(text)
        if not match:
            continue
        rules = {
            rule.strip() for rule in match.group(1).split(",") if rule.strip()
        }
        if not rules:
            continue
        suppressions.setdefault(lineno, set()).update(rules)
        if _COMMENT_ONLY.match(text):
            # Attach to the next non-blank line as well.
            for below in range(lineno + 1, len(lines) + 1):
                if lines[below - 1].strip():
                    suppressions.setdefault(below, set()).update(rules)
                    break
    return {lineno: frozenset(rules) for lineno, rules in suppressions.items()}
