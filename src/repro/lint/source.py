"""Parsed source modules and per-rule-family repository scoping.

The rule families do not apply uniformly: wall-clock reads are fine in
the observability exporters but forbidden in the coloring pipeline, and
the engine implementation itself is the one place allowed to touch
``Network._inboxes``.  A :class:`SourceModule` therefore carries, next
to the parsed AST, its path *relative to the* ``repro`` *package* so
rules can scope themselves by package prefix.  Files outside the
package (lint fixtures, ad-hoc scripts) have no relative path and are
treated as fully in scope — every rule applies.

Scoping is *per rule family*, not per module: a package exempt from one
contract can still be bound by another.  ``serve/`` is the canonical
example — it reads clocks and measures latency by design (so the DET
family skips it), yet every RNG it builds must still derive its seed
from the campaign scheme (so the PRV family runs there, and nowhere
stricter rules would drown in noise).  Each family consults its own
scope predicate below instead of a single blanket "deterministic path"
bit.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterator

from repro.lint.pragmas import parse_pragmas

__all__ = [
    "DETERMINISM_EXEMPT_PACKAGES",
    "ENGINE_MODULES",
    "PROVENANCE_SCOPED_MODULES",
    "PROVENANCE_SCOPED_PACKAGES",
    "SourceModule",
    "parse_module",
]

#: DET-family scope-out: package prefixes (relative to ``repro/``)
#: where nondeterminism and wall-clock reads are part of the job —
#: observability timestamps, campaign scheduling, benchmark harnesses,
#: report generation, the linter itself, and the serving layer's
#: latency measurements.  Everything else — the coloring pipeline, the
#: subroutine library, the simulator, graph generators, verifiers — is
#: a *deterministic path*: same inputs and seeds must give bit-identical
#: outputs.  Note this exempts only the DET rules; the PRV provenance
#: family below claws back the RNG discipline for the exempted
#: scheduling/serving code.
DETERMINISM_EXEMPT_PACKAGES = (
    "obs",
    "runner",
    "bench",
    "report",
    "lint",
    # The serving layer measures wall-clock latency, lingers, and
    # deadlines by design; its *results* stay deterministic because it
    # only ever calls the pipelines with explicit (instance, seed).
    "serve",
)

#: PRV-family scope: packages whose wall-clock behavior is sanctioned
#: but whose RNG *provenance* is still contractual — retry backoff,
#: chaos fault rolls, and workload generation must replay byte-identically
#: from ``derive_cell_seed``-derived streams (DESIGN.md §7/§13).
PROVENANCE_SCOPED_PACKAGES = (
    "serve",
    "runner",
)

#: Single modules under PRV scope outside those packages: the fault
#: injector consumes seeded streams inside the engine loop.
PROVENANCE_SCOPED_MODULES = (
    "local/faults.py",
)

#: Engine implementation modules: the only code allowed to own inboxes,
#: deliver messages, and execute runs without charging a ledger (they
#: *produce* the RunResult the ledger rules account for).
ENGINE_MODULES = (
    "local/network.py",
)


@dataclass
class SourceModule:
    """One parsed file plus the derived lookup structures rules need."""

    path: str
    source: str
    tree: ast.Module
    #: Path relative to the ``repro`` package root (POSIX), or None for
    #: files outside the package (fixtures are linted at full strength).
    rel: str | None
    lines: list[str] = field(default_factory=list)
    pragmas: dict[int, frozenset[str]] = field(default_factory=dict)
    _parents: dict[ast.AST, ast.AST] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()
        if not self.pragmas:
            self.pragmas = parse_pragmas(self.source)
        if not self._parents:
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    self._parents[child] = node

    # -- scoping -------------------------------------------------------

    def in_package(self, *prefixes: str) -> bool:
        """True when the module lives under one of the package prefixes."""
        if self.rel is None:
            return False
        return any(
            self.rel == prefix or self.rel.startswith(prefix.rstrip("/") + "/")
            for prefix in prefixes
        )

    @property
    def deterministic_path(self) -> bool:
        """True when the DET determinism rules apply to this module."""
        if self.rel is None:
            return True
        return not self.in_package(*DETERMINISM_EXEMPT_PACKAGES)

    @property
    def provenance_scope(self) -> bool:
        """True when the PRV seed-provenance rules apply to this module.

        Deterministic-path modules are covered too: an unseeded RNG
        there is *also* a DET001 finding, but the provenance argument
        (where did this seed come from?) is its own contract.
        """
        if self.rel is None:
            return True
        if self.deterministic_path:
            return True
        return (
            self.in_package(*PROVENANCE_SCOPED_PACKAGES)
            or self.rel in PROVENANCE_SCOPED_MODULES
        )

    @property
    def engine_module(self) -> bool:
        """True for the simulator implementation itself."""
        return self.rel in ENGINE_MODULES

    # -- AST helpers ---------------------------------------------------

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Yield ancestors innermost-first (excluding the node itself)."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def suppressed(self, lineno: int, rule: str) -> bool:
        return rule in self.pragmas.get(lineno, frozenset())


def _relative_to_package(path: Path) -> str | None:
    parts = PurePosixPath(path.as_posix()).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            # Require a src/ or site-packages layout above so a stray
            # directory named repro/ in a fixture tree does not scope it.
            if index > 0 and parts[index - 1] in ("src", "site-packages"):
                return "/".join(parts[index + 1:])
    return None


def parse_module(path: str | Path) -> SourceModule:
    """Read and parse one file into a :class:`SourceModule`.

    Raises :class:`SyntaxError` for unparseable files; the engine turns
    that into a regular finding so one broken file cannot crash a whole
    lint run.
    """
    file_path = Path(path)
    source = file_path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(file_path))
    return SourceModule(
        path=file_path.as_posix(),
        source=source,
        tree=tree,
        rel=_relative_to_package(file_path),
    )
