"""Ledger-accounting rules: no simulated rounds escape telemetry.

The obs invariant — per-phase rounds sum *exactly* to
``RoundLedger.total_rounds`` — only holds if every engine execution's
cost reaches a ledger.  The codebase has three sanctioned shapes:

1. charge at the call site (``ledger.charge_result(label, result)``),
2. run inside a ``with span(label, ledger=ledger):`` block whose body
   charges, or
3. *return* the :class:`RunResult` (or its rounds) to the caller, who
   then charges — the subroutine-library contract.

A ``Network.run(...)`` whose result is discarded, or used only for its
outputs with the round count never escaping the function, silently
under-reports the LOCAL complexity we compare against the paper's
``min{Õ(log^(5/3) n), O(Delta + log n)}`` bound.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, dotted_name, walk_scope
from repro.lint.source import SourceModule

__all__ = ["DiscardedRunResult", "UnaccountedRun"]

#: Call shapes that execute the engine.
RUN_METHOD_NAMES = frozenset({"run"})

#: Ledger methods that record cost.
CHARGE_METHODS = frozenset({"charge", "charge_result", "merge"})

#: Attribute reads on a RunResult that propagate its cost.
COST_ATTRS = frozenset({"rounds", "messages"})

#: Well-known stdlib ``<module>.run(...)`` shapes that execute no
#: simulator rounds: ``asyncio.run(main())`` at an entrypoint and
#: ``subprocess.run([...])`` in a harness look identical to
#: ``network.run(alg)`` by attribute name alone.
_STDLIB_RUN_OWNERS = frozenset({"asyncio", "subprocess", "trio", "anyio"})


def _is_engine_run_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in RUN_METHOD_NAMES:
        if (
            isinstance(func.value, ast.Name)
            and func.value.id in _STDLIB_RUN_OWNERS
        ):
            return False
        # `<expr>.run(algorithm)`: require at least one argument so that
        # zero-argument .run() calls of unrelated APIs don't trip this.
        return bool(node.args or node.keywords)
    return False


def _module_in_scope(module: SourceModule) -> bool:
    if module.engine_module:
        return False  # the engine produces RunResults; it cannot charge them
    if module.rel is None:
        return True
    return not module.in_package("obs", "lint", "report", "analysis")


class _LedgerRule(Rule):
    def applies(self, module: SourceModule) -> bool:
        return _module_in_scope(module)

    def _run_calls(self, module: SourceModule) -> Iterator[ast.Call]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and _is_engine_run_call(node):
                yield node


def _within_span(module: SourceModule, node: ast.AST) -> bool:
    """True when the node sits lexically inside a ``with span(...)``."""
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, ast.With):
            for item in ancestor.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    name = dotted_name(expr.func)
                    if name == "span" or name.endswith(".span"):
                        return True
    return False


def _scope_charges_ledger(scope: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in CHARGE_METHODS
        for node in walk_scope(scope)
    )


class DiscardedRunResult(_LedgerRule):
    """LED001: an engine run's result is thrown away.

    ``network.run(alg)`` as a bare statement (or assigned to ``_``)
    discards the only record of the rounds just simulated — they can
    never reach the ledger or the telemetry document.
    """

    rule_id = "LED001"
    title = "engine RunResult discarded"
    severity = "error"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for call in self._run_calls(module):
            parent = module.parent(call)
            discarded = isinstance(parent, ast.Expr)
            if (
                isinstance(parent, ast.Assign)
                and all(
                    isinstance(target, ast.Name) and target.id == "_"
                    for target in parent.targets
                )
            ):
                discarded = True
            if discarded:
                yield self.finding(
                    module, call,
                    "engine run result is discarded — its rounds/messages "
                    "can never be charged to the RoundLedger; assign it and "
                    "charge_result(...) or return it to the caller",
                )


class UnaccountedRun(_LedgerRule):
    """LED002: a RunResult whose round cost never escapes the function.

    The result is assigned, but within the enclosing function it is
    neither charged to a ledger, nor returned, nor passed onward, nor
    has its ``.rounds``/``.messages`` read — and the call site is not
    inside a ``with span(...)`` block.  Whatever the outputs were used
    for, the simulated rounds escaped telemetry.
    """

    rule_id = "LED002"
    title = "engine run never accounted"
    severity = "error"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for call in self._run_calls(module):
            parent = module.parent(call)
            if not isinstance(parent, ast.Assign):
                continue  # bare discards are LED001; call-args/returns are fine
            targets = parent.targets
            if len(targets) != 1 or not isinstance(targets[0], ast.Name):
                continue  # tuple unpacking: treated as used
            name = targets[0].id
            if name == "_":
                continue  # LED001's case
            scope = module.enclosing_function(call) or module.tree
            if _within_span(module, call):
                continue
            if _scope_charges_ledger(scope):
                continue
            if self._cost_escapes(scope, parent, name):
                continue
            yield self.finding(
                module, call,
                f"RunResult '{name}' is never charged, returned, or "
                "forwarded — wrap the call in a span that charges the "
                "ledger, call ledger.charge_result(...), or return the "
                "result so the caller can account for it",
            )

    def _cost_escapes(
        self, scope: ast.AST, assignment: ast.Assign, name: str
    ) -> bool:
        for node in walk_scope(scope):
            if isinstance(node, ast.Return) and node.value is not None:
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name) and sub.id == name:
                        return True
            elif isinstance(node, ast.Call):
                for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Name) and sub.id == name:
                            return True
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in COST_ATTRS
                and isinstance(node.value, ast.Name)
                and node.value.id == name
            ):
                return True
        return False
