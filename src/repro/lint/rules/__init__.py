"""Rule registry for the repro static analyzer.

Rules register by instantiation here; :data:`ALL_RULES` is the
canonical ordered list the engine runs.  Ids are grouped by family:

* ``LOC``: LOCAL-model locality (per-node code sees only local state),
* ``DET``: determinism (reproducible outputs for fixed inputs/seeds),
* ``LED``: ledger accounting (no simulated rounds escape telemetry),
* ``ASY``: asyncio safety (the serving plane must not wedge its loop),
* ``PRV``: seed provenance (every RNG derives from the campaign scheme).
"""

from __future__ import annotations

from repro.lint.rules.asyncio_safety import (
    AwaitUnderSyncLock,
    BlockingCallInCoroutine,
    FireAndForgetTask,
    UnawaitedCoroutine,
)
from repro.lint.rules.base import Rule
from repro.lint.rules.determinism import (
    GlobalRandom,
    OsEntropy,
    StringHash,
    UnorderedSetIteration,
    WallClockRead,
)
from repro.lint.rules.ledger import DiscardedRunResult, UnaccountedRun
from repro.lint.rules.locality import (
    EngineInternalsAccess,
    GlobalGraphRead,
    NetworkCapture,
)
from repro.lint.rules.provenance import SharedRngStream, UnderivedSeed

__all__ = ["ALL_RULES", "RULES_BY_ID", "Rule"]

ALL_RULES: tuple[Rule, ...] = (
    GlobalGraphRead(),
    EngineInternalsAccess(),
    NetworkCapture(),
    GlobalRandom(),
    UnorderedSetIteration(),
    WallClockRead(),
    OsEntropy(),
    StringHash(),
    DiscardedRunResult(),
    UnaccountedRun(),
    BlockingCallInCoroutine(),
    UnawaitedCoroutine(),
    FireAndForgetTask(),
    AwaitUnderSyncLock(),
    UnderivedSeed(),
    SharedRngStream(),
)

RULES_BY_ID: dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}
