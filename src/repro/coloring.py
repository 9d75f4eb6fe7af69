"""One coloring, as a ``color`` request names it: the one pipeline call.

:func:`run_coloring` is what a serve shard runs for a ``color`` request
(:func:`repro.serve.server.execute_batch`) and what the inline and pool
campaign executors run for a cell
(:func:`repro.runner.campaign.run_cell`); the remote executor sends a
``color`` request instead.  Every campaign row is therefore built by
one function (:func:`repro.runner.campaign.cell_row`) from one result
shape, whichever executor ran the cell.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable

from repro.errors import ReproError

__all__ = ["OPTIONS", "run_coloring"]

#: Pipeline options a request may set.
OPTIONS = frozenset({"verify", "validate_input", "activation_probability"})


def run_coloring(
    network: Any,
    method: str,
    *,
    seed: int | None,
    epsilon: float,
    options: dict[str, Any],
    classification_for: Callable[[float], Any],
    validated: Callable[[], None],
    telemetry: bool = False,
) -> dict[str, Any]:
    """Color ``network`` with ``method``; return the ``color`` result.

    The dense pipelines take their seed-independent setup from the
    caller, who caches it per graph: ``classification_for(epsilon)``
    returns the network's ACD and hard/easy classification, and
    ``validated()`` is its (Delta+1)-clique check, run in place of the
    pipeline's own.  Both are deterministic, so the result is the one a
    bare :func:`repro.delta_color` call returns.  The general pipeline
    computes its own sparse-aware ACD.

    The result carries ``algorithm``, ``num_colors``, ``rounds``,
    ``messages``, ``phase_rounds`` and ``colors``; ``shattering`` when
    the pipeline reports it; and with ``telemetry`` a deterministic
    :func:`repro.obs.telemetry_summary` (no sampled rounds, no events,
    no wall clock), so equal requests get equal results.
    """
    from repro import delta_color
    from repro.baselines.greedy_brooks import greedy_brooks_coloring
    from repro.baselines.greedy_deltaplus1 import greedy_delta_plus_one
    from repro.obs import Collector, observed, telemetry_summary

    unknown = set(options) - OPTIONS
    if unknown:
        raise ReproError(f"unknown options: {sorted(unknown)}")
    verify = options.get("verify", True)
    if method == "baseline-brooks":
        colors = greedy_brooks_coloring(network)
        return {
            "algorithm": "greedy-brooks",
            "num_colors": max(colors) + 1,
            "rounds": 0,
            "messages": 0,
            "colors": colors,
        }
    collector = Collector(sample_rounds=False) if telemetry else None
    with observed(collector) if collector is not None else nullcontext():
        if method == "baseline-dplus1":
            result = greedy_delta_plus_one(
                network, deterministic=seed is None, seed=seed, verify=verify
            )
        else:
            kwargs: dict[str, Any] = {
                "verify": verify,
                "validate_input": options.get("validate_input", True),
            }
            if method != "general":
                if kwargs["validate_input"]:
                    validated()
                    kwargs["validate_input"] = False
                kwargs["classification"] = classification_for(epsilon)
            if method != "deterministic" and "activation_probability" in options:
                kwargs["activation_probability"] = options["activation_probability"]
            result = delta_color(
                network, method=method, epsilon=epsilon, seed=seed, **kwargs
            )
    body: dict[str, Any] = {
        "algorithm": result.algorithm,
        "num_colors": result.num_colors,
        "rounds": result.rounds,
        "messages": result.messages,
        "phase_rounds": result.phase_rounds(),
        "colors": result.colors,
    }
    if "shattering" in result.stats:
        body["shattering"] = result.stats["shattering"]
    if collector is not None:
        body["telemetry"] = telemetry_summary(collector, result.ledger)
    return body
