"""Per-layer timing by wrapping the program's public functions.

The program is not instrumented for this benchmark.  In a traced run,
:class:`LayerTracer` replaces the public functions each pipeline layer
exposes -- at the module attribute the pipelines call them through --
with timing wrappers, and reads the engine counters the program already
keeps (:func:`repro.obs.observed`).  Wrappers keep a call stack, so every
layer reports *self* time: the time inside its calls minus the time of
wrapped calls nested in them.  The engine (:meth:`Network.run`, outermost
calls only) is such a nested call, so phase times exclude engine time.

Layer -> wrapped function(s):

* ``graphs.validate_s`` -- ``assert_no_delta_plus_one_clique``
* ``acd.compute_s`` -- ``compute_acd``
* ``core.classify_s`` -- ``classify_cliques``
* ``core.phase1_s`` .. ``core.phase4b_s`` -- balanced matching,
  sparsification, slack triads, slack-pair coloring, and the Lemma 17
  finishing instances (``finish_hard_cliques`` / ``color_instance``)
* ``core.easy_s`` -- ``color_easy_and_loopholes``
* ``core.shatter_s`` -- ``place_t_nodes``
* ``core.glue_s`` -- what remains of a coloring call (the pipeline's own
  code between phases, component bookkeeping, result assembly)
* ``local.engine_s`` -- ``Network.run``
* ``verify.check_s`` -- ``verify_coloring`` inside the pipelines
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import ExitStack
from typing import Any, Callable

_PIPELINES = ("repro.core.deterministic", "repro.core.randomized")

#: (module, attribute, layer metric)
WRAPS: tuple[tuple[str, str, str], ...] = (
    *((m, "assert_no_delta_plus_one_clique", "graphs.validate_s")
      for m in _PIPELINES),
    *((m, "compute_acd", "acd.compute_s") for m in _PIPELINES),
    # Campaign cells take their ACD from the workload cache.
    ("repro.bench.workloads", "compute_acd", "acd.compute_s"),
    *((m, "classify_cliques", "core.classify_s") for m in _PIPELINES),
    *((m, "compute_balanced_matching", "core.phase1_s") for m in _PIPELINES),
    *((m, "sparsify_matching", "core.phase2_s") for m in _PIPELINES),
    *((m, "form_slack_triads", "core.phase3_s") for m in _PIPELINES),
    *((m, "color_slack_pairs", "core.phase4a_s") for m in _PIPELINES),
    ("repro.core.deterministic", "finish_hard_cliques", "core.phase4b_s"),
    ("repro.core.randomized", "color_instance", "core.phase4b_s"),
    *((m, "color_easy_and_loopholes", "core.easy_s") for m in _PIPELINES),
    ("repro.core.randomized", "place_t_nodes", "core.shatter_s"),
    *((m, "verify_coloring", "verify.check_s") for m in _PIPELINES),
)

ENGINE = "local.engine_s"
GLUE = "core.glue_s"

#: Layers reported as self time (seconds per traced unit of work).
TIMED_LAYERS = (
    "graphs.validate_s", "acd.compute_s", "core.classify_s",
    "core.phase1_s", "core.phase2_s", "core.phase3_s", "core.phase4a_s",
    "core.phase4b_s", "core.easy_s", "core.shatter_s", GLUE, ENGINE,
    "verify.check_s",
)


class LayerTracer:
    """Wraps layer functions while installed; accumulates self times."""

    def __init__(self) -> None:
        from repro.obs import Collector

        self.self_s: dict[str, float] = defaultdict(float)
        self.wall_s = 0.0
        self.missing: list[str] = []
        #: The program's own engine counters, kept across installations.
        self.collector = Collector(sample_rounds=False)
        self._stack: list[list[Any]] = []
        self._exit = ExitStack()

    # -- installation (re-entrant: install around traced work only) ----

    def __enter__(self) -> "LayerTracer":
        from repro import obs
        from repro.local.network import Network

        self._exit = ExitStack()
        self.missing = []
        for module_name, attr, label in WRAPS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, label)
        self._patch(Network, "run", ENGINE)
        self._exit.enter_context(obs.observed(self.collector))
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._exit.close()

    def _patch(self, owner: Any, attr: str, label: str) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self._wrap(label, original))
        self._exit.callback(setattr, owner, attr, original)

    def _wrap(self, label: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        totals = self.self_s

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if label == ENGINE and stack and stack[-1][0] == ENGINE:
                return fn(*args, **kwargs)  # nested engine run: outer counts
            frame = [label, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                totals[label] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    # -- measuring -----------------------------------------------------

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run one traced operation; its unwrapped remainder is glue."""
        wrapped = self._wrap(GLUE, fn)
        start = time.perf_counter()
        try:
            return wrapped(*args, **kwargs)
        finally:
            self.wall_s += time.perf_counter() - start

    def metrics(self, units: float) -> dict[str, float]:
        """Layer metrics per traced unit of work (``units`` of them)."""
        per = 1.0 / max(units, 1e-12)
        out = {name: self.self_s.get(name, 0.0) * per for name in TIMED_LAYERS}
        collector = self.collector
        engine_s = self.self_s.get(ENGINE, 0.0)
        out["local.engine_runs"] = collector.total_runs * per
        out["local.sim_rounds"] = collector.total_sim_rounds * per
        out["local.messages"] = collector.total_sim_messages * per
        out["local.messages_per_s"] = (
            collector.total_sim_messages / engine_s if engine_s else 0.0
        )
        out["local.engine_share"] = engine_s / self.wall_s if self.wall_s else 0.0
        return out
