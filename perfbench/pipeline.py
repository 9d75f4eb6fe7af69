"""``pipeline``: a closed loop of ``repro.delta_color`` on a fixed ladder.

One process colors a fixed ladder of dense instances back to back --
``hard_clique_graph`` at Delta=32 with 68 and 136 cliques and
``mixed_dense_graph`` at Delta=32 with 136 cliques (easy fraction
0.25) -- each under ``deterministic`` and seeded ``randomized``, with
epsilon = 1/8.  The workload seed seeds the randomized colorings.  All
load lands on graphs/acd/core/local/verify; none on serve or runner.

One *pass* is the whole ladder (six colorings).  Passes repeat until the
run's seconds are used.  Every result is verified as a proper
Delta-coloring outside the timed region, and every pass must reproduce
the first pass's colorings and round counts exactly.

A traced run alternates untraced and traced passes: the traced passes
give the per-layer split (:mod:`layers`), the pair gives the tracing
overhead.
"""

from __future__ import annotations

import random
import time
from typing import Any

from common import (
    Context,
    OperationTimeout,
    call_with_deadline,
    colors_digest,
    median,
    peak_rss_mb,
    timed_collected,
)
from layers import LayerTracer

DELTA = 32
EPSILON = 1.0 / 8.0
EASY_FRACTION = 0.25
GRAPH_SEED = 1
#: (generator, number of cliques)
LADDER = (("hard", 68), ("hard", 136), ("mixed", 136))
METHODS = ("deterministic", "randomized")
#: Tiny mode (self-test): small instances need a larger epsilon.
TINY = {"delta": 8, "epsilon": 0.25, "ladder": (("hard", 16), ("hard", 32))}

SETUP_REPEATS = 3
#: One coloring may take this long before it counts as failed.
OP_DEADLINE_S = 60.0
#: A coloring within this limit counts towards goodput.
LATENCY_LIMIT_MS = 5000.0


def build_ladder(tiny: bool) -> list[Any]:
    from repro import generators

    delta = TINY["delta"] if tiny else DELTA
    ladder = TINY["ladder"] if tiny else LADDER
    instances = []
    for kind, cliques in ladder:
        if kind == "hard":
            instances.append(generators.hard_clique_graph(
                cliques, delta, seed=GRAPH_SEED))
        else:
            instances.append(generators.mixed_dense_graph(
                cliques, delta, easy_fraction=EASY_FRACTION, seed=GRAPH_SEED))
    return instances


def run(ctx: Context) -> None:
    from repro import delta_color
    from repro.errors import ReproError
    from repro.verify.coloring import verify_coloring

    tiny, result, provenance = ctx.tiny, ctx.result, ctx.provenance
    epsilon = TINY["epsilon"] if tiny else EPSILON
    rng = random.Random(ctx.seed)

    # -- set-up: generation plus one warm-up coloring, repeated ---------
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ladder = build_ladder(tiny)
        call_with_deadline(delta_color, OP_DEADLINE_S, ladder[0].network,
                           method="deterministic", epsilon=epsilon)
        setups.append(time.perf_counter() - start)
    plan = [
        (instance, method,
         rng.randrange(2 ** 31) if method == "randomized" else None)
        for instance in ladder for method in METHODS
    ]
    provenance["ladder_n"] = [instance.n for instance in ladder]
    provenance["epsilon"] = epsilon

    reference: list[tuple[str, int] | None] = [None] * len(plan)
    local_rounds = 0

    def one_pass(call: Any) -> list[float] | None:
        """Color the ladder once; each coloring's seconds, or None when a
        coloring ran past its deadline and the run must end."""
        nonlocal local_rounds
        times = []
        for slot, (instance, method, op_seed) in enumerate(plan):
            result.attempted += 1
            try:
                coloring, elapsed = call_with_deadline(
                    timed_collected, OP_DEADLINE_S, call, delta_color,
                    instance.network, method=method, epsilon=epsilon,
                    seed=op_seed,
                )
            except OperationTimeout as error:
                result.fail(str(error))
                return None
            except ReproError as error:
                result.fail(f"{method} on n={instance.n}: {error}")
                continue
            times.append(elapsed)
            # -- output checks, outside the timed region ----------------
            try:
                verify_coloring(instance.network, coloring.colors,
                                coloring.num_colors)
            except ReproError as error:
                result.fail(f"invalid coloring: {error}")
            seen = (colors_digest(coloring.colors), coloring.rounds)
            if reference[slot] is None:
                reference[slot] = seen
                local_rounds += coloring.rounds
            elif reference[slot] != seen:
                result.fail(f"{method} on n={instance.n} is not reproducible")
        return times

    def direct(fn: Any, *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)

    #: Untraced seconds of each ladder slot, one entry per pass.
    slot_times: list[list[float]] = [[] for _ in plan]
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    tracer = LayerTracer() if ctx.trace else None
    started = time.perf_counter()
    passes = 0
    while passes < 2 or time.perf_counter() - started < ctx.seconds:
        if tracer is not None and passes % 2 == 1:
            with tracer:
                times = one_pass(tracer.call)
            if times is None:
                break
            traced_walls.append(sum(times))
        else:
            times = one_pass(direct)
            if times is None:
                break
            untraced_walls.append(sum(times))
            if len(times) == len(plan):
                for slot, seconds in enumerate(times):
                    slot_times[slot].append(seconds)
        passes += 1

    # Each slot's median over passes: a burst of interference on the
    # machine slows one pass, not the result.
    typical = [median(times) for times in slot_times]
    ladder_s = sum(typical) or float("inf")

    provenance["passes"] = passes
    result.update({
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "vertices_per_s": sum(instance.n for instance, _, _ in plan) / ladder_s,
        "local_rounds": local_rounds,
        "goodput_rps": sum(t * 1000.0 <= LATENCY_LIMIT_MS for t in typical)
        / ladder_s,
        "cells_per_s": len(plan) / ladder_s,
    })
    if tracer is not None and traced_walls:
        result.update(tracer.metrics(len(traced_walls)))
        result.update({
            "trace.overhead": median(traced_walls) / median(untraced_walls),
        })
        provenance["untraced_layers"] = tracer.missing
