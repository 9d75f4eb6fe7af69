"""The cyclic collector is paused for each coloring, and that is safe.

The pause (``repro.core.gc_pause.paused_collector``) is sound only while
a coloring leaves no reference cycles behind: with the collector off,
cyclic garbage would stay in memory until the next collection.  These
tests check that invariant for every method on a hard, a mixed and an
adversarial instance, and check the pause's bookkeeping: the collector
comes back after a coloring that raises, stays off when the caller had
switched it off, and comes back only after the last of two overlapping
colorings.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest

import repro.core.deterministic as deterministic
from repro import delta_color
from repro.core.gc_pause import _PausedCollector, paused_collector
from repro.errors import GraphStructureError
from repro.graphs import adversarial, hard_clique_graph, mixed_dense_graph
from repro.local import Network

INSTANCES = {
    "hard": lambda: hard_clique_graph(16, 8, seed=2),
    "mixed": lambda: mixed_dense_graph(34, 16, easy_fraction=0.5, seed=3),
    "external-edge": lambda: adversarial.plant_external_edge(
        hard_clique_graph(34, 16, seed=1)
    ),
}


@pytest.fixture
def collector_on():
    """Start and end every test with the collector enabled."""
    gc.enable()
    yield
    gc.enable()


@pytest.mark.parametrize("method", ["deterministic", "randomized", "general"])
@pytest.mark.parametrize("kind", sorted(INSTANCES))
def test_coloring_leaves_no_cyclic_garbage(collector_on, kind, method):
    network = INSTANCES[kind]().network
    gc.collect()
    gc.disable()
    delta_color(network, method=method, epsilon=0.25, seed=5)
    assert gc.collect() == 0


def test_collector_back_on_after_a_coloring_raises(collector_on, monkeypatch):
    seen: list[bool] = []
    check = deterministic.assert_no_delta_plus_one_clique

    def spy(network):
        seen.append(gc.isenabled())
        check(network)

    monkeypatch.setattr(deterministic, "assert_no_delta_plus_one_clique", spy)
    k5 = Network.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    with pytest.raises(GraphStructureError):
        delta_color(k5, epsilon=0.25)
    assert seen == [False]
    assert gc.isenabled()


def test_caller_disabled_collector_stays_disabled(collector_on):
    network = hard_clique_graph(16, 8, seed=2).network
    gc.disable()
    delta_color(network, epsilon=0.25)
    assert not gc.isenabled()


def test_overlapping_colorings_resume_after_the_last(collector_on, monkeypatch):
    """Two threads color at once; the first to finish must not turn the
    collector back on under the second."""
    both_inside = threading.Barrier(2, timeout=30)
    release = threading.Event()
    check = deterministic.assert_no_delta_plus_one_clique

    def hold(network):
        both_inside.wait()
        if threading.current_thread().name == "second":
            release.wait(timeout=30)
        check(network)

    monkeypatch.setattr(deterministic, "assert_no_delta_plus_one_clique", hold)
    errors: list[BaseException] = []

    def color(seed: int) -> None:
        try:
            network = hard_clique_graph(16, 8, seed=seed).network
            delta_color(network, method="randomized", epsilon=0.25, seed=seed)
        except BaseException as exc:  # surfaced by the asserts below
            errors.append(exc)

    first = threading.Thread(target=color, args=(1,), name="first")
    second = threading.Thread(target=color, args=(2,), name="second")
    first.start()
    second.start()
    first.join(timeout=60)
    assert not first.is_alive()
    assert not gc.isenabled()  # the second coloring is still running
    release.set()
    second.join(timeout=60)
    assert not second.is_alive()
    assert errors == []
    assert gc.isenabled()


def test_depth_count_survives_thread_contention(collector_on):
    """More threads than cores enter and leave the pause with a tiny
    switch interval; a lost update of the depth count would leave the
    collector off (or switch it on under a running coloring)."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    misses: list[int] = []

    def churn() -> None:
        for _ in range(2000):
            with paused_collector:
                if gc.isenabled():
                    misses.append(1)

    threads = [threading.Thread(target=churn) for _ in range(8)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert misses == []
    assert gc.isenabled()


def test_forked_child_resumes_the_collector(collector_on):
    """A fork copies no thread, so a child forked during a coloring must
    not inherit a depth count that nothing will ever bring to zero."""
    pause = _PausedCollector()
    pause.__enter__()
    assert not gc.isenabled()
    pause._after_fork_in_child()
    assert gc.isenabled()
    with pause:
        assert not gc.isenabled()
    assert gc.isenabled()
