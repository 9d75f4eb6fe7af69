"""Shared fixtures: small instances reused across the suite.

Delta = 16 instances use epsilon = 1/4 (the paper's epsilon = 1/63
requires Delta >= 63, see the remark below Definition 4); a handful of
slow tests exercise the paper constants at Delta = 63.
"""

from __future__ import annotations

import asyncio.base_events
import random
import sys

import pytest

from repro.acd import compute_acd
from repro.constants import AlgorithmParameters
from repro.graphs import hard_clique_graph, mixed_dense_graph
from repro.local import Network

SMALL_EPSILON = 0.25
SMALL_DELTA = 16
SMALL_CLIQUES = 34


async def _wait_closed_3121(self) -> None:
    """``Server.wait_closed`` as Python 3.12.1 has it: wait until the
    server is closed *and* every connection it accepted has dropped.

    Before 3.12 it returns at once once the server is closed, so a tier
    that closes with a client still connected only hangs on 3.12.1+.
    """
    if self._waiters is None:
        return
    waiter = self._loop.create_future()
    self._waiters.append(waiter)
    await waiter


@pytest.fixture
def wait_closed_3121(monkeypatch):
    """Run a test under the 3.12.1 ``wait_closed`` on older interpreters,
    so that a listener closing with accepted connections still open
    hangs here as it would there."""
    if sys.version_info < (3, 12, 1):
        monkeypatch.setattr(
            asyncio.base_events.Server, "wait_closed", _wait_closed_3121
        )


@pytest.fixture(scope="session")
def small_params() -> AlgorithmParameters:
    return AlgorithmParameters(epsilon=SMALL_EPSILON)


@pytest.fixture(scope="session")
def hard_instance():
    """All-hard instance: 34 cliques of size 16, Delta = 16."""
    return hard_clique_graph(SMALL_CLIQUES, SMALL_DELTA)


@pytest.fixture(scope="session")
def hard_instance_seeded():
    """Randomized variant of the all-hard instance."""
    return hard_clique_graph(SMALL_CLIQUES, SMALL_DELTA, seed=7)


@pytest.fixture(scope="session")
def mixed_instance():
    """30% easy cliques (one internal edge deleted each)."""
    return mixed_dense_graph(
        SMALL_CLIQUES, SMALL_DELTA, easy_fraction=0.3, seed=2
    )


@pytest.fixture(scope="session")
def hard_acd(hard_instance):
    return compute_acd(hard_instance.network, epsilon=SMALL_EPSILON)


@pytest.fixture(scope="session")
def mixed_acd(mixed_instance):
    return compute_acd(mixed_instance.network, epsilon=SMALL_EPSILON)


def random_network(
    n: int, m: int, seed: int, *, shuffle_uids: bool = True
) -> Network:
    """A simple random graph network for subroutine tests."""
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    attempts = 0
    while len(edges) < m and attempts < 50 * m:
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    uids = list(range(n))
    if shuffle_uids:
        rng.shuffle(uids)
    return Network.from_edges(n, sorted(edges), uids)
