"""E10 — Substrate micro-benchmarks.

Round/message costs of every black-box substitute (DESIGN.md table) on
standard inputs, so that the pipeline numbers of E1/E7 can be traced to
their components.
"""

from __future__ import annotations

import random

import pytest

from repro.bench import hard_workload, print_table, save_artifact
from repro.local import Network
from repro.subroutines import (
    Hypergraph,
    deg_plus_one_list_coloring,
    hyperedge_grabbing,
    iterated_split,
    linial_coloring,
    luby_mis,
    maximal_independent_set,
    maximal_matching,
    randomized_list_coloring,
)

_ROWS: list[dict] = []


def _record(label, n, result):
    _ROWS.append(
        {
            "label": label,
            "n": n,
            "rounds": result.rounds,
            "messages": result.messages,
        }
    )


def _random_regularish(n: int, degree: int, seed: int) -> Network:
    rng = random.Random(seed)
    edges = set()
    while len(edges) < n * degree // 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    uids = list(range(n))
    rng.shuffle(uids)
    return Network.from_edges(n, sorted(edges), uids)


@pytest.mark.parametrize("n", [500, 2000])
def test_linial(benchmark, once, n):
    net = _random_regularish(n, 12, 1)
    # A huge ID space forces genuine log*-many reduction rounds.
    net = Network(net.adjacency, [i * 10 ** 6 + 13 for i in range(n)])
    _, result = once(
        benchmark, linial_coloring, net, id_space=n * 10 ** 6 + 14
    )
    _record("linial O(Delta^2)-coloring", n, result)


@pytest.mark.parametrize("n", [500, 2000])
def test_deg_plus_one_deterministic(benchmark, once, n):
    net = _random_regularish(n, 12, 2)
    lists = [list(range(net.degree(v) + 1)) for v in range(net.n)]
    _, result = once(benchmark, deg_plus_one_list_coloring, net, lists)
    _record("deg+1 list coloring (det)", n, result)


@pytest.mark.parametrize("n", [500, 2000])
def test_deg_plus_one_randomized(benchmark, once, n):
    net = _random_regularish(n, 12, 3)
    lists = [list(range(net.degree(v) + 1)) for v in range(net.n)]
    _, result = once(
        benchmark, randomized_list_coloring, net, lists, seed=0
    )
    _record("deg+1 list coloring (rand)", n, result)


@pytest.mark.parametrize("n", [500, 2000])
def test_mis(benchmark, once, n):
    net = _random_regularish(n, 12, 4)
    _, det = once(benchmark, maximal_independent_set, net)
    _record("MIS (det sweep)", n, det)
    _, rand = luby_mis(net, seed=1)
    _record("MIS (Luby)", n, rand)


@pytest.mark.parametrize("n", [500, 1000])
def test_matching(benchmark, once, n):
    net = _random_regularish(n, 8, 5)
    _, result = once(benchmark, maximal_matching, net)
    _record("maximal matching (det)", n, result)


@pytest.mark.parametrize("num_cliques", [136, 272])
def test_heg_on_pipeline_hypergraph(benchmark, once, num_cliques):
    """HEG on ring-style hypergraphs sized like the pipeline's H."""
    n = num_cliques * 10
    edges = [(i, (i + 1) % n, (i + 2) % n) for i in range(n)]
    edges += [(i, (i + 7) % n) for i in range(n)]
    h = Hypergraph(n, edges)

    def run():
        return hyperedge_grabbing(h)

    _, result = once(benchmark, run)
    _record("HEG (proposals)", n, result)


@pytest.mark.parametrize("num_cliques", [136, 272])
def test_degree_splitting(benchmark, once, num_cliques):
    instance = hard_workload(num_cliques)
    owner = instance.clique_of()
    edges = [
        (owner[u], owner[v])
        for u, v in instance.network.edges()
        if owner[u] != owner[v]
    ]

    def run():
        return iterated_split(
            instance.num_cliques, edges, 2, epsilon=1.0 / 100.0
        )

    result = once(benchmark, run)
    _ROWS.append(
        {
            "label": "degree splitting (2 levels, eps'=1/100)",
            "n": len(edges),
            "rounds": result.rounds,
            "messages": 0,
        }
    )


def teardown_module(module):
    if not _ROWS:
        return
    print_table(
        ["subroutine", "input size", "rounds", "messages"],
        [[r["label"], r["n"], r["rounds"], r["messages"]] for r in _ROWS],
        title="E10: substrate round/message costs",
    )
    save_artifact("e10_subroutines", _ROWS)


@pytest.mark.parametrize("n", [400])
def test_list_coloring_strategy_comparison(benchmark, once, n):
    """Two (deg+1)-list coloring strategies on one high-diameter graph:
    the deterministic sweep (O(Delta^2)-ish) and randomized trials
    (O(log n)) — the trade-off the paper's [MT20]/[GG24] black boxes
    refine."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, (i + 9) % n) for i in range(n)]
    net = Network.from_edges(n, sorted(set(
        (min(a, b), max(a, b)) for a, b in edges
    )))
    lists = [list(range(net.degree(v) + 1)) for v in range(net.n)]

    _, det = once(benchmark, deg_plus_one_list_coloring, net, lists)
    _record("deg+1 strategy: deterministic sweep", n, det)
    _, rand = randomized_list_coloring(net, lists, seed=0)
    _record("deg+1 strategy: randomized trials", n, rand)
