"""Benchmark workloads: named, cached instance builders.

Benchmarks fix Delta and sweep n by growing the number of cliques, so
round counts isolate the n-dependence the theorems talk about.  All
builders are cached per parameter tuple — generation, the ACD and the
hard/easy classification are shared between benchmark cases.
"""

from __future__ import annotations

from functools import lru_cache

from repro.acd import compute_acd
from repro.constants import AlgorithmParameters
from repro.core.hardness import Classification, classify_cliques
from repro.graphs import DenseInstance, hard_clique_graph, mixed_dense_graph

#: Default bench Delta: large enough for comfortable Lemma 11 slack at
#: epsilon = 1/8, small enough for quick simulation.
BENCH_DELTA = 32

#: Default bench epsilon (paper: 1/63, which needs Delta >= 63; the
#: slow benches use the paper constants explicitly).
BENCH_EPSILON = 1.0 / 8.0


def bench_params(epsilon: float = BENCH_EPSILON) -> AlgorithmParameters:
    return AlgorithmParameters(epsilon=epsilon)


@lru_cache(maxsize=32)
def hard_workload(
    num_cliques: int, delta: int = BENCH_DELTA, seed: int = 1
) -> DenseInstance:
    return hard_clique_graph(num_cliques, delta, seed=seed)


@lru_cache(maxsize=32)
def mixed_workload(
    num_cliques: int,
    delta: int = BENCH_DELTA,
    easy_fraction: float = 0.25,
    seed: int = 1,
) -> DenseInstance:
    return mixed_dense_graph(
        num_cliques, delta, easy_fraction=easy_fraction, seed=seed
    )


@lru_cache(maxsize=32)
def workload_classification(
    num_cliques: int,
    delta: int = BENCH_DELTA,
    epsilon: float = BENCH_EPSILON,
    seed: int = 1,
    easy_fraction: float = 0.0,
) -> Classification:
    """The workload's ACD and hard/easy classification at ``epsilon``
    (its ``.acd`` is the ACD): what every Delta-coloring pipeline takes
    as ``classification=`` instead of computing it per run."""
    if easy_fraction:
        instance = mixed_workload(num_cliques, delta, easy_fraction, seed)
    else:
        instance = hard_workload(num_cliques, delta, seed)
    acd = compute_acd(instance.network, epsilon=epsilon)
    return classify_cliques(instance.network, acd)


#: The cache's former name, which ``perfbench/campaign_remote.py``
#: still clears between its timed runs.
workload_acd = workload_classification


#: n-sweep used by the scaling experiments (E1/E2): cliques double.
SCALING_CLIQUES = (68, 136, 272)

#: Larger sweep for opt-in deep runs.
SCALING_CLIQUES_LARGE = (68, 136, 272, 544)
