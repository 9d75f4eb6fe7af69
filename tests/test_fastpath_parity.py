"""Bit-identity of the rewritten ACD and Linial step against their oracles.

``tests/acd_oracle.py`` keeps the pre-rewrite implementations.  The ACD
must agree on ``cliques``, ``sparse`` and ``clique_index`` — or raise the
same exception type with the same message — for every generator family,
epsilon and ``strict`` setting; Linial must agree on colors and the full
:class:`~repro.local.result.RunResult` (rounds, messages, outputs).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acd import DEFAULT_ETA, compute_acd
from repro.errors import InvariantViolation, ReproError
from repro.graphs import adversarial, generators
from repro.local import Network
from repro.subroutines import linial
from repro.subroutines.linial import LinialColoring
from tests.acd_oracle import LinialOracle, compute_acd_oracle
from tests.conftest import random_network

EPSILONS = (1.0 / 63.0, 1.0 / 8.0, 1.0 / 4.0)


def gnp(n: int, p: float, seed: int) -> Network:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Network.from_edges(n, edges)


# Every family is built small; heterogeneous_hard_cliques takes a *scale*
# as its first argument, so it stays at scale 1.
GRAPHS = {
    "hard": lambda seed: generators.hard_clique_graph(16, 8, seed=seed).network,
    "mixed": lambda seed: generators.mixed_dense_graph(
        16, 8, easy_fraction=0.5, seed=seed
    ).network,
    "sparse_dense_mix": lambda seed: generators.sparse_dense_mix(16, 8, seed=seed).network,
    "heterogeneous": lambda seed: generators.heterogeneous_hard_cliques(
        1, 6, seed=seed
    ).network,
    "torus": lambda seed: generators.hard_clique_torus(4, 6).network,
    "isolated": lambda seed: generators.isolated_cliques(4, 6).network,
    "plant_shared_outside_neighbor": lambda seed: adversarial.plant_shared_outside_neighbor(
        generators.hard_clique_graph(16, 8, seed=seed)
    ).network,
    "plant_external_edge": lambda seed: adversarial.plant_external_edge(
        generators.hard_clique_graph(16, 8, seed=seed)
    ).network,
    "plant_nonclique_pair": lambda seed: adversarial.plant_nonclique_pair(
        generators.hard_clique_graph(16, 8, seed=seed)
    ).network,
    "brooks_obstruction": lambda seed: adversarial.brooks_obstruction(6),
    "gnp_0.1": lambda seed: gnp(40, 0.1, seed),
    "gnp_0.3": lambda seed: gnp(40, 0.3, seed),
    "gnp_0.6": lambda seed: gnp(40, 0.6, seed),
    "gnp_0.9": lambda seed: gnp(40, 0.9, seed),
}


def acd_outcome(network: Network, epsilon: float, strict: bool, eta: float, compute):
    try:
        acd = compute(network, epsilon, strict=strict, eta=eta)
    except ReproError as exc:
        return type(exc), str(exc)
    return acd.cliques, acd.sparse, acd.clique_index, acd.meta, acd.rounds


def assert_acd_parity(
    network: Network, epsilon: float, strict: bool, eta: float = DEFAULT_ETA
):
    expected = acd_outcome(network, epsilon, strict, eta, compute_acd_oracle)
    assert acd_outcome(network, epsilon, strict, eta, compute_acd) == expected
    return expected


def outsider_graph() -> Network:
    """K_38 plus a vertex adjacent to 36 of its members and 4 leaves.

    At eta = 0.1 (friendship needs 36 shared neighbours at Delta = 40)
    the outsider has no friends, so it stays sparse while the clique is
    an almost-clique; its 36 neighbours inside exceed the property (iii)
    bound of 35 at epsilon = 1/4.
    """
    edges = [(u, v) for u in range(38) for v in range(u + 1, 38)]
    edges += [(38, u) for u in range(36)] + [(38, leaf) for leaf in range(39, 43)]
    return Network.from_edges(43, edges)


def cascade_graph() -> Network:
    """K_15 plus a vertex ``a`` on 11 of its members and ``b`` on 10 and ``a``.

    At eta = 1/2, epsilon = 1/4 (Delta = 16: (ii) needs 12 neighbours
    inside) both join the clique's friend component; ``b`` starts below
    (ii) with 11, and only its removal drops ``a`` from 12 to 11.
    """
    edges = [(u, v) for u in range(15) for v in range(u + 1, 15)]
    edges += [(15, u) for u in range(11)] + [(16, u) for u in range(10)] + [(15, 16)]
    return Network.from_edges(17, edges)


class TestACDParity:
    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("epsilon", EPSILONS)
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_every_family(self, family, epsilon, strict):
        assert_acd_parity(GRAPHS[family](1), epsilon, strict)

    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(sorted(GRAPHS)),
        seed=st.integers(min_value=0, max_value=10 ** 6),
        epsilon=st.sampled_from(EPSILONS),
        strict=st.booleans(),
        eta=st.sampled_from([DEFAULT_ETA, 0.1]),
    )
    def test_property(self, family, seed, epsilon, strict, eta):
        assert_acd_parity(GRAPHS[family](seed), epsilon, strict, eta)

    def test_outsider_violation(self):
        error, message = assert_acd_parity(outsider_graph(), 0.25, True, eta=0.1)
        assert error is InvariantViolation
        assert "vertex 38 has 36 neighbors in foreign almost-clique 0" in message
        cliques, sparse, *_ = assert_acd_parity(outsider_graph(), 0.25, False, eta=0.1)
        assert cliques == [list(range(38))] and sparse == list(range(38, 43))

    @pytest.mark.parametrize("strict", [True, False])
    def test_cascading_peel(self, strict):
        cliques, sparse, *_ = assert_acd_parity(cascade_graph(), 0.25, strict, eta=0.5)
        assert cliques == [list(range(15))] and sparse == [15, 16]


def run_both(network: Network, id_space: int, delta: int):
    runs = []
    for cls in (LinialOracle, LinialColoring):
        result = network.run(cls(id_space, delta))
        runs.append((result, [node.state["color"] for node in network.nodes]))
    return runs


class TestLinialParity:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        n=st.integers(min_value=2, max_value=80),
        density=st.sampled_from([1, 3, 8]),
        id_space=st.sampled_from([10 ** 3, 10 ** 4, 10 ** 9]),
    )
    def test_random_graphs_shuffled_uids(self, seed, n, density, id_space):
        network = random_network(n, density * n, seed=seed)
        expected, actual = run_both(network, id_space, network.max_degree)
        assert actual == expected

    def test_single_compaction_step(self):
        # The schedule every pipeline ladder run uses: one (q, k) = (67, 2)
        # step at Delta = 32.
        network = random_network(500, 4000, seed=5)
        assert LinialColoring(network.n, 32).schedule == [(67, 2)]
        expected, actual = run_both(network, network.n, 32)
        assert actual == expected

    @pytest.mark.parametrize("exponent", [6, 12, 18])
    def test_multi_step_schedule(self, exponent):
        network = random_network(60, 150, seed=exponent)
        rng = random.Random(exponent)
        uids = rng.sample(range(10 ** exponent), network.n)
        network = Network(network.adjacency, uids)
        id_space = 10 ** exponent
        assert len(LinialColoring(id_space, network.max_degree).schedule) >= 2
        expected, actual = run_both(network, id_space, network.max_degree)
        assert actual == expected
        assert expected[0].rounds >= 2

    def test_instance_reused_across_networks(self):
        rng = random.Random(3)
        networks = [
            Network(random_network(50, 200, seed=seed).adjacency, rng.sample(range(10 ** 6), 50))
            for seed in (1, 2)
        ]
        delta = max(network.max_degree for network in networks)
        shared = LinialColoring(10 ** 6, delta)
        assert len(shared.schedule) >= 2
        for network in networks:
            oracle = network.run(LinialOracle(10 ** 6, delta))
            oracle_colors = [node.state["color"] for node in network.nodes]
            assert network.run(shared) == oracle
            assert [node.state["color"] for node in network.nodes] == oracle_colors

    @pytest.mark.parametrize(
        "configs",
        [
            # (id_space, delta, n, m): a lone (67, 2) compaction step.
            ((500, 32, 500, 4000), (600, 33, 600, 4500)),
            # Different first steps feeding one shared (29, 2) step.
            ((10 ** 6, 12, 60, 120), (10 ** 9, 13, 60, 120)),
        ],
        ids=["compaction", "multi-step"],
    )
    @pytest.mark.parametrize("reverse", [False, True], ids=["ab", "ba"])
    def test_instances_sharing_a_step_match_the_oracle(self, configs, reverse):
        """Instances of different ``(id_space, delta)`` share the value
        columns of a common ``(q, k)`` step; in either run order each
        must still produce the oracle's colors and RunResult."""
        linial._value_columns.cache_clear()
        runs = []
        for seed, (id_space, delta, n, m) in enumerate(configs):
            network = random_network(n, m, seed=seed + 1)
            uids = random.Random(seed).sample(range(id_space), n)
            network = Network(network.adjacency, uids)
            assert network.max_degree <= delta
            runs.append((network, id_space, delta))
        instances = [LinialColoring(id_space, delta) for _, id_space, delta in runs]
        step = next(s for s in instances[0].schedule if s in instances[1].schedule)
        first, second = (instance.schedule.index(step) for instance in instances)
        assert instances[0].tables[first] is instances[1].tables[second]
        order = [1, 0] if reverse else [0, 1]
        for index in order:
            network, id_space, delta = runs[index]
            oracle = network.run(LinialOracle(id_space, delta))
            oracle_colors = [node.state["color"] for node in network.nodes]
            assert network.run(instances[index]) == oracle
            assert [node.state["color"] for node in network.nodes] == oracle_colors

    def test_shared_columns_are_bounded(self, monkeypatch):
        linial._value_columns.cache_clear()
        maxsize = linial._value_columns.cache_info().maxsize
        assert maxsize is not None
        for delta in range(3, 3 + 2 * maxsize):
            LinialColoring(10 ** 6, delta)
        assert linial._value_columns.cache_info().currsize <= maxsize

        monkeypatch.setattr(linial, "COLUMN_LIMIT", 4)
        column = linial._ValueColumn(3, 17, 2)
        values = [column[color] for color in range(10)]
        assert len(column) == 4
        assert values == [
            linial._eval_poly(linial._digits(color, 17, 3), 3, 17)
            for color in range(10)
        ]
