"""Tests for degree splitting (Lemma 21 / Corollary 22)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SubroutineError
from repro.subroutines import iterated_split, split_discrepancy, split_edges
from repro.subroutines.degree_splitting import _select_anchors


def random_multigraph(
    n: int, per_vertex: int, seed: int
) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    edges = []
    for v in range(n):
        for _ in range(per_vertex):
            u = rng.randrange(n)
            if u != v:
                edges.append((v, u))
    return edges


class TestSingleSplit:
    def test_two_parts_cover_everything(self):
        edges = random_multigraph(50, 10, 1)
        result = split_edges(50, edges)
        assert set(result.part_of) <= {0, 1}
        assert len(result.part_of) == len(edges)

    def test_discrepancy_small(self):
        edges = random_multigraph(80, 14, 2)
        result = split_edges(80, edges, epsilon=1 / 8)
        # Lemma 21: discrepancy eps*d + 4; degrees ~28, so <= ~7.5.
        assert split_discrepancy(80, edges, result) <= 28 / 8 + 4

    def test_cycle_alternates_perfectly(self):
        # A single even cycle: one trail, near-perfect alternation.
        n = 40
        edges = [(i, (i + 1) % n) for i in range(n)]
        result = split_edges(n, edges)
        assert split_discrepancy(n, edges, result) <= 1.5

    def test_star_splits_evenly(self):
        edges = [(0, i) for i in range(1, 21)]
        result = split_edges(21, edges)
        assert split_discrepancy(21, edges, result) <= 1.0

    def test_parallel_edges_supported(self):
        edges = [(0, 1)] * 6
        result = split_edges(2, edges)
        counts = [result.part_of.count(p) for p in (0, 1)]
        assert abs(counts[0] - counts[1]) <= 2

    def test_self_loop_rejected(self):
        with pytest.raises(SubroutineError, match="self-loop"):
            split_edges(2, [(0, 0)])

    def test_bad_epsilon_rejected(self):
        with pytest.raises(SubroutineError):
            split_edges(2, [(0, 1)], epsilon=0)

    def test_duplicate_edge_uids_rejected(self):
        with pytest.raises(SubroutineError, match="unique"):
            split_edges(2, [(0, 1), (1, 0)], edge_uids=[1, 1])

    def test_rounds_reported(self):
        edges = random_multigraph(50, 6, 3)
        result = split_edges(50, edges, epsilon=1 / 4)
        assert result.rounds > 0


class TestIteratedSplit:
    def test_four_parts(self):
        edges = random_multigraph(60, 12, 4)
        result = iterated_split(60, edges, 2)
        assert result.num_parts == 4
        assert set(result.part_of) <= {0, 1, 2, 3}

    def test_corollary22_bound(self):
        """Per-part counts stay within deg/4 +- (eps*deg + a)."""
        edges = random_multigraph(100, 14, 5)
        result = iterated_split(100, edges, 2, epsilon=1 / 8)
        degree = [0] * 100
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        worst = split_discrepancy(100, edges, result)
        max_degree = max(degree)
        a = 2 * sum((0.5 + 1 / 32) ** j for j in range(2))
        assert worst <= max_degree / 8 + a + 1

    def test_zero_iterations_identity(self):
        edges = [(0, 1), (1, 2)]
        result = iterated_split(3, edges, 0)
        assert result.part_of == [0, 0]
        assert result.num_parts == 1

    def test_negative_iterations_rejected(self):
        with pytest.raises(SubroutineError):
            iterated_split(2, [(0, 1)], -1)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_property_balanced(self, seed):
        edges = random_multigraph(40, 10, seed)
        result = split_edges(40, edges, epsilon=1 / 8)
        # Lemma 21 undirected bound with a small safety margin for the
        # engineering splitter (verified downstream in the pipeline).
        degree = [0] * 40
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        worst = split_discrepancy(40, edges, result)
        assert worst <= max(degree) / 8 + 5


class TestDirectedSplit:
    def test_balanced_on_random_multigraph(self):
        from repro.subroutines import directed_discrepancy, directed_split

        edges = random_multigraph(80, 10, 7)
        result = directed_split(80, edges, epsilon=1 / 8)
        degree = [0] * 80
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        # Lemma 21 (directed): discrepancy <= eps * d(v) + O(1).
        assert directed_discrepancy(80, edges, result) <= max(degree) / 8 + 6

    def test_even_cycle_perfectly_balanced(self):
        from repro.subroutines import directed_discrepancy, directed_split

        n = 30
        edges = [(i, (i + 1) % n) for i in range(n)]
        result = directed_split(n, edges)
        assert directed_discrepancy(n, edges, result) <= 2

    def test_every_edge_oriented(self):
        from repro.subroutines import directed_split

        edges = random_multigraph(40, 6, 8)
        result = directed_split(40, edges)
        assert len(result.orientation) == len(edges)
        assert set(result.orientation) <= {0, 1}

    def test_star_alternates(self):
        from repro.subroutines import directed_discrepancy, directed_split

        edges = [(0, i) for i in range(1, 21)]
        result = directed_split(21, edges)
        assert directed_discrepancy(21, edges, result) <= 2

    def test_self_loop_rejected(self):
        from repro.subroutines import directed_split

        with pytest.raises(SubroutineError):
            directed_split(2, [(0, 0)])


def select_anchors_oracle(sequence, is_cycle, uids, window):
    """The quadratic anchor scan that predates the sliding-window minimum:
    compare every position with each of its up to 2 * window neighbours."""
    length = len(sequence)
    anchors = []
    for i in range(length):
        if is_cycle:
            neighborhood = [
                uids[sequence[(i + d) % length]]
                for d in range(-window, window + 1)
                if d != 0 and abs(d) < length
            ]
        else:
            lo, hi = max(0, i - window), min(length - 1, i + window)
            neighborhood = [
                uids[sequence[j]] for j in range(lo, hi + 1) if j != i
            ]
        mine = uids[sequence[i]]
        if all(mine < other for other in neighborhood):
            anchors.append(i)
    if is_cycle and not anchors:
        anchors.append(min(range(length), key=lambda i: uids[sequence[i]]))
    return anchors


class TestSelectAnchors:
    @settings(max_examples=200, deadline=None)
    @given(
        length=st.integers(1, 300),
        window=st.integers(4, 64),
        is_cycle=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_quadratic_oracle(self, length, window, is_cycle, seed):
        rng = random.Random(seed)
        sequence = list(range(length))
        rng.shuffle(sequence)
        uids = rng.sample(range(10 * length), length)
        assert _select_anchors(sequence, is_cycle, uids, window) == (
            select_anchors_oracle(sequence, is_cycle, uids, window)
        )

    @pytest.mark.parametrize("length", [1, 2, 9, 129])
    def test_short_cycle_has_one_anchor_at_its_minimum(self, length):
        window = 64
        uids = random.Random(length).sample(range(1000), length)
        sequence = list(range(length))
        assert _select_anchors(sequence, True, uids, window) == [
            uids.index(min(uids))
        ]
