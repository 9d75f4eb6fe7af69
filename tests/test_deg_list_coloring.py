"""Tests for (deg+1)-list coloring."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SubroutineError
from repro.local import Api, Network
from repro.subroutines import (
    deg_plus_one_list_coloring,
    randomized_list_coloring,
    validate_lists,
)
from repro.subroutines.deg_list_coloring import _RandomTrialColoring
from tests.conftest import random_network


def minimal_lists(net: Network) -> list[list[int]]:
    return [list(range(net.degree(v) + 1)) for v in range(net.n)]


class TestValidation:
    def test_too_small_list_rejected(self):
        net = Network.from_edges(3, [(0, 1), (1, 2)])
        lists = [[0], [0], [0, 1]]  # vertex 1 has degree 2 but 1 color
        with pytest.raises(SubroutineError, match="deg"):
            validate_lists(net, lists)

    def test_duplicate_colors_do_not_inflate_lists(self):
        net = Network.from_edges(2, [(0, 1)])
        with pytest.raises(SubroutineError):
            validate_lists(net, [[0, 0], [0, 1]])

    def test_wrong_length_rejected(self):
        net = Network.from_edges(2, [(0, 1)])
        with pytest.raises(SubroutineError, match="per vertex"):
            validate_lists(net, [[0, 1]])


class TestDeterministic:
    def test_minimal_lists(self):
        net = random_network(120, 360, seed=3)
        colors, _ = deg_plus_one_list_coloring(net, minimal_lists(net))
        assert all(colors[u] != colors[v] for u, v in net.edges())

    def test_arbitrary_disjointish_lists(self):
        rng = random.Random(4)
        net = random_network(80, 200, seed=4)
        lists = []
        for v in range(net.n):
            size = net.degree(v) + 1 + rng.randrange(3)
            lists.append(rng.sample(range(100), size))
        colors, _ = deg_plus_one_list_coloring(net, lists)
        for v in range(net.n):
            assert colors[v] in set(lists[v])
        assert all(colors[u] != colors[v] for u, v in net.edges())

    def test_colors_within_lists(self):
        net = random_network(50, 120, seed=5)
        lists = [[10 + c for c in range(net.degree(v) + 1)] for v in range(net.n)]
        colors, _ = deg_plus_one_list_coloring(net, lists)
        assert all(colors[v] >= 10 for v in range(net.n))

    def test_empty_network(self):
        net = Network.from_edges(0, [])
        colors, result = deg_plus_one_list_coloring(net, [])
        assert colors == [] and result.rounds == 0


class TestRandomized:
    def test_minimal_lists(self):
        net = random_network(120, 360, seed=6)
        colors, result = randomized_list_coloring(net, minimal_lists(net), seed=1)
        assert all(colors[u] != colors[v] for u, v in net.edges())

    def test_seed_reproducibility(self):
        net = random_network(60, 150, seed=7)
        a, _ = randomized_list_coloring(net, minimal_lists(net), seed=42)
        b, _ = randomized_list_coloring(net, minimal_lists(net), seed=42)
        assert a == b

    def test_rounds_logarithmic(self):
        net = random_network(400, 1200, seed=8)
        _, result = randomized_list_coloring(net, minimal_lists(net), seed=2)
        assert result.rounds <= 40  # O(log n) w.h.p., generous slack

    def test_isolated_vertex(self):
        net = Network.from_edges(1, [])
        colors, _ = randomized_list_coloring(net, [[3]], seed=0)
        assert colors == [3]

    def test_negative_colors_rejected(self):
        net = Network.from_edges(2, [(0, 1)])
        with pytest.raises(SubroutineError, match=">= 0"):
            randomized_list_coloring(net, [[-1, 0], [0, 1]], seed=0)

    def test_trials_are_one_word_and_lists_untouched(self, monkeypatch):
        """A trial is the bare color ``c`` and a final its complement
        ``~c``, so every payload is a plain int; the caller's lists are
        not edited."""
        payloads = []
        send, broadcast = Api.send, Api.broadcast

        def recording_send(api, neighbor, message):
            payloads.append(message)
            send(api, neighbor, message)

        def recording_broadcast(api, message):
            payloads.append(message)
            broadcast(api, message)

        monkeypatch.setattr(Api, "send", recording_send)
        monkeypatch.setattr(Api, "broadcast", recording_broadcast)
        net = random_network(60, 150, seed=7)
        lists = minimal_lists(net)
        net.run(_RandomTrialColoring(lists, random.Random(0)))
        assert all(type(payload) is int for payload in payloads)
        assert any(payload < 0 for payload in payloads)  # finals sent as ~c
        assert lists == minimal_lists(net)


class TestPropertyBased:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        extra=st.integers(min_value=0, max_value=3),
    )
    def test_deterministic_always_proper(self, seed, extra):
        net = random_network(30, 70, seed=seed)
        lists = [
            list(range(net.degree(v) + 1 + extra)) for v in range(net.n)
        ]
        colors, _ = deg_plus_one_list_coloring(net, lists)
        assert all(colors[u] != colors[v] for u, v in net.edges())

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_randomized_always_proper(self, seed):
        net = random_network(30, 70, seed=seed)
        lists = [list(range(net.degree(v) + 1)) for v in range(net.n)]
        colors, _ = randomized_list_coloring(net, lists, seed=seed)
        assert all(colors[u] != colors[v] for u, v in net.edges())
