"""Pinned outputs of the five Delta-coloring pipelines.

Each case pins three digests of one pipeline run on a fixed instance:
the colors, the ordered ledger entries as ``(label, rounds, messages)``,
and the ``stats`` dict as sorted JSON (dataclasses via ``asdict``).  A
refactor of the shared pipeline skeleton (setup, shattering driver,
result assembly) must leave every digest unchanged.  The low-activation
cases leave bad cliques behind, so the shattered-component path runs
for Theorem 2, the sparse extension and the GHKM-style baseline.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, is_dataclass
from typing import Any

import pytest

from repro.baselines import dcc_layering_coloring, ghkm_randomized_coloring
from repro.constants import AlgorithmParameters
from repro.core.deterministic import delta_color_deterministic
from repro.core.randomized import delta_color_randomized
from repro.core.sparse import delta_color_general
from repro.errors import InvariantViolation
from repro.graphs import sparse_dense_mix

PARAMS = AlgorithmParameters(epsilon=0.25)


def _digest(obj: Any) -> str:
    def default(value: Any) -> Any:
        if is_dataclass(value):
            return asdict(value)
        raise TypeError(type(value))

    text = json.dumps(obj, sort_keys=True, default=default, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def sparse_mix():
    return sparse_dense_mix(34, 16, seed=1)


def _run(case: str, hard, sparse):
    if case == "det":
        return delta_color_deterministic(hard, params=PARAMS)
    if case == "rand":
        return delta_color_randomized(hard, params=PARAMS, seed=0)
    if case == "rand-large-delta":
        return delta_color_randomized(
            hard, params=PARAMS, seed=0, force_branch="large-delta"
        )
    if case == "rand-low-activation":
        return delta_color_randomized(
            hard, params=PARAMS, seed=3, activation_probability=0.02
        )
    if case == "general":
        return delta_color_general(sparse, params=PARAMS, seed=0)
    if case == "general-low-activation":
        return delta_color_general(
            sparse, params=PARAMS, seed=2, activation_probability=0.02
        )
    if case == "ghkm-low-activation":
        return ghkm_randomized_coloring(
            hard, params=PARAMS, seed=3, activation_probability=0.02
        )
    assert case == "dcc"
    return dcc_layering_coloring(hard, params=PARAMS)


#: case -> (algorithm, rounds, colors digest, ledger digest, stats digest)
PINNED = {
    "det": ("deterministic-delta-coloring", 1973,
            "1bda8ba90a4187ab", "5c95702e9d0ba306", "69df5785beb18b9b"),
    "rand": ("randomized-delta-coloring[shattering]", 55,
             "1e5e89ce9f49f053", "f7dc18d3d684f0f7", "693b7ade11e0bd78"),
    "rand-large-delta": ("randomized-delta-coloring[large-delta]", 44,
                         "b90134ec07d16b1c", "a35c04ae547fcb78",
                         "d3f8dc85aa0020ed"),
    "rand-low-activation": ("randomized-delta-coloring[shattering]", 134,
                            "e914a79f8981bf72", "cdab40d92046d2c5",
                            "8132daf1e419ed39"),
    "general": ("general-delta-coloring[sparse-extension]", 61,
                "b56b1089c127b564", "ae48df37f8d18d7c", "8d5ef8b17caf49ee"),
    "general-low-activation": ("general-delta-coloring[sparse-extension]",
                               127, "2074bd730f6e863c", "00ab799aabfe3d33",
                               "1d503f7f1bd5a53b"),
    "ghkm-low-activation": ("ghkm-randomized-baseline", 135,
                            "e914a79f8981bf72", "1c69332f13df5981",
                            "c22d47c7f500d966"),
    "dcc": ("dcc-layering-baseline", 175,
            "ff716d730dae9fcf", "5320da4faef93609", "ee870d1a8a08115e"),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pipeline_output_pinned(case, hard_instance, sparse_mix):
    result = _run(case, hard_instance.network, sparse_mix.network)
    entries = [(e.label, e.rounds, e.messages) for e in result.ledger.entries]
    algorithm, rounds, colors, ledger, stats = PINNED[case]
    assert result.algorithm == algorithm
    assert result.rounds == rounds
    assert _digest(result.colors) == colors
    assert _digest(entries) == ledger
    assert _digest(result.stats) == stats
    if case.endswith("low-activation"):
        shattering = result.stats.get("shattering", {})
        bad = shattering.get("bad_cliques", result.stats.get("bad_cliques"))
        assert bad > 0


def test_general_low_activation_failure_pinned(sparse_mix):
    with pytest.raises(InvariantViolation) as info:
        delta_color_general(
            sparse_mix.network, params=PARAMS, seed=3,
            activation_probability=0.02,
        )
    assert str(info.value) == (
        "sparse slack generation left 1 deficient vertices (e.g. 597) "
        "after 3 iterations; the graph is outside the extension's regime "
        "(sparse vertices need enough eligible non-adjacent neighbor "
        "pairs, cf. Claim 1)"
    )
