"""Instance container for generated dense graphs.

A :class:`DenseInstance` bundles the communication network with the
ground-truth structure the generator planted (the cliques and the clique
graph), which tests and benchmarks use as an oracle for what the ACD and
the hard/easy classification should recover.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Iterable, Sequence

from repro.local.network import Network

__all__ = ["DenseInstance", "adjacency_instance_hash", "canonical_instance_hash"]


def canonical_instance_hash(
    n: int,
    edges: Iterable[tuple[int, int]],
    delta: int,
    uids: Sequence[int] | None = None,
) -> str:
    """SHA-256 over a canonical serialization of an instance topology.

    The serialization covers everything the coloring pipeline reads —
    vertex count, maximum degree, the uid assignment, and the edge set
    normalized to sorted ``(min, max)`` pairs.  Uids are part of the key
    because the pipeline breaks symmetry by uid: two topologically equal
    graphs with different uid assignments can legitimately produce
    different colorings, so they must not share a cache entry.  Planted
    oracle structure (cliques, generator metadata) is deliberately
    excluded: the pipeline never reads it, so it must not fragment the
    key space.

    The hex digest is stable across processes, Python versions, and
    machines (unlike ``hash()``, which is salted per interpreter), which
    is what makes it usable as a serving-cache key.
    """
    return _instance_digest(n, delta, uids, sorted(
        (u, v) if u < v else (v, u) for u, v in edges
    ))


def adjacency_instance_hash(
    adjacency: Sequence[Sequence[int]],
    delta: int,
    uids: Sequence[int] | None = None,
) -> str:
    """:func:`canonical_instance_hash` of the simple graph ``adjacency``.

    Streams the sorted pairs row by row (for each ``u``, its sorted
    neighbours ``v > u``) instead of building and sorting an edge list.
    """
    return _instance_digest(len(adjacency), delta, uids, (
        (u, v)
        for u, row in enumerate(adjacency)
        for v in sorted(v for v in row if v > u)
    ))


#: Items joined per ``update`` call: bounds the hash's transient memory.
_HASH_CHUNK = 4096


def _instance_digest(
    n: int,
    delta: int,
    uids: Sequence[int] | None,
    pairs: Iterable[tuple[int, int]],
) -> str:
    digest = hashlib.sha256(f"v1:{n}:{delta}:".encode())
    _update_joined(digest, map(str, range(n) if uids is None else uids))
    digest.update(b":")
    _update_joined(digest, (f"{u}-{v}" for u, v in pairs))
    return digest.hexdigest()


def _update_joined(digest: Any, items: Iterable[str]) -> None:
    """Feed ``",".join(items)`` to ``digest`` a chunk at a time."""
    items = iter(items)
    separator = b""
    while chunk := list(islice(items, _HASH_CHUNK)):
        digest.update(separator + ",".join(chunk).encode())
        separator = b","


@dataclass
class DenseInstance:
    """A generated dense graph together with its planted structure.

    Attributes
    ----------
    network:
        The simulated LOCAL network.
    cliques:
        Planted cliques as vertex lists; ``cliques[i]`` are the vertices
        of clique ``i``.  Every vertex belongs to exactly one clique.
    clique_graph:
        Adjacency between planted cliques: ``clique_graph[i]`` lists the
        cliques that share at least one edge with clique ``i``.
    delta:
        Maximum degree of the network (every vertex of a hard instance
        has degree exactly ``delta``).
    meta:
        Generator name and parameters, for bench provenance.
    """

    network: Network
    cliques: list[list[int]]
    clique_graph: list[list[int]]
    delta: int
    meta: dict[str, Any] = field(default_factory=dict)
    _hash: tuple[tuple[Any, ...], str] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n(self) -> int:
        return self.network.n

    @property
    def num_cliques(self) -> int:
        return len(self.cliques)

    def clique_of(self) -> list[int]:
        """Map vertex -> planted clique index."""
        owner = [-1] * self.network.n
        for index, members in enumerate(self.cliques):
            for v in members:
                owner[v] = index
        return owner

    def canonical_hash(self) -> str:
        """Stable SHA-256 identity of the instance topology.

        See :func:`canonical_instance_hash` for what the key covers and
        why.  ``save_instance``/``load_instance`` round-trips preserve
        this hash, so a persisted instance and its in-memory original
        address the same serving-cache entries.  Memoized: the network's
        adjacency is frozen, so the hash is recomputed only when the
        network, ``delta`` or the (mutable) uid list changed.
        """
        inputs = (self.network, self.delta, tuple(self.network.uids))
        if self._hash is None or self._hash[0] != inputs:
            self._hash = (inputs, adjacency_instance_hash(
                self.network.adjacency, self.delta, self.network.uids
            ))
        return self._hash[1]

    def describe(self) -> str:
        return (
            f"{self.meta.get('generator', 'instance')}: n={self.n}, "
            f"Delta={self.delta}, cliques={self.num_cliques}"
        )
