"""Generators for dense Delta-coloring instances.

The central construction plants hard cliques exactly as characterized by
Lemma 9 of the paper: take a d-regular *triangle-free* "clique graph" on
``t`` nodes with at most one edge between any pair (girth >= 4), blow
every node up into a clique, and realize each clique-graph edge as a
single inter-clique edge whose endpoints are distinct clique members.
This provably avoids every loophole on at most 6 vertices:

* every vertex has degree exactly Delta (no degree loopholes),
* any two cliques share at most one edge (no non-clique 4-cycles),
* the clique graph is triangle-free (no non-clique 6-cycles through
  three cliques), and no 6-cycle can use only two cliques.

Easy/mixed instances are derived by deleting edges (creating degree
loopholes) from selected cliques.
"""

from __future__ import annotations

import random

from repro.errors import GraphStructureError
from repro.graphs.instance import DenseInstance
from repro.local.network import Network

__all__ = [
    "clique_blowup",
    "hard_clique_graph",
    "hard_clique_torus",
    "heterogeneous_hard_cliques",
    "isolated_cliques",
    "mixed_dense_graph",
    "projective_plane_clique_graph",
    "regular_bipartite_graph",
    "sparse_dense_mix",
]


def regular_bipartite_graph(
    half: int, degree: int, rng: random.Random | None = None
) -> list[list[int]]:
    """A ``degree``-regular bipartite graph on ``2 * half`` nodes.

    Built from ``degree`` disjoint perfect matchings between the sides:
    matching ``j`` connects left node ``i`` to right node
    ``pi(i) + j (mod half)``.  With the identity permutation this is a
    circulant; with an rng, ``pi`` and a shuffle of the shift offsets
    randomize the graph while keeping it provably simple (for fixed
    ``i``, distinct shifts hit distinct right nodes).  Bipartite, hence
    girth >= 4 and triangle-free.
    """
    if degree > half:
        raise GraphStructureError(
            f"a {degree}-regular bipartite graph needs each side >= {degree}, "
            f"got {half}"
        )
    adjacency: list[list[int]] = [[] for _ in range(2 * half)]
    pi = list(range(half))
    shifts = list(range(half))
    if rng is not None:
        rng.shuffle(pi)
        rng.shuffle(shifts)
    for shift in shifts[:degree]:
        for left in range(half):
            right = half + (pi[left] + shift) % half
            adjacency[left].append(right)
            adjacency[right].append(left)
    return adjacency


def clique_blowup(
    clique_graph: list[list[int]],
    clique_size: int,
    external_per_vertex: int,
    *,
    delta: int | None = None,
    rng: random.Random | None = None,
    meta: dict | None = None,
) -> DenseInstance:
    """Blow up a clique graph into a dense instance.

    Every node of ``clique_graph`` becomes a clique on ``clique_size``
    vertices; each incident clique-graph edge is realized as one edge of
    the instance, and each clique member is the endpoint of exactly
    ``external_per_vertex`` of them.  Requires every clique-graph node to
    have degree exactly ``clique_size * external_per_vertex``.
    """
    t = len(clique_graph)
    s = clique_size
    k = external_per_vertex
    expected_degree = s * k
    for i, nbrs in enumerate(clique_graph):
        if len(nbrs) != expected_degree:
            raise GraphStructureError(
                f"clique-graph node {i} has degree {len(nbrs)}, "
                f"expected {expected_degree} = clique_size * external_per_vertex"
            )
        if len(set(nbrs)) != len(nbrs):
            raise GraphStructureError(
                f"clique-graph node {i} has parallel edges; hard instances "
                "allow at most one edge between two cliques (else a "
                "non-clique 4-cycle, i.e. a loophole, appears)"
            )

    # ``Network.from_edges`` order: clique mates, then external neighbors.
    cliques: list[list[int]] = []
    adjacency: list[list[int]] = []
    for i in range(t):
        members = list(range(i * s, (i + 1) * s))
        cliques.append(members)
        adjacency.extend([w for w in members if w != v] for v in members)

    # Deterministically assign each clique's incident clique-graph edges to
    # its members, k edges per member; each clique-graph edge {i, j} gets
    # one endpoint slot on each side.
    slot_iters = []
    for i in range(t):
        slots = [cliques[i][a] for a in range(s) for _ in range(k)]
        if rng is not None:
            rng.shuffle(slots)
        slot_iters.append(iter(slots))
    for i in range(t):
        for j in clique_graph[i]:
            if i < j:
                u = next(slot_iters[i])
                v = next(slot_iters[j])
                adjacency[u].append(v)
                adjacency[v].append(u)
    # Every slot must be consumed; leftover slots mean the clique graph was
    # inconsistent with (s, k).
    for i, it in enumerate(slot_iters):
        if next(it, None) is not None:
            raise GraphStructureError(f"unconsumed external slot in clique {i}")

    # Simple and symmetric by construction (parallel edges rejected above).
    network = Network(adjacency, name="clique-blowup", validate_structure=False)
    instance = DenseInstance(
        network=network,
        cliques=cliques,
        clique_graph=[sorted(nbrs) for nbrs in clique_graph],
        delta=network.max_degree,
        meta=meta or {"generator": "clique_blowup"},
    )
    if delta is not None and instance.delta != delta:
        raise GraphStructureError(
            f"blowup produced Delta={instance.delta}, expected {delta}"
        )
    return instance


def hard_clique_graph(
    num_cliques: int,
    delta: int,
    *,
    external_per_vertex: int = 1,
    seed: int | None = None,
) -> DenseInstance:
    """The canonical hard instance (Figure 2 of the paper, at scale).

    ``num_cliques`` cliques of size ``delta - external_per_vertex + 1``;
    every vertex has degree exactly ``delta`` with ``external_per_vertex``
    external neighbors in distinct cliques.  All cliques are hard: the
    instance contains no loophole of at most 6 vertices.

    ``num_cliques`` must be even (the clique graph is bipartite) and at
    least ``2 * clique_size * external_per_vertex`` so that enough
    disjoint matchings exist.
    """
    k = external_per_vertex
    if k < 1:
        raise GraphStructureError("external_per_vertex must be >= 1")
    s = delta - k + 1
    if s < 2:
        raise GraphStructureError(f"delta={delta} too small for k={k}")
    if num_cliques % 2 != 0:
        raise GraphStructureError("num_cliques must be even (bipartite clique graph)")
    if num_cliques < 2 * s * k:
        raise GraphStructureError(
            f"need num_cliques >= {2 * s * k} for a {s * k}-regular bipartite "
            f"clique graph, got {num_cliques}"
        )
    rng = random.Random(seed) if seed is not None else None
    clique_graph = regular_bipartite_graph(num_cliques // 2, s * k, rng)
    return clique_blowup(
        clique_graph,
        s,
        k,
        delta=delta,
        rng=rng,
        meta={
            "generator": "hard_clique_graph",
            "num_cliques": num_cliques,
            "delta": delta,
            "external_per_vertex": k,
            "seed": seed,
        },
    )


def projective_plane_clique_graph(q: int) -> DenseInstance:
    """Hard instance whose clique graph has girth 6 (PG(2, q) incidence).

    The point-line incidence graph of the projective plane over ``F_q``
    (``q`` prime) is bipartite, ``(q+1)``-regular on ``2 (q^2 + q + 1)``
    nodes, and has girth 6 — one notch above the girth-4 circulants of
    :func:`hard_clique_graph`.  Blowing it up yields a hard instance
    with ``Delta = q + 1`` whose *shortest lifted non-clique even cycle*
    has 12 vertices instead of 8, which grows the degree-choosable
    components the DCC baseline relies on while leaving the slack-triad
    machinery untouched (experiment E3b).
    """
    if q < 2 or any(q % f == 0 for f in range(2, q)):
        raise GraphStructureError(f"q must be prime, got {q}")
    # Canonical projective points of F_q^3: first nonzero coordinate 1.
    points = [(1, x, y) for x in range(q) for y in range(q)]
    points += [(0, 1, y) for y in range(q)]
    points.append((0, 0, 1))
    count = len(points)  # q^2 + q + 1
    clique_graph: list[list[int]] = [[] for _ in range(2 * count)]
    for i, point in enumerate(points):
        for j, line in enumerate(points):
            if sum(a * b for a, b in zip(point, line)) % q == 0:
                clique_graph[i].append(count + j)
                clique_graph[count + j].append(i)
    return clique_blowup(
        clique_graph, q + 1, 1, delta=q + 1,
        meta={"generator": "projective_plane_clique_graph", "q": q,
              "clique_graph_girth": 6},
    )


def hard_clique_torus(rows: int, cols: int) -> DenseInstance:
    """Hard instance whose clique graph is a 4-regular torus grid.

    The 4-regular clique graph forces clique size 4 with one external
    edge per vertex, i.e. Delta = 4 — a tiny fixture exercising the
    generic blowup path on a non-bipartite-circulant clique graph.  Both
    torus dimensions must be even (no odd clique-graph cycles) and at
    least 4 (dimension 2 would create parallel edges between cliques).
    """
    if rows < 4 or cols < 4 or rows % 2 or cols % 2:
        raise GraphStructureError("torus dimensions must be even and >= 4")
    t = rows * cols

    def node(r: int, c: int) -> int:
        return (r % rows) * cols + (c % cols)

    clique_graph: list[list[int]] = [[] for _ in range(t)]
    for r in range(rows):
        for c in range(cols):
            clique_graph[node(r, c)] = [
                node(r - 1, c), node(r + 1, c), node(r, c - 1), node(r, c + 1),
            ]
    return clique_blowup(
        clique_graph, 4, 1, delta=4,
        meta={"generator": "hard_clique_torus", "rows": rows, "cols": cols},
    )


def isolated_cliques(count: int, size: int) -> DenseInstance:
    """Disjoint cliques of the given size (Delta = size - 1).

    These are the only dense graphs with small Delta (remark below
    Definition 4); every clique is easy (all vertices have degree < Delta
    relative to a larger ambient Delta) unless the graph is a single
    clique.  Used as a degenerate-case fixture.
    """
    edges = []
    cliques = []
    for i in range(count):
        members = list(range(i * size, (i + 1) * size))
        cliques.append(members)
        for a in range(size):
            for b in range(a + 1, size):
                edges.append((members[a], members[b]))
    network = Network.from_edges(count * size, edges, name="isolated-cliques")
    return DenseInstance(
        network=network,
        cliques=cliques,
        clique_graph=[[] for _ in range(count)],
        delta=size - 1,
        meta={"generator": "isolated_cliques", "count": count, "size": size},
    )


def mixed_dense_graph(
    num_cliques: int,
    delta: int,
    *,
    easy_fraction: float = 0.25,
    external_per_vertex: int = 1,
    seed: int | None = None,
) -> DenseInstance:
    """A hard instance in which a fraction of cliques is made easy.

    A clique is made easy by deleting one of its internal edges, which
    gives two of its vertices degree Delta - 1 — a Definition 6 type-1
    loophole.  The deletion keeps the graph dense for the ACD (the two
    vertices still have ``clique_size - 2`` friends) while exercising the
    easy/loophole coloring path (Algorithm 3) and Type II cliques
    (Lemma 12).

    ``meta['easy_cliques']`` lists the planted easy clique indices.
    """
    if not 0 <= easy_fraction <= 1:
        raise GraphStructureError("easy_fraction must be in [0, 1]")
    instance = hard_clique_graph(
        num_cliques, delta, external_per_vertex=external_per_vertex, seed=seed
    )
    rng = random.Random(seed if seed is not None else 0)
    num_easy = round(easy_fraction * num_cliques)
    easy = sorted(rng.sample(range(num_cliques), num_easy))

    removed: set[tuple[int, int]] = set()
    for index in easy:
        members = instance.cliques[index]
        u, v = members[0], members[1]
        removed.add((min(u, v), max(u, v)))
    # ``Network.from_edges`` order; a subgraph of a simple graph is simple.
    adjacency: list[list[int]] = [[] for _ in range(instance.n)]
    for v, neighbors in enumerate(instance.network.adjacency):
        for u in neighbors:
            if v < u and (v, u) not in removed:
                adjacency[v].append(u)
                adjacency[u].append(v)
    network = Network(adjacency, name="mixed-dense", validate_structure=False)
    return DenseInstance(
        network=network,
        cliques=instance.cliques,
        clique_graph=instance.clique_graph,
        delta=delta,
        meta={
            "generator": "mixed_dense_graph",
            "num_cliques": num_cliques,
            "delta": delta,
            "easy_fraction": easy_fraction,
            "easy_cliques": easy,
            "seed": seed,
        },
    )


def sparse_dense_mix(
    num_cliques: int,
    delta: int,
    *,
    blob_size: int | None = None,
    attachments: int = 4,
    seed: int | None = None,
) -> DenseInstance:
    """Hard cliques plus a Delta-regular *sparse* blob (extension input).

    The blob is a random Delta-regular graph (neighborhoods nearly
    empty, so every blob vertex is eta-sparse and lands in the ACD's
    V_sparse) glued to the dense region by redirecting ``attachments``
    inter-clique matching edges: edge (u, v) between cliques becomes
    u—b1 and v—b2 for blob vertices b1, b2 whose own degree was lowered
    to Delta - 1 by removing a blob matching.  Degrees stay exactly
    Delta everywhere, every affected clique is touched once (so all
    cliques remain hard), and no blob vertex sees two vertices of one
    clique.

    ``meta['blob_vertices']`` lists the sparse vertex range.  This is
    the workload of the sparse-extension experiment (E12) and of
    :func:`repro.core.sparse.delta_color_general`.
    """
    import networkx as nx

    if attachments % 2:
        raise GraphStructureError("attachments must be even")
    if blob_size is None:
        blob_size = max(4 * delta, 2 * attachments + delta)
    if blob_size * delta % 2:
        blob_size += 1
    base = hard_clique_graph(num_cliques, delta, seed=seed)
    rng = random.Random(seed if seed is not None else 0)

    blob_graph = nx.random_regular_graph(delta, blob_size, seed=rng.randrange(2 ** 31))
    blob_offset = base.n
    blob_edges = [
        (blob_offset + a, blob_offset + b) for a, b in blob_graph.edges()
    ]

    # Free attachment stubs: remove a matching of attachments/2 blob
    # edges; their endpoints drop to Delta - 1.
    removed: list[tuple[int, int]] = []
    used: set[int] = set()
    for a, b in list(blob_edges):
        if len(removed) == attachments // 2:
            break
        if a not in used and b not in used:
            removed.append((a, b))
            used.update((a, b))
    if len(removed) < attachments // 2:
        raise GraphStructureError(
            "blob too small to free enough attachment stubs"
        )
    removed_set = set(removed)
    blob_edges = [e for e in blob_edges if e not in removed_set]
    stubs = [v for edge in removed for v in edge]

    # Redirect inter-clique edges whose endpoint cliques are all distinct.
    owner = base.clique_of()
    inter = [
        (u, v)
        for u, v in base.network.edges()
        if owner[u] != owner[v]
    ]
    rng.shuffle(inter)
    chosen: list[tuple[int, int]] = []
    touched: set[int] = set()
    for u, v in inter:
        if len(chosen) == attachments // 2:
            break
        if owner[u] in touched or owner[v] in touched:
            continue
        touched.update((owner[u], owner[v]))
        chosen.append((u, v))
    if len(chosen) < attachments // 2:
        raise GraphStructureError(
            "not enough clique-disjoint inter-clique edges to redirect"
        )

    chosen_set = {(min(u, v), max(u, v)) for u, v in chosen}
    edges = [
        (u, v)
        for u, v in base.network.edges()
        if (min(u, v), max(u, v)) not in chosen_set
    ]
    edges.extend(blob_edges)
    stub_iter = iter(stubs)
    for u, v in chosen:
        edges.append((u, next(stub_iter)))
        edges.append((v, next(stub_iter)))

    network = Network.from_edges(base.n + blob_size, edges, name="sparse-dense-mix")
    instance = DenseInstance(
        network=network,
        cliques=base.cliques,
        clique_graph=base.clique_graph,
        delta=delta,
        meta={
            "generator": "sparse_dense_mix",
            "num_cliques": num_cliques,
            "delta": delta,
            "blob_vertices": list(range(blob_offset, blob_offset + blob_size)),
            "attachments": attachments,
            "seed": seed,
        },
    )
    if network.max_degree != delta:
        raise GraphStructureError(
            f"mix produced Delta={network.max_degree}, expected {delta}"
        )
    return instance


def heterogeneous_hard_cliques(
    scale: int,
    delta: int,
    *,
    seed: int | None = None,
) -> DenseInstance:
    """Dense instance with *mixed* clique sizes (heterogeneous e_C).

    Combines ``2 * (delta - 1) * scale`` large cliques of size ``delta``
    (one external edge per vertex) with ``delta * scale`` small cliques
    of size ``delta - 1`` (two external edges per vertex); every vertex
    still has degree exactly ``delta``.  The clique graph is bipartite
    between the families (larges never touch larges), so it is
    triangle-free with at most one edge per pair; small cliques may
    still be classified easy through all-external 4-cycles (H4), which
    exercises mixed Type I/II pipelines.  Lemma 9.2's ``e_C = Delta -
    |C| + 1`` takes both values 1 and 2 within one instance.
    """
    if scale < 1:
        raise GraphStructureError("scale must be >= 1")
    if delta < 4:
        raise GraphStructureError("delta must be >= 4")
    large_size, small_size = delta, delta - 1
    small_degree = 2 * small_size            # external slots per small clique
    num_large = small_degree * scale
    num_small = large_size * scale           # balances total slots exactly
    rng = random.Random(seed if seed is not None else 0)

    cliques: list[list[int]] = []
    edges: list[tuple[int, int]] = []
    next_vertex = 0
    sizes = [large_size] * num_large + [small_size] * num_small
    for size in sizes:
        members = list(range(next_vertex, next_vertex + size))
        next_vertex += size
        cliques.append(members)
        for a in range(size):
            for b in range(a + 1, size):
                edges.append((members[a], members[b]))

    # Bipartite clique graph: small clique j connects to small_degree
    # distinct large cliques via a shifted round-robin (j * small_degree
    # + i mod num_large); each large clique ends with exactly
    # large_size incident edges.
    offset = rng.randrange(num_large) if seed is not None else 0
    clique_graph: list[list[int]] = [[] for _ in sizes]
    large_slots: list[list[int]] = []
    for i in range(num_large):
        slots = list(cliques[i])
        if seed is not None:
            rng.shuffle(slots)
        large_slots.append(slots)
    for j in range(num_small):
        small_index = num_large + j
        members = cliques[small_index]
        slots = [v for v in members for _ in range(2)]
        if seed is not None:
            rng.shuffle(slots)
        for i in range(small_degree):
            large_index = (j * small_degree + i + offset) % num_large
            u = large_slots[large_index].pop()
            v = slots[i]
            edges.append((u, v))
            clique_graph[large_index].append(small_index)
            clique_graph[small_index].append(large_index)
    if any(large_slots[i] for i in range(num_large)):
        raise GraphStructureError("unbalanced slot assignment")

    network = Network.from_edges(next_vertex, edges, name="heterogeneous-hard")
    if network.max_degree != delta:
        raise GraphStructureError(
            f"construction produced Delta={network.max_degree}, "
            f"expected {delta}"
        )
    return DenseInstance(
        network=network,
        cliques=cliques,
        clique_graph=[sorted(nbrs) for nbrs in clique_graph],
        delta=delta,
        meta={
            "generator": "heterogeneous_hard_cliques",
            "num_large": num_large,
            "num_small": num_small,
            "delta": delta,
            "seed": seed,
        },
    )
