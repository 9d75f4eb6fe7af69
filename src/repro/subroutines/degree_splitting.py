"""Degree splitting — Lemma 21 / Corollary 22 substrate.

An (undirected) degree splitting 2-colors the edges of a (multi)graph so
that every vertex sees roughly half of its edges in each color class;
iterating ``i`` times yields ``2**i`` classes with per-vertex counts in
``deg/2**i ± (eps * deg + a)`` (Corollary 22).

Algorithm (the classic path/cycle-decomposition splitter, in the style
of Ghaffari et al.'s distributed degree splitting):

1. At every vertex, pair up its incident edges arbitrarily (at most one
   edge per vertex stays unpaired).  The pairing links edges into
   disjoint *trails* (paths and cycles) in which consecutive edges share
   a vertex.
2. Along every trail, select *anchors*: edges whose uid is minimal among
   all trail edges within distance ``L = ceil(8 / eps)``; trail
   endpoints are also anchors.  Any two anchors are more than ``L``
   apart, so segments between consecutive anchors are long.
3. 2-color each segment alternately.  Every pair at a vertex interior to
   a segment contributes one edge to each class; only unpaired edges
   (<= 1 per vertex) and segment boundaries can skew the balance, and a
   vertex meets few boundaries because segments are long.

Distributed cost: anchor selection is an ``L``-hop flood along trails
and token propagation covers each segment once, so one split costs
``L + (max segment length)`` rounds, which this module computes and
returns.  The implementation walks the trails centrally (they are plain
linked lists) while charging exactly that LOCAL cost; the paper's
[GHKMS] splitter has a worst-case ``O(eps^-1 polyloglog(eps^-1) log n)``
guarantee, whereas ours is tight on non-adversarial uid orders and its
output contract is *verified* (and, in Phase 2, repaired) downstream —
see the DESIGN.md substitution table.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from repro.errors import SubroutineError

__all__ = [
    "OrientationResult",
    "SplitResult",
    "directed_discrepancy",
    "directed_split",
    "iterated_split",
    "split_discrepancy",
    "split_edges",
]


@dataclass
class SplitResult:
    """Outcome of a (possibly iterated) degree split.

    ``part_of[i]`` is the class of edge ``i`` in ``range(num_parts)``;
    ``rounds`` is the charged LOCAL round cost.
    """

    part_of: list[int]
    num_parts: int
    rounds: int


def _pair_incident_edges(
    num_vertices: int, edges: Sequence[tuple[int, int]]
) -> list[list[int | None]]:
    """Pair edges at each endpoint; returns per-edge partner slots.

    ``partners[e][0]`` / ``partners[e][1]`` is the edge paired with ``e``
    at its first / second endpoint (or None).
    """
    incident: list[list[tuple[int, int]]] = [[] for _ in range(num_vertices)]
    for index, (u, v) in enumerate(edges):
        if u == v:
            raise SubroutineError("degree splitting does not support self-loops")
        incident[u].append((index, 0))
        incident[v].append((index, 1))
    partners: list[list[int | None]] = [[None, None] for _ in edges]
    for slots in incident:
        for i in range(0, len(slots) - 1, 2):
            (e1, side1), (e2, side2) = slots[i], slots[i + 1]
            partners[e1][side1] = e2
            partners[e2][side2] = e1
    return partners


def _extract_trails(
    partners: list[list[int | None]],
) -> list[tuple[list[int], bool]]:
    """Decompose the partner structure into trails.

    Returns ``(edge_sequence, is_cycle)`` per trail.  Every edge has at
    most two partners, so components are paths or cycles.
    """
    visited = [False] * len(partners)
    trails: list[tuple[list[int], bool]] = []

    def walk(start: int, first: int | None) -> list[int]:
        sequence = [start]
        visited[start] = True
        prev, current = start, first
        while current is not None and not visited[current]:
            sequence.append(current)
            visited[current] = True
            a, b = partners[current]
            current, prev = (b if a == prev else a), current
        return sequence

    # Paths first (start at edges with a free slot), then cycles.
    for e, (a, b) in enumerate(partners):
        if visited[e] or (a is not None and b is not None):
            continue
        first = a if a is not None else b
        trails.append((walk(e, first), False))
    for e, (a, b) in enumerate(partners):
        if not visited[e]:
            trails.append((walk(e, a), True))
    return trails


def _select_anchors(
    sequence: list[int], is_cycle: bool, uids: Sequence[int], window: int
) -> list[int]:
    """Positions of the local-minimum anchors within one trail.

    Position ``i`` is an anchor when its uid is the smallest within
    ``window`` trail steps on either side (wrapping around a cycle,
    clipped at a path's ends).  One sliding-window minimum (a monotonic
    deque of positions) finds them all in O(L); uids are unique.
    """
    length = len(sequence)
    keys = [uids[e] for e in sequence]
    if is_cycle:
        if 2 * window + 1 >= length:
            # Every window covers the whole cycle: only its minimum.
            return [min(range(length), key=keys.__getitem__)]
        # Pad with ``window`` positions of wrap-around on both sides.
        keys = keys[-window:] + keys + keys[:window]
        offset = window
    else:
        offset = 0
    anchors = []
    minima: deque[int] = deque()  # positions in ``keys``, keys increasing
    ahead = 0
    for i in range(length):
        center = i + offset
        last = min(center + window, len(keys) - 1)
        while ahead <= last:
            key = keys[ahead]
            while minima and keys[minima[-1]] > key:
                minima.pop()
            minima.append(ahead)
            ahead += 1
        while minima[0] < center - window:
            minima.popleft()
        if minima[0] == center:
            anchors.append(i)
    return anchors


def split_edges(
    num_vertices: int,
    edges: Sequence[tuple[int, int]],
    *,
    epsilon: float = 1.0 / 8.0,
    edge_uids: Sequence[int] | None = None,
) -> SplitResult:
    """One undirected degree split into two classes."""
    if not 0 < epsilon <= 1:
        raise SubroutineError("epsilon must be in (0, 1]")
    if edge_uids is None:
        edge_uids = list(range(len(edges)))
    if len(edge_uids) != len(edges) or len(set(edge_uids)) != len(edges):
        raise SubroutineError("edge_uids must be unique, one per edge")
    window = max(4, math.ceil(8.0 / epsilon))

    partners = _pair_incident_edges(num_vertices, edges)
    trails = _extract_trails(partners)

    part_of = [0] * len(edges)
    max_segment = 0
    for sequence, is_cycle in trails:
        anchors = _select_anchors(sequence, is_cycle, edge_uids, window)
        length = len(sequence)
        if not is_cycle:
            boundaries = sorted(set(anchors) | {0})
        else:
            boundaries = sorted(anchors)
        for b, start in enumerate(boundaries):
            if is_cycle:
                end = boundaries[(b + 1) % len(boundaries)]
                span = (end - start) % length or length
            else:
                end = boundaries[b + 1] if b + 1 < len(boundaries) else length
                span = end - start
            max_segment = max(max_segment, span)
            for offset in range(span):
                part_of[sequence[(start + offset) % length]] = offset % 2
    rounds = window + max_segment + 2
    return SplitResult(part_of=part_of, num_parts=2, rounds=rounds)


def iterated_split(
    num_vertices: int,
    edges: Sequence[tuple[int, int]],
    iterations: int,
    *,
    epsilon: float = 1.0 / 8.0,
    edge_uids: Sequence[int] | None = None,
) -> SplitResult:
    """Corollary 22: split into ``2**iterations`` classes.

    Parts at the same level are edge-disjoint, so their splits run in
    parallel; the charged rounds are the sum over levels of the worst
    per-part cost.
    """
    if iterations < 0:
        raise SubroutineError("iterations must be non-negative")
    if edge_uids is None:
        edge_uids = list(range(len(edges)))
    labels = [0] * len(edges)
    rounds = 0
    for level in range(iterations):
        level_rounds = 0
        groups: dict[int, list[int]] = {}
        for index, label in enumerate(labels):
            groups.setdefault(label, []).append(index)
        for label, members in groups.items():
            sub_edges = [edges[i] for i in members]
            sub_uids = [edge_uids[i] for i in members]
            result = split_edges(
                num_vertices, sub_edges, epsilon=epsilon, edge_uids=sub_uids
            )
            level_rounds = max(level_rounds, result.rounds)
            for position, edge_index in enumerate(members):
                labels[edge_index] = labels[edge_index] * 2 + result.part_of[position]
        rounds += level_rounds
    return SplitResult(part_of=labels, num_parts=2 ** iterations, rounds=rounds)


def split_discrepancy(
    num_vertices: int,
    edges: Sequence[tuple[int, int]],
    result: SplitResult,
) -> float:
    """Worst per-vertex deviation ``|count_part(v) - deg(v)/parts|``."""
    degree = [0] * num_vertices
    counts = [[0] * result.num_parts for _ in range(num_vertices)]
    for index, (u, v) in enumerate(edges):
        degree[u] += 1
        degree[v] += 1
        counts[u][result.part_of[index]] += 1
        counts[v][result.part_of[index]] += 1
    worst = 0.0
    for v in range(num_vertices):
        target = degree[v] / result.num_parts
        for part in range(result.num_parts):
            worst = max(worst, abs(counts[v][part] - target))
    return worst


@dataclass
class OrientationResult:
    """Outcome of a directed degree split.

    ``orientation[i]`` is 0 when edge ``i`` keeps its given direction
    ``(u, v)`` (oriented u -> v) and 1 when it is reversed.
    """

    orientation: list[int]
    rounds: int


def directed_split(
    num_vertices: int,
    edges: Sequence[tuple[int, int]],
    *,
    epsilon: float = 1.0 / 8.0,
    edge_uids: Sequence[int] | None = None,
) -> OrientationResult:
    """Directed degree splitting (Lemma 21, part 1).

    Orients every edge so that each vertex's in- and out-degrees differ
    by at most ``eps * d(v) + O(1)``: walking each trail in a fixed
    direction makes every interior pair at a vertex contribute one
    incoming and one outgoing edge, and the same anchor-segmentation as
    :func:`split_edges` bounds the defects from unpaired edges and
    segment boundaries.
    """
    if not 0 < epsilon <= 1:
        raise SubroutineError("epsilon must be in (0, 1]")
    if edge_uids is None:
        edge_uids = list(range(len(edges)))
    if len(edge_uids) != len(edges) or len(set(edge_uids)) != len(edges):
        raise SubroutineError("edge_uids must be unique, one per edge")
    window = max(4, math.ceil(8.0 / epsilon))

    partners = _pair_incident_edges(num_vertices, edges)
    trails = _extract_trails(partners)

    orientation = [0] * len(edges)
    max_segment = 0
    for sequence, is_cycle in trails:
        anchors = _select_anchors(sequence, is_cycle, edge_uids, window)
        length = len(sequence)
        if not is_cycle:
            boundaries = sorted(set(anchors) | {0})
        else:
            boundaries = sorted(anchors)
        for b, start in enumerate(boundaries):
            if is_cycle:
                end = boundaries[(b + 1) % len(boundaries)]
                span = (end - start) % length or length
            else:
                end = boundaries[b + 1] if b + 1 < len(boundaries) else length
                span = end - start
            max_segment = max(max_segment, span)
            segment = [
                sequence[(start + offset) % length] for offset in range(span)
            ]
            _orient_along_walk(edges, segment, orientation, partners)
    rounds = window + max_segment + 2
    return OrientationResult(orientation=orientation, rounds=rounds)


def _orient_along_walk(
    edges: Sequence[tuple[int, int]],
    segment: list[int],
    orientation: list[int],
    partners: list[list[int | None]],
) -> None:
    """Orient a trail segment along its walk direction.

    The walk exits each edge at the endpoint where it is *paired* with
    the next segment edge (``partners`` records the pairing side, which
    disambiguates parallel edges) and enters the next edge there, so
    each interior pair at a vertex contributes one incoming and one
    outgoing edge.
    """
    def exit_vertex(position: int) -> int:
        index = segment[position]
        if position + 1 < len(segment):
            successor = segment[position + 1]
            for side in (0, 1):
                if partners[index][side] == successor:
                    return edges[index][side]
        # Last edge (or unpaired continuation): exit opposite the entry.
        return -1

    first_exit = exit_vertex(0)
    first = edges[segment[0]]
    if first_exit == -1:
        at = first[0]
    else:
        at = first[1] if first[0] == first_exit else first[0]
    for index in segment:
        u, v = edges[index]
        if u == at:
            orientation[index] = 0
            at = v
        elif v == at:
            orientation[index] = 1
            at = u
        else:  # pragma: no cover - trails guarantee continuity
            raise SubroutineError("trail segment lost continuity")


def directed_discrepancy(
    num_vertices: int,
    edges: Sequence[tuple[int, int]],
    result: OrientationResult,
) -> int:
    """Worst per-vertex ``|outdeg - indeg|`` under the orientation."""
    balance = [0] * num_vertices
    for index, (u, v) in enumerate(edges):
        if result.orientation[index] == 0:
            balance[u] += 1
            balance[v] -= 1
        else:
            balance[u] -= 1
            balance[v] += 1
    return max((abs(b) for b in balance), default=0)
