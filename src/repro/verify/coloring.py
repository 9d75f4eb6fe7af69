"""Proper-coloring validation."""

from __future__ import annotations

from typing import Sequence

from repro.errors import InvalidColoringError
from repro.local.network import Network

__all__ = ["coloring_violations", "is_proper_coloring", "verify_coloring"]


def coloring_violations(
    network: Network, colors: Sequence[int | None], num_colors: int
) -> list[str]:
    """All reasons the coloring is invalid (empty list when proper)."""
    if len(colors) != network.n:
        return [
            f"coloring has {len(colors)} entries for {network.n} vertices"
        ]
    problems: list[str] = []
    for v in range(network.n):
        color = colors[v]
        if color is None:
            problems.append(f"vertex {v} is uncolored")
        elif not 0 <= color < num_colors:
            problems.append(
                f"vertex {v} has color {color} outside range(0, {num_colors})"
            )
    # Each edge from its smaller end, in ``Network.edges()`` order.
    for u, neighbors in enumerate(network.adjacency):
        color = colors[u]
        if color is None:
            continue
        for v in neighbors:
            if colors[v] == color and u < v:
                problems.append(f"edge ({u}, {v}) is monochromatic (color {color})")
    return problems


def is_proper_coloring(
    network: Network, colors: Sequence[int | None], num_colors: int
) -> bool:
    return not coloring_violations(network, colors, num_colors)


def verify_coloring(
    network: Network, colors: Sequence[int | None], num_colors: int
) -> None:
    """Raise :class:`InvalidColoringError` unless the coloring is proper.

    ``num_colors = Delta`` checks the paper's guarantee.
    """
    problems = coloring_violations(network, colors, num_colors)
    if problems:
        raise InvalidColoringError(
            f"invalid {num_colors}-coloring: {problems[0]} "
            f"({len(problems)} violations total)",
            violations=problems,
        )
