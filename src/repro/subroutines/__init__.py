"""Distributed subroutines: every black-box primitive the paper stacks on.

All functions return ``(output, RunResult)`` with LOCAL-faithful round
accounting; see the DESIGN.md substitution table for how each maps to
the black box cited by the paper.
"""

from repro.subroutines.bfs_layering import bfs_layers, layers_to_lists
from repro.subroutines.deg_list_coloring import (
    deg_plus_one_list_coloring,
    randomized_list_coloring,
    validate_lists,
)
from repro.subroutines.degree_splitting import (
    OrientationResult,
    SplitResult,
    directed_discrepancy,
    directed_split,
    iterated_split,
    split_discrepancy,
    split_edges,
)
from repro.subroutines.heg import (
    Hypergraph,
    heg_feasible,
    hyperedge_grabbing,
    verify_heg,
)
from repro.subroutines.linial import (
    LinialColoring,
    linial_coloring,
    linial_palette_bound,
    next_prime,
)
from repro.subroutines.maximal_matching import (
    LINE_ROUND_SCALE,
    line_network,
    maximal_matching,
    verify_matching,
)
from repro.subroutines.mis import luby_mis, maximal_independent_set, verify_mis
from repro.subroutines.ruling_set import (
    digit_ruling_set,
    power_network,
    ruling_set,
    verify_ruling_set,
)
from repro.subroutines.sinkless import sinkless_orientation, verify_sinkless

__all__ = [
    "Hypergraph",
    "OrientationResult",
    "LINE_ROUND_SCALE",
    "LinialColoring",
    "SplitResult",
    "bfs_layers",
    "deg_plus_one_list_coloring",
    "directed_discrepancy",
    "directed_split",
    "digit_ruling_set",
    "heg_feasible",
    "hyperedge_grabbing",
    "iterated_split",
    "layers_to_lists",
    "line_network",
    "linial_coloring",
    "linial_palette_bound",
    "luby_mis",
    "maximal_independent_set",
    "maximal_matching",
    "next_prime",
    "power_network",
    "randomized_list_coloring",
    "ruling_set",
    "split_discrepancy",
    "split_edges",
    "validate_lists",
    "verify_heg",
    "verify_matching",
    "verify_mis",
    "verify_ruling_set",
    "verify_sinkless",
]
