"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the failure mode by subclass.
"""

from __future__ import annotations

from typing import Sequence


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError, ValueError):
    """A config knob is out of its bounds.

    ``field`` names the offending dataclass field and ``flag`` its
    command-line flag (``None`` when it has none); ``repro`` prints the
    flag next to the message.
    """

    def __init__(
        self, message: str, *, field: str, flag: str | None = None
    ) -> None:
        super().__init__(message)
        self.field = field
        self.flag = flag


class GraphStructureError(ReproError):
    """The input graph violates a structural precondition.

    Examples: the graph contains a (Delta+1)-clique, is not simple, or the
    adjacency structure is malformed.
    """


class NotDenseError(GraphStructureError):
    """The graph is not dense: its ACD contains sparse vertices.

    The algorithms of the paper (Theorems 1 and 2) are only defined for
    dense graphs (Definition 4); callers must either supply a dense graph
    or handle sparse vertices themselves.
    """


class InvalidColoringError(ReproError):
    """A produced or supplied coloring is not a proper coloring."""

    def __init__(
        self, message: str, *, violations: Sequence[str] | None = None
    ) -> None:
        super().__init__(message)
        self.violations: list[str] = list(violations or [])


class InvariantViolation(ReproError):
    """An internal algorithmic invariant failed.

    Raised by the runtime verifiers (e.g. Lemma 11's ``delta_H > 1.1 r_H``
    check or Lemma 16's virtual-degree bound).  Seeing this exception means
    either the input violates a paper precondition or there is a bug; the
    message names the lemma whose guarantee broke.
    """


class SubroutineError(ReproError):
    """A distributed subroutine failed to produce a valid output."""


class SimulationError(ReproError):
    """The LOCAL simulator detected a protocol violation.

    Examples: sending a message to a non-neighbor, exceeding the configured
    round limit, or scheduling a node after it halted.
    """


class RoundLimitExceeded(SimulationError):
    """An algorithm ran past the configured ``max_rounds`` safety limit."""
