"""Wire protocol of the coloring service: line-delimited JSON.

One request per line, one JSON object per request; one response line per
request.  The envelope is deliberately tiny so clients in any language
can speak it with a socket and a JSON library:

Request::

    {"op": "color", "id": 7, "method": "randomized", "seed": 3,
     "instance": {"n": 128, "edges": [[0, 1], ...]}}

Response::

    {"id": 7, "ok": true, "op": "color", "cached": false,
     "result": {"algorithm": "...", "num_colors": 8, "colors": [...]}}

Errors are first-class responses, never closed connections::

    {"id": 7, "ok": false, "error": {"code": "shed",
     "message": "queue depth 256 at bound; retry later"}}

Ops: ``color`` (run a pipeline), ``cell`` (run a full campaign cell —
the distributed campaign plane's op: the cell spec rides inline, the
graph by ``instance_hash`` only, and the response carries the same
artifact row :func:`repro.runner.campaign.run_cell` produces locally),
``register`` (upload an instance once, address it by canonical hash
afterwards), ``status``, ``health``, ``metrics``, ``drain``, and
``fleet`` (per-shard health, ring ownership, and routing counters —
answered by the router tier; a single shard bounces it with
``unsupported``).  Instances travel either inline (``instance``, same
payload shape as :func:`repro.graphs.save_instance`) or by reference
(``instance_hash`` of a previously registered/submitted instance) —
the reference form keeps steady-state requests a few dozen bytes.
``cell`` accepts the reference form only: the campaign executor sends
every cell by hash and registers a graph only when a backend answers
``unknown_instance`` (hash-first), so each graph crosses the wire at
most once per backend.

Error codes: ``bad_request`` (malformed JSON / fields), ``unsupported``
(unknown op or method), ``unknown_instance`` (hash not registered),
``shed`` (queue bound exceeded — the 429 of this protocol), ``deadline``
(request expired before execution), ``draining`` (server is shutting
down), ``idle_timeout`` (slowloris defense: the connection sent no
complete request within the idle bound and is being closed),
``internal`` (pipeline raised).  Clients may additionally synthesize
``unavailable`` when every transport-level attempt failed — it never
comes from a server.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.graphs.instance import adjacency_instance_hash
from repro.local.network import _adjacency_from_edges

__all__ = [
    "CELL_METHODS",
    "MAX_LINE_BYTES",
    "METHODS",
    "OPS",
    "CellRequest",
    "ColorRequest",
    "InstanceRecord",
    "ProtocolError",
    "encode",
    "error_body",
    "normalize_instance_payload",
    "parse_cell_request",
    "parse_color_request",
    "parse_request",
]

#: Per-line size bound; an instance payload for n ~ 10^5 fits comfortably.
MAX_LINE_BYTES = 32 * 1024 * 1024

OPS = (
    "color", "cell", "register", "status", "health", "metrics", "drain",
    "fleet",
)

#: Pipelines the ``color`` op dispatches to.  The paper pipelines
#: (deterministic / randomized / general) plus the repo's baselines,
#: which give the service a cheap-compute tier.
METHODS = (
    "deterministic",
    "randomized",
    "general",
    "baseline-brooks",
    "baseline-dplus1",
)

#: Methods a campaign ``cell`` may name — exactly the
#: :func:`repro.runner.campaign.run_cell` dispatch table.
CELL_METHODS = ("deterministic", "randomized", "general")


class ProtocolError(ReproError):
    """A request the server understands well enough to refuse."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


@dataclass
class ColorRequest:
    """A validated ``color`` request (instance resolved separately)."""

    id: Any = None
    method: str = "deterministic"
    seed: int | None = None
    epsilon: float = 0.25
    instance: dict[str, Any] | None = None
    instance_hash: str | None = None
    deadline_ms: float | None = None
    include_colors: bool = True
    no_cache: bool = False
    options: dict[str, Any] = field(default_factory=dict)


def encode(body: dict[str, Any]) -> bytes:
    """One response line: compact JSON + newline."""
    return json.dumps(body, separators=(",", ":"), default=str).encode() + b"\n"


def error_body(
    code: str, message: str, *, request_id: Any = None, op: str | None = None
) -> dict[str, Any]:
    body: dict[str, Any] = {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if op is not None:
        body["op"] = op
    return body


def parse_request(line: bytes | str) -> dict[str, Any]:
    """Parse one request line into its envelope dict.

    Raises :class:`ProtocolError` (``bad_request`` / ``unsupported``)
    for anything the router should bounce before touching an op handler.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(
                "bad_request", f"request is not valid UTF-8: {error}"
            ) from error
    try:
        data = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(
            "bad_request", f"request is not valid JSON: {error}"
        ) from error
    if not isinstance(data, dict):
        raise ProtocolError(
            "bad_request",
            f"request must be a JSON object, got {type(data).__name__}",
        )
    op = data.get("op")
    if not isinstance(op, str):
        raise ProtocolError("bad_request", "request is missing a string 'op'")
    if op not in OPS:
        raise ProtocolError(
            "unsupported", f"unknown op {op!r}; expected one of {', '.join(OPS)}"
        )
    return data


def _require(data: dict[str, Any], key: str, kind: type, default: Any) -> Any:
    value = data.get(key, default)
    if value is default:
        return default
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ProtocolError(
            "bad_request", f"field {key!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def parse_color_request(data: dict[str, Any]) -> ColorRequest:
    """Validate the fields of a ``color`` envelope."""
    method = _require(data, "method", str, "deterministic")
    if method not in METHODS:
        raise ProtocolError(
            "unsupported",
            f"unknown method {method!r}; expected one of {', '.join(METHODS)}",
        )
    seed = _require(data, "seed", int, None)
    epsilon = _require(data, "epsilon", float, 0.25)
    if not 0 < epsilon < 1:
        raise ProtocolError(
            "bad_request", f"epsilon must be in (0, 1), got {epsilon}"
        )
    deadline_ms = _require(data, "deadline_ms", float, None)
    if deadline_ms is not None and deadline_ms <= 0:
        raise ProtocolError(
            "bad_request", f"deadline_ms must be positive, got {deadline_ms}"
        )
    instance = _require(data, "instance", dict, None)
    instance_hash = _require(data, "instance_hash", str, None)
    if instance is None and instance_hash is None:
        raise ProtocolError(
            "bad_request", "color needs 'instance' or 'instance_hash'"
        )
    if instance is not None and instance_hash is not None:
        raise ProtocolError(
            "bad_request", "give 'instance' or 'instance_hash', not both"
        )
    options = _require(data, "options", dict, None) or {}
    allowed_options = {"verify", "validate_input", "activation_probability"}
    unknown = set(options) - allowed_options
    if unknown:
        raise ProtocolError(
            "bad_request", f"unknown options: {sorted(unknown)}"
        )
    return ColorRequest(
        id=data.get("id"),
        method=method,
        seed=seed,
        epsilon=epsilon,
        instance=instance,
        instance_hash=instance_hash,
        deadline_ms=deadline_ms,
        include_colors=_require(data, "include_colors", bool, True),
        no_cache=_require(data, "no_cache", bool, False),
        options=options,
    )


@dataclass
class CellRequest:
    """A validated ``cell`` request (graph resolved by registered hash)."""

    id: Any = None
    cell: dict[str, Any] = field(default_factory=dict)
    instance_hash: str = ""


#: Keys a wire cell spec may carry — the :class:`CampaignCell` fields.
_CELL_FIELDS = (
    "label", "workload", "num_cliques", "delta", "easy_fraction",
    "graph_seed", "epsilon", "method", "seed", "options", "telemetry",
)


def parse_cell_request(data: dict[str, Any]) -> CellRequest:
    """Validate the fields of a ``cell`` envelope.

    Shape-level validation only: the spec must decode into a
    :class:`repro.runner.campaign.CampaignCell` (the worker does the
    decode via ``cell_from_json``), but the protocol layer stays free
    of runner imports.
    """
    cell = _require(data, "cell", dict, None)
    if cell is None:
        raise ProtocolError("bad_request", "cell op needs a 'cell' object")
    instance_hash = _require(data, "instance_hash", str, None)
    if not instance_hash:
        raise ProtocolError(
            "bad_request",
            "cell op needs an 'instance_hash' of a registered instance "
            "(register it first; inline instances are not accepted)",
        )
    unknown = set(cell) - set(_CELL_FIELDS)
    if unknown:
        raise ProtocolError(
            "bad_request", f"unknown cell fields: {sorted(unknown)}"
        )
    label = _require(cell, "label", str, None)
    if not label:
        raise ProtocolError(
            "bad_request", "cell needs a non-empty string 'label'"
        )
    method = _require(cell, "method", str, "randomized")
    if method not in CELL_METHODS:
        raise ProtocolError(
            "unsupported",
            f"unknown cell method {method!r}; expected one of "
            f"{', '.join(CELL_METHODS)}",
        )
    _require(cell, "seed", int, None)
    epsilon = _require(cell, "epsilon", float, None)
    if epsilon is not None and not 0 < epsilon < 1:
        raise ProtocolError(
            "bad_request", f"epsilon must be in (0, 1), got {epsilon}"
        )
    _require(cell, "workload", str, None)
    for key in ("num_cliques", "delta", "graph_seed"):
        _require(cell, key, int, None)
    _require(cell, "easy_fraction", float, None)
    _require(cell, "telemetry", bool, False)
    options = _require(cell, "options", dict, None) or {}
    allowed_options = {"verify", "validate_input", "activation_probability"}
    unknown = set(options) - allowed_options
    if unknown:
        raise ProtocolError(
            "bad_request", f"unknown cell options: {sorted(unknown)}"
        )
    return CellRequest(
        id=data.get("id"), cell=cell, instance_hash=instance_hash
    )


@dataclass(frozen=True)
class InstanceRecord:
    """What a process stores per graph: the adjacency the pipeline runs on.

    ``adjacency`` is frozen (a tuple of tuples) and holds one shared
    ``int`` per vertex, so a stored graph costs about two pointers per
    edge.  Rows keep the order of the edges the graph arrived as; the
    pipeline reads them in that order.  The wire form is rendered only
    where one is sent (:meth:`payload`).
    """

    adjacency: tuple[tuple[int, ...], ...]
    delta: int
    uids: tuple[int, ...] | None

    @property
    def n(self) -> int:
        return len(self.adjacency)

    def payload(self) -> dict[str, Any]:
        """The wire payload ``{n, edges, delta[, uids]}`` of this graph.

        The edges come in an order that rebuilds :attr:`adjacency` row
        for row (:func:`_row_preserving_edges`), so a process registered
        from this payload colors the same rows as this one.  Rendered
        per call: the pairs cost several times the record, so callers
        send and drop them.
        """
        body: dict[str, Any] = {
            "n": self.n,
            "edges": _row_preserving_edges(self.adjacency),
            "delta": self.delta,
        }
        if self.uids is not None:
            body["uids"] = list(self.uids)
        return body


def _row_preserving_edges(
    adjacency: tuple[tuple[int, ...], ...]
) -> list[tuple[int, int]]:
    """An edge order that ``_adjacency_from_edges`` rebuilds into ``adjacency``.

    Rows are built by appending each edge to both of its rows, so an edge
    may be emitted once it is next in both rows: a merge of the rows.
    Rows built from an edge list always admit one; others (say a cyclic
    order around a triangle) may not, and raise ``ValueError``.
    """
    position = [0] * len(adjacency)
    edges: list[tuple[int, int]] = []
    pending = list(range(len(adjacency)))
    while pending:
        u = pending.pop()
        row = adjacency[u]
        if position[u] == len(row):
            continue
        v = row[position[u]]
        other = adjacency[v]
        if position[v] < len(other) and other[position[v]] == u:
            edges.append((u, v) if u < v else (v, u))
            position[u] += 1
            position[v] += 1
            pending.append(u)
            pending.append(v)
    if 2 * len(edges) != sum(map(len, adjacency)):
        raise ValueError("no edge order rebuilds these adjacency rows")
    return edges


def normalize_instance_payload(
    payload: dict[str, Any]
) -> tuple[str, InstanceRecord]:
    """Validate an inline instance payload; return (canonical hash, record).

    Accepts the :func:`repro.graphs.save_instance` shape (extra keys —
    planted cliques, metadata — are dropped: the pipeline never reads
    them and they must not fragment the cache key space).  Each edge
    appears once, in either orientation: a repeat is refused, since it
    would hash differently from the same graph without it.  The record
    keeps exactly what workers need, the frozen adjacency (built in
    payload edge order), uids and ``delta``; the edge list is not kept.
    """
    n = payload.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise ProtocolError(
            "bad_request", "instance payload needs a positive int 'n'"
        )
    edges = payload.get("edges")
    if not isinstance(edges, list):
        raise ProtocolError(
            "bad_request", "instance payload needs an 'edges' list"
        )
    for entry in edges:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(
                isinstance(e, int) and not isinstance(e, bool) for e in entry
            )
        ):
            raise ProtocolError(
                "bad_request", f"edge {entry!r} is not a pair of ints"
            )
        u, v = entry
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ProtocolError(
                "bad_request", f"edge {entry!r} is out of range for n={n}"
            )
    rows = _adjacency_from_edges(n, edges)
    if sum(map(len, rows)) != 2 * len(edges):
        raise ProtocolError(
            "bad_request", f"edge {_first_repeat(edges)!r} is repeated"
        )
    uids = payload.get("uids")
    if uids is not None:
        if (
            not isinstance(uids, list)
            or len(uids) != n
            or not all(
                isinstance(uid, int) and not isinstance(uid, bool)
                for uid in uids
            )
        ):
            raise ProtocolError(
                "bad_request", f"'uids' must be a list of {n} ints"
            )
        uids = tuple(uids)
    delta = payload.get("delta")
    max_degree = max(map(len, rows))
    if delta is None:
        delta = max_degree
    elif (
        not isinstance(delta, int) or isinstance(delta, bool)
        or delta != max_degree
    ):
        raise ProtocolError(
            "bad_request",
            f"'delta' is {delta!r} but the maximum degree is {max_degree}",
        )
    record = InstanceRecord(tuple(map(tuple, rows)), delta, uids)
    return adjacency_instance_hash(record.adjacency, delta, uids), record


def _first_repeat(edges: list[Any]) -> Any:
    """The first edge of ``edges`` that repeats an earlier one."""
    seen: set[tuple[int, int]] = set()
    for edge in edges:
        u, v = edge
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return edge
        seen.add(key)
    raise AssertionError("no repeated edge")
