"""repro.serve — async Δ-coloring service.

Turns the repro pipelines into a long-lived service: a line-delimited
JSON protocol (:mod:`protocol`), admission control with load shedding
(:mod:`admission`), micro-batching onto a crash-isolated worker pool
(:mod:`batching`, :mod:`server`), a determinism-backed result cache
(:mod:`cache`), a one-endpoint client with reconnects, retries and
one health state (:mod:`client`), a seeded network chaos proxy
(:mod:`chaos`), one NDJSON front end the server and the router share
(:mod:`frontend`), and the sharded fleet tier — a consistent-hashing
router (:mod:`router`) plus a supervisor that spawns, restarts, and
drains backend shard processes (:mod:`fleet`).  ``repro serve`` /
``repro chaosproxy`` / ``repro router`` / ``repro fleet`` are the CLI
entry points; see DESIGN.md §10–§14 for the architecture.

Everything here measures wall-clock time and talks to sockets, so the
package is exempt from the determinism lint rule — the *results* it
returns remain pure functions of (instance, seed, parameters), which is
precisely what makes the cache sound (and what makes ``color`` safe to
retry after ambiguous failures).
"""

from repro.serve.admission import AdmissionController
from repro.serve.batching import BatcherClosed, MicroBatcher, PendingRequest
from repro.serve.cache import (
    InstanceRegistry,
    ResultCache,
    make_cache_key,
)
from repro.serve.chaos import (
    ChaosPlan,
    ChaosProxy,
    ChunkFault,
    chunk_fault,
    fault_schedule,
)
from repro.serve.client import (
    RETRY_SAFE_OPS,
    ClientError,
    Endpoint,
    InstanceHashMismatch,
    Outcome,
    ResilientClient,
    RetryPolicy,
    ServeClient,
)
from repro.serve.fleet import FleetConfig, FleetSupervisor
from repro.serve.frontend import DEFAULT_IDLE_TIMEOUT_S
from repro.serve.protocol import (
    METHODS,
    OPS,
    ColorRequest,
    InstanceRecord,
    ProtocolError,
    normalize_instance_payload,
    parse_color_request,
    parse_request,
)
from repro.serve.router import FleetRouter, HashRing, RouterConfig
from repro.serve.server import ColoringServer, ServeConfig, execute_batch

__all__ = [
    "DEFAULT_IDLE_TIMEOUT_S",
    "METHODS",
    "OPS",
    "RETRY_SAFE_OPS",
    "AdmissionController",
    "BatcherClosed",
    "ChaosPlan",
    "ChaosProxy",
    "ChunkFault",
    "ClientError",
    "ColorRequest",
    "ColoringServer",
    "Endpoint",
    "FleetConfig",
    "FleetRouter",
    "FleetSupervisor",
    "HashRing",
    "InstanceHashMismatch",
    "InstanceRecord",
    "InstanceRegistry",
    "MicroBatcher",
    "RouterConfig",
    "Outcome",
    "PendingRequest",
    "ProtocolError",
    "ResilientClient",
    "ResultCache",
    "RetryPolicy",
    "ServeClient",
    "ServeConfig",
    "chunk_fault",
    "execute_batch",
    "fault_schedule",
    "make_cache_key",
    "normalize_instance_payload",
    "parse_color_request",
    "parse_request",
]
