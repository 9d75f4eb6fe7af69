"""The fleet router: a consistent-hashing front tier over serve shards.

:class:`FleetRouter` is the server-side half of the sharded serving
fleet (DESIGN.md §14).  It speaks the same NDJSON protocol as
:mod:`repro.serve.server` to clients and holds one
:class:`~repro.serve.client.ResilientClient` per backend shard, so the
inter-tier wire format *is* the public protocol — a shard cannot tell a
router from an ordinary client.

Routing.  ``color`` requests are placed on a seeded consistent-hash
ring (:class:`HashRing`) keyed by the request's *cache key*
(:func:`repro.serve.cache.make_cache_key` over the canonical instance
hash, method, seed, epsilon, and options).  Keying by the cache key —
not just the instance hash — spreads a seed sweep over one instance
across the whole fleet while still sending byte-identical requests to
the same shard, which is what makes each shard's in-memory LRU
*partition-local*: aggregate cache capacity grows linearly with shard
count.  The ring is a pure function of ``(ring_seed, shard labels,
vnodes)``, so every router replica with the same config computes the
same ownership, and a shard that crashes and returns re-acquires
exactly its old slots.

Failure handling.  A shard that answers ``shed``/``draining`` or whose
transport is exhausted (the client's canonical ``unavailable``) is
skipped and the request is re-dispatched to the next ring owner —
sound for the same reason retries are: pipelines are deterministic, so
any shard produces byte-identical responses.  ``unknown_instance`` from
a shard (its registry is lost on restart) is *healed* from the router's
registry (instance records, as a shard keeps them; the register payload
is rendered per heal, in an edge order that rebuilds the stored rows,
so a healed shard colors what a registered one does) by the shard's
client, which also owns the shard's health
(:class:`~repro.serve.client.ResilientClient`); the ring holds the
``ok`` shards.  An inline ``color`` request goes by ``instance_hash``
(a shard holding the graph parses nothing), and inline only if that
bounces.  ``register`` fans out to every live shard;
``health``/``status``/``metrics`` aggregate across the fleet; the
``fleet`` op reports per-shard health, ring ownership, and routing
counters; ``cell`` is answered ``unsupported`` (campaigns dispatch
cells to the shards directly).  ``drain`` drains the *router* (stop
admitting, finish in-flight); shard drain is the supervisor's job
(:mod:`repro.serve.fleet`), cascaded in reverse order.  The connection
layer, ``drain`` and the signal drain are the server's
(:class:`repro.serve.frontend.NdjsonFrontEnd`).
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Coroutine

from repro.errors import ReproError
from repro.serve.admission import AdmissionController
from repro.serve.cache import InstanceRegistry, make_cache_key
from repro.serve.client import (
    Endpoint,
    InstanceHashMismatch,
    ResilientClient,
    RetryPolicy,
)
from repro.serve.frontend import (
    DEFAULT_IDLE_TIMEOUT_S,
    FrontEndConfig,
    NdjsonFrontEnd,
    Reply,
    cancel_task,
)
from repro.serve.knobs import check_knobs, knob, knob_error
from repro.serve.protocol import (
    ProtocolError,
    error_body,
    normalize_instance_payload,
    parse_color_request,
)

__all__ = ["FleetRouter", "HashRing", "RouterConfig"]

#: Bound of one health probe, and of one shard's answer to an
#: aggregated ``health``/``status``/``metrics`` op.
PROBE_TIMEOUT_S = 2.0
#: Instances the router remembers for hash-only requests.
REGISTRY_SIZE = 256

#: Error codes after which the next ring owner is tried.  ``shed`` and
#: ``draining`` are explicit refusals; ``unavailable`` is the resilient
#: client's transport-exhaustion synthesis.  Everything else (including
#: ``internal``) is an authoritative per-request answer and is forwarded.
REDISPATCH_CODES = frozenset({"shed", "draining", "unavailable"})


def _position(seed: int, kind: str, token: str) -> int:
    """A 64-bit ring position: pure function of (seed, kind, token)."""
    digest = hashlib.sha256(f"{seed}|{kind}|{token}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Seeded consistent-hash ring with virtual nodes.

    Every node contributes ``vnodes`` positions derived from
    ``sha256(seed | node | replica)``; a key is owned by the first node
    clockwise of its own position.  ``owners`` returns *all* distinct
    nodes in ring order, which doubles as the re-dispatch order: when
    the owner is down, the next owner is exactly the node that would
    own the key if the ring no longer contained the failed one — so
    failover and permanent removal route identically.
    """

    def __init__(self, nodes: tuple[str, ...] = (), *, vnodes: int = 64, seed: int = 0):
        if vnodes < 1:
            raise ReproError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self.seed = seed
        self._nodes: set[str] = set()
        self._ring: list[tuple[int, str]] = []
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self._nodes))

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for replica in range(self.vnodes):
            position = _position(self.seed, "node", f"{node}|{replica}")
            bisect.insort(self._ring, (position, node))

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._ring = [entry for entry in self._ring if entry[1] != node]

    def owners(self, key: str, count: int | None = None) -> list[str]:
        """Distinct owners of ``key`` in ring order (owner first)."""
        if not self._ring:
            return []
        bound = len(self._nodes) if count is None else min(count, len(self._nodes))
        position = _position(self.seed, "key", key)
        start = bisect.bisect_right(self._ring, (position, "￿"))
        owners: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._ring)):
            node = self._ring[(start + offset) % len(self._ring)][1]
            if node not in seen:
                seen.add(node)
                owners.append(node)
                if len(owners) >= bound:
                    break
        return owners

    def ownership(self) -> dict[str, float]:
        """Fraction of the key space owned by each node (sums to 1)."""
        if not self._ring:
            return {}
        span = 2**64
        shares: dict[str, float] = {node: 0.0 for node in self._nodes}
        for index, (position, _) in enumerate(self._ring):
            owner = self._ring[index % len(self._ring)][1]
            previous = self._ring[index - 1][0] if index else self._ring[-1][0]
            arc = (position - previous) % span or span
            shares[owner] += arc / span
        return shares


@dataclass
class RouterConfig(FrontEndConfig):
    """Knobs of the fleet router tier."""

    host: str = knob("127.0.0.1", "--host")
    port: int = knob(
        0, "--port", help="TCP port (default %(default)s: ephemeral, printed)"
    )
    unix_path: str | None = knob(
        None, "--unix", metavar="PATH",
        help="listen on a UNIX socket instead of TCP",
    )
    #: Backend shard endpoints ("host:port" or "unix:/path"), in a
    #: stable order — ring labels are the endpoint labels, so a
    #: restarted shard on the same address re-acquires its slots.
    shards: tuple[str, ...] = knob(
        (), "--shard", dest="shards", action="append", required=True, metavar="SPEC",
        help="backend shard ('host:port' or 'unix:/path'); repeatable",
    )
    vnodes: int = knob(
        64, "--vnodes", ge=1,
        help="virtual nodes per shard (default %(default)s)",
    )
    ring_seed: int = knob(
        0, "--ring-seed", help="seed of the hash ring (default %(default)s)"
    )
    #: Reconnects count as attempts.
    attempts: int = knob(
        2, "--attempts", ge=1,
        help="transport attempts per shard before re-dispatching to the "
             "next ring owner (default %(default)s)",
    )
    timeout_ms: float | None = knob(
        None, "--timeout-ms", gt=0,
        help="per-dispatch timeout (default: none, trust shard deadlines)",
    )
    #: With 0, ring transitions follow forward outcomes only.
    probe_interval_s: float = knob(
        0.5, "--probe-interval", ge=0, metavar="SECONDS",
        help="shard health-probe period (0 disables; default %(default)ss)",
    )
    max_inflight: int = knob(
        1024, "--max-inflight", ge=1,
        help="admission bound on concurrent color requests "
             "(default %(default)s)",
    )
    idle_timeout_s: float | None = knob(
        None, "--idle-timeout", ge=0, metavar="SECONDS",
        help="close idle client connections past this bound (default: "
             f"{DEFAULT_IDLE_TIMEOUT_S:g}s on TCP, off on UNIX sockets; "
             "0 disables)",
    )
    handle_signals: bool = False

    def __post_init__(self) -> None:
        self.shards = tuple(self.shards or ())
        if not self.shards:
            raise knob_error(
                self, "shards", "the router needs at least one shard endpoint"
            )
        check_knobs(self)


@dataclass
class _ShardState:
    """Router-side view of one backend shard."""

    label: str
    client: ResilientClient
    dispatched: int = 0
    served: int = 0
    failures: int = 0
    #: Supervisor-attached metadata (pid, restarts) surfaced by `fleet`.
    meta: dict[str, Any] = field(default_factory=dict)


class FleetRouter(NdjsonFrontEnd):
    """Asyncio NDJSON front tier routing onto serve shards."""

    config: RouterConfig

    def __init__(self, config: RouterConfig):
        super().__init__(config, AdmissionController(config.max_inflight))
        self.ring = HashRing(vnodes=config.vnodes, seed=config.ring_seed)
        self.registry = InstanceRegistry(REGISTRY_SIZE)
        self.requests_total = 0
        self.rerouted = 0
        self.unavailable = 0
        self._shards: dict[str, _ShardState] = {}
        timeout_s = (
            config.timeout_ms / 1000.0 if config.timeout_ms is not None else None
        )
        for spec in config.shards:
            endpoint = Endpoint.parse(spec)
            if endpoint.label in self._shards:
                raise ReproError(f"duplicate shard endpoint {endpoint.label!r}")
            client = ResilientClient(
                endpoint,
                retry=RetryPolicy(attempts=config.attempts),
                request_timeout_s=timeout_s,
            )
            self._shards[endpoint.label] = _ShardState(endpoint.label, client)
            self.ring.add(endpoint.label)
        self._probe_task: asyncio.Task[None] | None = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        await super().start()
        if self.config.probe_interval_s > 0:
            self._probe_task = asyncio.get_running_loop().create_task(
                self._probe_loop()
            )

    async def _release(self) -> None:
        await cancel_task(self._probe_task)
        self._probe_task = None
        for state in self._shards.values():
            await state.client.close()

    # -- shard membership ----------------------------------------------

    def shard_labels(self) -> tuple[str, ...]:
        """Configured shard labels in their stable config order."""
        return tuple(self._shards)

    def set_shard_meta(self, label: str, **meta: Any) -> None:
        """Attach supervisor metadata (pid, restarts) to a shard; the
        ``fleet`` op surfaces it."""
        self._shards[label].meta.update(meta)

    @property
    def healed(self) -> int:
        """Registrations sent to heal ``unknown_instance`` answers."""
        return sum(state.client.registrations for state in self._shards.values())

    def mark_down(self, label: str) -> None:
        """Remove a shard from the ring (crash or supervisor notice)."""
        self._shards[label].client.mark_down()
        self._sync_ring(label)

    def mark_up(self, label: str) -> None:
        """Re-register a recovered shard: same label ⇒ identical slots."""
        self._shards[label].client.note_answer()
        self._sync_ring(label)

    def _sync_ring(self, label: str) -> None:
        """The ring holds exactly the shards whose client is ``ok``."""
        if self._shards[label].client.status == "ok":
            self.ring.add(label)
        else:
            self.ring.remove(label)

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.probe_interval_s)
            await self.probe_once()

    async def probe_once(self) -> dict[str, str]:
        """Health-probe every shard at once; update ring membership.

        A sweep costs one probe timeout however many shards hang.
        """
        labels = tuple(self._shards)
        states = await asyncio.gather(*(
            self._shards[label].client.probe(PROBE_TIMEOUT_S)
            for label in labels
        ))
        for label in labels:
            self._sync_ring(label)
        return dict(zip(labels, states))

    def _answer(
        self, data: dict[str, Any], reply: Reply
    ) -> dict[str, Any] | Coroutine[Any, Any, dict[str, Any] | None]:
        op = data["op"]
        if op == "color":
            return self._handle_color(data, reply)
        if op == "cell":
            # Campaigns dispatch cells to the shards directly.
            return error_body(
                "unsupported",
                "the cell op is answered by a serve shard (repro serve); "
                "this is the router tier",
                request_id=data.get("id"), op="cell",
            )
        if op == "register":
            return self._handle_register(data)
        if op == "fleet":
            return self._handle_fleet(data)
        return self._aggregate(op, data)  # health / status / metrics

    # -- the color op --------------------------------------------------

    async def _handle_color(self, data: dict[str, Any], reply: Reply) -> None:
        request_id = data.get("id")
        try:
            request = parse_color_request(data)
            inline: dict[str, Any] | None = None
            if request.instance is not None:
                instance_hash, record = normalize_instance_payload(
                    request.instance
                )
                self.registry.put(instance_hash, record)
                inline, data = data, dict(data, instance_hash=instance_hash)
                del data["instance"]
            else:
                instance_hash = request.instance_hash or ""
        except ProtocolError as error:
            await reply(error_body(
                error.code, str(error), request_id=request_id, op="color"
            ))
            return
        key = make_cache_key(
            instance_hash, request.method, request.seed, request.epsilon,
            request.options,
        )
        refusal = self.admission.try_admit()
        if refusal is not None:
            detail = (
                f"router inflight bound {self.admission.max_depth} reached; "
                "retry later"
                if refusal == "shed"
                else "router is draining; no new work accepted"
            )
            await reply(error_body(
                refusal, detail, request_id=request_id, op="color"
            ))
            return
        try:
            self.requests_total += 1
            await reply(await self._dispatch_color(data, key, inline))
        finally:
            self.admission.release()

    async def _dispatch_color(
        self,
        data: dict[str, Any],
        key: str,
        inline: dict[str, Any] | None,
    ) -> dict[str, Any]:
        candidates = self.ring.owners(key)
        if not candidates:
            self.unavailable += 1
            return error_body(
                "unavailable", "no shard available for dispatch",
                request_id=data.get("id"), op="color",
            )
        last: dict[str, Any] | None = None
        for label in candidates:
            response = await self._dispatch_once(data, inline, label)
            code = (response.get("error") or {}).get("code")
            if response.get("ok") or code not in REDISPATCH_CODES:
                if label != candidates[0]:
                    self.rerouted += 1
                return response
            last = response
        self.unavailable += 1
        if last is not None and (last.get("error") or {}).get("code") != "unavailable":
            return last  # every owner refused (shed/draining): forward it
        return error_body(
            "unavailable",
            f"no ring owner answered after {len(candidates)} dispatch(es)",
            request_id=data.get("id"), op="color",
        )

    async def _dispatch_once(
        self,
        data: dict[str, Any],
        inline: dict[str, Any] | None,
        label: str,
    ) -> dict[str, Any]:
        """One dispatch of ``data`` (a request by ``instance_hash``) to
        one shard; ``unknown_instance`` sends the client's ``inline``
        request, or else registers the graph from the router's registry."""
        state = self._shards[label]
        state.dispatched += 1
        try:
            if inline is None:
                response = await state.client.request_hashed(
                    data, data["instance_hash"],
                    partial(self._payload, data["instance_hash"]),
                )
            else:
                # The shard parses the inline body and looks its graph
                # up with no await between: no eviction can bounce it.
                response = await state.client.request(data)
                if (response.get("error") or {}).get("code") == "unknown_instance":
                    response = await state.client.request(inline)
        except InstanceHashMismatch as error:
            response = error_body(
                "internal", str(error), request_id=data.get("id"), op="color"
            )
        if response.get("ok"):
            state.served += 1
        elif (response.get("error") or {}).get("code") == "unavailable":
            state.failures += 1
            state.client.mark_down()
        # An answer brings a down shard back; a draining one stays out
        # until a probe says ok (see ResilientClient.status).
        self._sync_ring(label)
        return response

    def _payload(self, instance_hash: str) -> dict[str, Any] | None:
        """The register payload that heals a shard, rendered per send."""
        record = self.registry.get(instance_hash)
        return None if record is None else record.payload()

    # -- register ------------------------------------------------------

    async def _handle_register(self, data: dict[str, Any]) -> dict[str, Any]:
        request_id = data.get("id")
        payload = data.get("instance")
        if not isinstance(payload, dict):
            return error_body(
                "bad_request", "register needs an 'instance' object",
                request_id=request_id, op="register",
            )
        try:
            instance_hash, record = normalize_instance_payload(payload)
        except ProtocolError as error:
            return error_body(
                error.code, str(error), request_id=request_id, op="register"
            )
        if self.admission.draining:
            return error_body(
                "draining", "router is draining; no new work accepted",
                request_id=request_id, op="register",
            )
        self.registry.put(instance_hash, record)
        # The client's edges, in its order: a shard rebuilds the very
        # rows the router stored.  Only the keys the pipeline reads go.
        wire: dict[str, Any] = {
            "n": record.n, "edges": payload["edges"], "delta": record.delta,
        }
        if record.uids is not None:
            wire["uids"] = list(record.uids)
        targets = [
            state for state in self._shards.values()
            if state.client.status != "down"
        ]
        responses = await asyncio.gather(*(
            state.client.request({"op": "register", "instance": wire})
            for state in targets
        ))
        fanout = {
            state.label: bool(response.get("ok"))
            for state, response in zip(targets, responses)
        }
        for state in self._shards.values():
            fanout.setdefault(state.label, False)
        if not any(fanout.values()):
            return error_body(
                "unavailable", "no shard accepted the registration",
                request_id=request_id, op="register",
            )
        return {
            "id": request_id,
            "ok": True,
            "op": "register",
            "instance_hash": instance_hash,
            "n": record.n,
            "delta": record.delta,
            "shards": fanout,
        }

    # -- aggregated read ops -------------------------------------------

    async def _shard_bodies(self, op: str) -> dict[str, dict[str, Any]]:
        labels = [
            label for label, state in self._shards.items()
            if state.client.status != "down"
        ]
        responses = await asyncio.gather(*(
            self._shards[label].client.request(
                {"op": op}, timeout_s=PROBE_TIMEOUT_S
            )
            for label in labels
        ))
        bodies = dict(zip(labels, responses))
        for label, state in self._shards.items():
            if label not in bodies:
                bodies[label] = error_body(
                    "unavailable", f"shard is {state.client.status}", op=op
                )
        return bodies

    async def _aggregate(self, op: str, data: dict[str, Any]) -> dict[str, Any]:
        request_id = data.get("id")
        bodies = await self._shard_bodies(op)
        for body in bodies.values():
            body.pop("id", None)
        if op == "health":
            if self.admission.draining:
                status = "draining"
            elif len(self.ring):
                status = "ok"
            else:
                status = "unavailable"
            return {
                "id": request_id,
                "ok": True,
                "op": "health",
                "status": status,
                "shards": {
                    label: body.get("status", "unreachable")
                    for label, body in bodies.items()
                },
            }
        if op == "status":
            return {
                "id": request_id,
                "ok": True,
                "op": "status",
                **self._status(),
                "shards": bodies,
            }
        assert op == "metrics"
        return {
            "id": request_id,
            "ok": True,
            "op": "metrics",
            "metrics": self._counters(),
            "server": self._status(),
            "shards": bodies,
        }

    def _counters(self) -> dict[str, int]:
        return {
            "router.requests": self.requests_total,
            "router.rerouted": self.rerouted,
            "router.unavailable": self.unavailable,
            "router.healed_registrations": self.healed,
            "router.shed": self.admission.shed_total,
        }

    def _ring_view(self) -> dict[str, Any]:
        return {
            "members": sorted(self.ring.nodes),
            "vnodes": self.config.vnodes,
            "seed": self.config.ring_seed,
        }

    def _status(self) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        return {
            "role": "router",
            "state": self.admission.state(),
            "uptime_s": round(loop.time() - self._started_at, 3),
            "depth": self.admission.depth,
            "admitted_total": self.admission.admitted_total,
            "shed_total": self.admission.shed_total,
            "connections": self.connections,
            "ring": self._ring_view(),
            "registry": {
                "size": len(self.registry),
                "capacity": self.registry.capacity,
                "evictions": self.registry.evictions,
            },
            "counters": self._counters(),
        }

    # -- the fleet op --------------------------------------------------

    async def _handle_fleet(self, data: dict[str, Any]) -> dict[str, Any]:
        health = await self.probe_once()
        ownership = self.ring.ownership()
        shards: dict[str, Any] = {}
        for label, state in self._shards.items():
            ewma = state.client.latency_ewma_ms
            shards[label] = {
                "endpoint": label,
                "state": health[label],
                "in_ring": label in self.ring,
                "ownership": round(ownership.get(label, 0.0), 4),
                "latency_ewma_ms": (
                    round(ewma, 3) if ewma is not None else None
                ),
                "dispatched": state.dispatched,
                "served": state.served,
                "failures": state.failures,
                **state.meta,
            }
        return {
            "id": data.get("id"),
            "ok": True,
            "op": "fleet",
            "state": self.admission.state(),
            "ring": self._ring_view(),
            "counters": self._counters(),
            "shards": shards,
        }
