"""The async Δ-coloring server.

Event-loop front end + process-pool back end.  The NDJSON connection
layer is :class:`repro.serve.frontend.NdjsonFrontEnd`, shared with the
router; ``color`` and ``cell`` requests take one path through the cache
(:mod:`repro.serve.cache`), admission control
(:mod:`repro.serve.admission`), and the micro-batcher
(:mod:`repro.serve.batching`) before a whole batch ships to a worker
process as one picklable task — the same crash-isolation model as the
campaign runner, via the shared :class:`repro.runner.WorkerPool`.  A
worker crash (``BrokenProcessPool``) rebuilds the pool with backoff and
retries the batch; if the rebuilt pool breaks again the batch's
requests fail with ``internal`` instead of taking the server down.

A process stores each graph once, as an
:class:`~repro.serve.protocol.InstanceRecord` in its registry: the
frozen adjacency the pipeline runs on, with one shared ``int`` per
vertex (about two pointers per edge), plus uids and Δ.  The JSON edge
list a graph arrived as is not kept; ``register`` and inline
instances are parsed into that adjacency once, by
:func:`~repro.serve.protocol.normalize_instance_payload`.

Per-instance work is shared across batches, not just within one.  A
worker process keeps a prepared entry per registered instance (a
:class:`~repro.serve.cache.PreparedCache`): the record's adjacency and
uids, checked by a first, fully validated
:class:`~repro.local.network.Network` (a pool worker, which receives
the record unpickled with one ``int`` per occurrence, re-interns the
rows first), the (Δ+1)-clique verdict, and per epsilon the
classification (the ACD and the hard/easy split, line 1 of Algorithm 1:
the seed-independent prefix of the dense pipelines).  Each batch builds
a fresh ``Network`` over the stored adjacency without re-validating it,
so no node state crosses batches or threads, and every seed's coloring,
``color`` request or campaign cell alike, reuses the stored verdict and
classification.  A seed sweep therefore pays the structural analysis
once per worker, however many batches it spans.  The entries follow the
server's :class:`~repro.serve.cache.InstanceRegistry`: after each batch
the worker drops every instance the registry no longer holds.
Outside input is still validated in full: normalization checks every
edge, and the first ``Network`` of every instance checks its structure.

Determinism note: sharing is sound because ``compute_acd`` and
``classify_cliques`` are deterministic and no pipeline mutates the
classification it is given, so a shared one is identical to the one
each call would have computed — responses byte-match single-request
runs, which the smoke test (``scripts/serve_smoke.py``) asserts end to
end.

``jobs=0`` runs batches inline on the default thread executor — no
process isolation, but instant startup; the test suite and quick local
experiments use it.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import threading
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Collection, Coroutine

from repro.constants import PAPER_PARAMETERS, AlgorithmParameters
from repro.errors import ReproError
from repro.obs.collector import Collector, active_collector, install, uninstall
from repro.runner.pool import WorkerPool
from repro.serve.admission import AdmissionController
from repro.serve.batching import BatcherClosed, MicroBatcher, PendingRequest
from repro.serve.cache import (
    InstanceRegistry,
    PreparedCache,
    ResultCache,
    make_cache_key,
    make_cell_cache_key,
)
from repro.serve.frontend import (
    DEFAULT_IDLE_TIMEOUT_S,
    FrontEndConfig,
    NdjsonFrontEnd,
    Reply,
)
from repro.serve.knobs import check_knobs, knob, knob_error
from repro.serve.protocol import (
    InstanceRecord,
    ProtocolError,
    error_body,
    normalize_instance_payload,
    parse_cell_request,
    parse_color_request,
)

__all__ = ["ColoringServer", "ServeConfig", "execute_batch"]


# ----------------------------------------------------------------------
# Worker side: executes one micro-batch in a subprocess.
# ----------------------------------------------------------------------


def _colors_digest(colors: list[int]) -> str:
    return hashlib.sha256(
        json.dumps(colors, separators=(",", ":")).encode()
    ).hexdigest()


class _Prepared:
    """The seed-independent products of one instance, shared by batches.

    Built by the first batch that needs the instance; immutable after
    that except for the lazily filled clique verdict and
    classifications (ACD + hard/easy split, per epsilon), which are
    filled under a lock.  Only a passed clique check is kept: a failing
    one raises again on every use.
    """

    def __init__(self, record: InstanceRecord) -> None:
        from repro.local.network import Network

        first = Network(_shared_ints(record.adjacency), record.uids)
        self.adjacency = first.adjacency
        self.uids = tuple(first.uids)
        self.delta = record.delta
        self._lock = threading.Lock()
        self._clique_free = False
        self._classifications: dict[float, Any] = {}

    def network(self) -> Any:
        """A fresh network over the validated adjacency."""
        from repro.local.network import Network

        return Network(self.adjacency, self.uids, validate_structure=False)

    def classification(self, epsilon: float, network: Any) -> Any:
        """The ACD and hard/easy classification at ``epsilon``."""
        from repro.acd.decomposition import compute_acd
        from repro.core.hardness import classify_cliques

        with self._lock:
            classification = self._classifications.get(epsilon)
            if classification is None:
                classification = classify_cliques(
                    network, compute_acd(network, epsilon)
                )
                self._classifications[epsilon] = classification
            return classification

    def validate(self, network: Any) -> None:
        from repro.graphs.validation import assert_no_delta_plus_one_clique

        with self._lock:
            if not self._clique_free:
                assert_no_delta_plus_one_clique(network)
                self._clique_free = True


def _shared_ints(
    adjacency: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """``adjacency`` with one ``int`` object per vertex.

    A record normalized in this process already is, and comes back as
    is; one unpickled in a pool worker holds a fresh ``int`` per
    occurrence, and its rows are rebuilt over one table.
    """
    vertex = list(range(len(adjacency)))
    for row in adjacency:
        for v in row:
            vertex[v] = v
    if all(v is vertex[v] for row in adjacency for v in row):
        return adjacency
    return tuple(tuple([vertex[v] for v in row]) for row in adjacency)


#: This process's prepared instances.  Bounded by the registries of the
#: servers whose batches run here (see :meth:`PreparedCache.retain`).
_PREPARED: PreparedCache[_Prepared] = PreparedCache()
# A forked pool worker starts empty, whatever the parent's threads held.
os.register_at_fork(after_in_child=_PREPARED.reset)


def _run_spec(
    spec: dict[str, Any],
    network: Any,
    classification_for: Callable[[float], Any],
    validated: Callable[[], None],
) -> dict[str, Any]:
    from repro import delta_color
    from repro.baselines.greedy_brooks import greedy_brooks_coloring
    from repro.baselines.greedy_deltaplus1 import greedy_delta_plus_one

    method = spec["method"]
    seed = spec.get("seed")
    options = spec.get("options") or {}
    verify = options.get("verify", True)
    if method == "baseline-brooks":
        colors = greedy_brooks_coloring(network)
        return {
            "algorithm": "greedy-brooks",
            "num_colors": max(colors) + 1,
            "rounds": 0,
            "messages": 0,
            "colors": colors,
        }
    if method == "baseline-dplus1":
        result = greedy_delta_plus_one(
            network, deterministic=seed is None, seed=seed, verify=verify
        )
    else:
        kwargs: dict[str, Any] = {"verify": verify}
        # The general pipeline owns its sparse-aware ACD and validation.
        if method != "general":
            if options.get("validate_input", True):
                validated()
            kwargs["validate_input"] = False
            kwargs["classification"] = classification_for(spec["epsilon"])
        if method != "deterministic" and "activation_probability" in options:
            kwargs["activation_probability"] = options["activation_probability"]
        result = delta_color(
            network, method=method, params=_params_for(spec["epsilon"]),
            seed=seed, **kwargs,
        )
    return {
        "algorithm": result.algorithm,
        "num_colors": result.num_colors,
        "rounds": result.rounds,
        "messages": result.messages,
        "phase_rounds": result.phase_rounds(),
        "colors": result.colors,
    }


def _params_for(epsilon: float) -> AlgorithmParameters:
    if epsilon == PAPER_PARAMETERS.epsilon:
        return PAPER_PARAMETERS
    return AlgorithmParameters(epsilon=epsilon)


def execute_batch(
    specs: list[dict[str, Any]],
    instances: dict[str, InstanceRecord],
    registered: Collection[str] | None = None,
) -> list[dict[str, Any]]:
    """Run one micro-batch of coloring specs (module-level: picklable).

    Specs on one instance share a prepared entry from this process's
    cache — built by the first batch that needs it, reused by every
    later one (see the module docstring) — and, within the batch, one
    ``Network``.  ``registered`` is the set of hashes the server's
    registry holds; after the batch, prepared entries outside it are
    dropped.  ``None`` keeps only this batch's instances.  The first
    entry of each instance carries ``"prepared": "build"`` or
    ``"hit"`` for the server's counters.  Each spec fails
    independently: a :class:`~repro.errors.ReproError` from one
    pipeline run becomes that spec's error entry, never its batch
    mates'.

    Two spec kinds ride the same batches: ``color`` specs (the default)
    and ``cell`` specs (``kind == "cell"``), which decode a campaign
    cell and run it through :func:`repro.runner.campaign.run_cell_on_network`
    — the exact executor core inline/pool campaigns use, sharing the
    prepared network, clique verdict and classification.  That shared
    core is the byte-identity argument for the distributed campaign
    plane.
    """
    from repro.runner.campaign import cell_from_json, run_cell_on_network

    keep = set(instances) if registered is None else registered
    ready: dict[str, tuple[_Prepared, Any]] = {}
    out: list[dict[str, Any]] = []
    try:
        for spec in specs:
            instance_hash = spec["instance_hash"]
            entry: dict[str, Any] = {"key": spec["key"]}
            out.append(entry)
            try:
                if instance_hash not in ready:
                    prepared, built = _PREPARED.get(
                        instance_hash,
                        partial(_Prepared, instances[instance_hash]),
                    )
                    entry["prepared"] = "build" if built else "hit"
                    ready[instance_hash] = (prepared, prepared.network())
                prepared, network = ready[instance_hash]
                classification_for = partial(
                    prepared.classification, network=network
                )
                validated = partial(prepared.validate, network)
                if spec.get("kind") == "cell":
                    row = run_cell_on_network(
                        cell_from_json(spec["cell"]), network,
                        prepared.delta, classification_for, validated,
                    )
                    entry["result"] = {"row": row}
                else:
                    result = _run_spec(
                        spec, network, classification_for, validated
                    )
                    result["colors_sha256"] = _colors_digest(result["colors"])
                    entry["result"] = result
            except ReproError as error:
                entry["error"] = {
                    "code": "internal",
                    "message": str(error),
                    "type": type(error).__name__,
                }
            except Exception as error:  # pipeline bug: fail the spec, not the batch
                entry["error"] = {
                    "code": "internal",
                    "message": f"{type(error).__name__}: {error}",
                    "type": type(error).__name__,
                }
    finally:
        _PREPARED.retain(keep)
    return out


# ----------------------------------------------------------------------
# Server side.
# ----------------------------------------------------------------------


@dataclass
class ServeConfig(FrontEndConfig):
    """Knobs of the coloring service.

    ``batch_runner`` is the injection seam mirroring the campaign
    runner's ``cell_runner``: tests swap in stubs that sleep, crash, or
    count batches.  It is called like :func:`execute_batch`, as
    ``runner(specs, instances, registered)``, and must be picklable
    when ``jobs > 0``.
    """

    host: str = knob("127.0.0.1", "--host")
    port: int = knob(
        0, "--port", help="TCP port (default %(default)s: ephemeral, printed)"
    )
    unix_path: str | None = knob(
        None, "--unix", metavar="PATH",
        help="serve on a UNIX socket instead of TCP",
    )
    jobs: int = knob(
        1, "-j", "--jobs", ge=0,
        help="worker processes (0: run batches inline, no isolation)",
    )
    max_batch: int = knob(
        8, "--max-batch", ge=1,
        help="micro-batch size bound (default %(default)s)",
    )
    linger_ms: float = knob(
        2.0, "--linger-ms", ge=0,
        help="how long an open batch waits for company "
             "(default %(default)sms)",
    )
    max_queue: int = knob(
        256, "--max-queue", ge=1,
        help="admission bound; requests past it are shed "
             "(default %(default)s)",
    )
    cache_size: int = knob(
        1024, "--cache-size", ge=0,
        help="in-memory result cache entries (0 disables)",
    )
    cache_dir: str | None = knob(
        None, "--cache-dir", metavar="DIR",
        help="also persist cached results on disk",
    )
    cache_max_bytes: int | None = knob(
        None, "--cache-max-bytes", ge=1, metavar="BYTES",
        help="bound the disk cache; oldest entries are pruned past it",
    )
    default_deadline_ms: float | None = knob(
        None, "--deadline-ms", gt=0,
        help="default per-request deadline when the client sets none",
    )
    idle_timeout_s: float | None = knob(
        None, "--idle-timeout", ge=0, metavar="SECONDS",
        help="close connections sending no complete request within this "
             f"bound (slowloris defense; default: {DEFAULT_IDLE_TIMEOUT_S:g}s "
             "on TCP, off on UNIX sockets; 0 disables)",
    )
    registry_size: int = 64
    dispatch_retries: int = 1
    backoff: float = 0.05
    handle_signals: bool = False
    batch_runner: Callable[..., list[dict[str, Any]]] = execute_batch

    def __post_init__(self) -> None:
        check_knobs(self)
        if self.cache_max_bytes is not None and self.cache_dir is None:
            raise knob_error(
                self, "cache_dir", "cache_max_bytes needs a cache_dir"
            )


class ColoringServer(NdjsonFrontEnd):
    """Asyncio NDJSON front end over a crash-isolated worker pool."""

    config: ServeConfig

    def __init__(self, config: ServeConfig):
        super().__init__(config, AdmissionController(config.max_queue))
        self.cache = ResultCache(
            config.cache_size,
            disk_dir=config.cache_dir,
            disk_max_bytes=config.cache_max_bytes,
        )
        self.registry = InstanceRegistry(config.registry_size)
        self.batcher = MicroBatcher(
            dispatch=self._dispatch,
            max_batch=config.max_batch,
            linger=config.linger_ms / 1000.0,
            max_concurrent=max(1, config.jobs),
        )
        self.collector = Collector(sample_rounds=False)
        # Own ``serve.*`` counters bypass the process-global slot, which
        # holds only the last-started server's collector.
        self._metrics = self.collector.registry
        self.pool: WorkerPool | None = None
        self.pool_rebuilds = 0
        self._previous_collector: Collector | None = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Start the batcher, (for jobs > 0) spawn workers, and bind."""
        self._previous_collector = active_collector()
        install(self.collector)
        if self.config.jobs > 0:
            self.pool = WorkerPool(self.config.jobs, backoff=self.config.backoff)
        self.batcher.start()
        await super().start()

    async def _release(self) -> None:
        await self.batcher.close()
        if self.pool is not None:
            self.pool.kill()
            self.pool = None
        if active_collector() is self.collector:
            if self._previous_collector is not None:
                install(self._previous_collector)
            else:
                uninstall()

    def _count(self, name: str) -> None:
        self._metrics.count(name)

    def _answer(
        self, data: dict[str, Any], reply: Reply
    ) -> dict[str, Any] | Coroutine[Any, Any, None]:
        op = data["op"]
        if op == "color":
            return self._handle_color(data, reply)
        if op == "cell":
            return self._handle_cell(data, reply)
        return self._handle_query(op, data)

    # -- read-only / control ops ---------------------------------------

    def _handle_query(self, op: str, data: dict[str, Any]) -> dict[str, Any]:
        request_id = data.get("id")
        if op == "health":
            return {
                "id": request_id,
                "ok": True,
                "op": "health",
                "status": "ok" if not self.admission.draining else "draining",
            }
        if op == "status":
            return {
                "id": request_id,
                "ok": True,
                "op": "status",
                **self._status(),
            }
        if op == "metrics":
            # Pressure gauges are sampled at answer time (the admission
            # controller and batcher already track them) so a metrics
            # reader sees backend load, not just latency.
            # Written through the server's own registry, not the
            # process-global collector: several servers can share one
            # process (tests, fleets) without crosstalk.
            registry = self.collector.registry
            registry.gauge("serve.in_flight", float(self.admission.depth))
            registry.gauge("serve.queue_depth", float(self.batcher.queued))
            return {
                "id": request_id,
                "ok": True,
                "op": "metrics",
                "metrics": registry.as_dict(),
                "server": self._status(),
            }
        if op == "fleet":
            # A single shard has no ring; the router tier answers this.
            return error_body(
                "unsupported",
                "the fleet op is answered by the router tier "
                "(repro fleet / repro router); this is a single server",
                request_id=request_id, op="fleet",
            )
        if op == "register":
            payload = data.get("instance")
            if not isinstance(payload, dict):
                return error_body(
                    "bad_request", "register needs an 'instance' object",
                    request_id=request_id, op="register",
                )
            try:
                instance_hash, record = normalize_instance_payload(payload)
            except ProtocolError as error:
                self._metrics.count("serve.bad_request")
                return error_body(
                    error.code, str(error), request_id=request_id, op="register"
                )
            self.registry.put(instance_hash, record)
            self._metrics.count("serve.register")
            return {
                "id": request_id,
                "ok": True,
                "op": "register",
                "instance_hash": instance_hash,
                "n": record.n,
                "delta": record.delta,
            }
        raise AssertionError(f"unrouted op {op!r}")

    def _status(self) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        return {
            "state": self.admission.state(),
            "uptime_s": round(loop.time() - self._started_at, 3),
            "depth": self.admission.depth,
            "queued": self.batcher.queued,
            "admitted_total": self.admission.admitted_total,
            "shed_total": self.admission.shed_total,
            "connections": self.connections,
            "cache": self.cache.stats(),
            "registry": {
                "size": len(self.registry),
                "capacity": self.registry.capacity,
                "evictions": self.registry.evictions,
            },
            "batches": {
                "dispatched": self.batcher.batches_dispatched,
                "items": self.batcher.items_dispatched,
                "max_batch": self.config.max_batch,
                "linger_ms": self.config.linger_ms,
            },
            "pool": {
                "jobs": self.config.jobs,
                "rebuilds": self.pool_rebuilds,
            },
        }

    # -- the color and cell ops ----------------------------------------

    async def _handle_color(self, data: dict[str, Any], reply: Reply) -> None:
        started = asyncio.get_running_loop().time()
        try:
            request = parse_color_request(data)
            if request.instance is not None:
                instance_hash, record = normalize_instance_payload(
                    request.instance
                )
                self.registry.put(instance_hash, record)
            else:
                instance_hash = request.instance_hash or ""
        except ProtocolError as error:
            self._metrics.count("serve.bad_request")
            await reply(error_body(
                error.code, str(error), request_id=data.get("id"), op="color"
            ))
            return
        key = make_cache_key(
            instance_hash, request.method, request.seed, request.epsilon,
            request.options,
        )

        def respond(
            result: dict[str, Any], batch_size: int | None
        ) -> dict[str, Any]:
            if not request.include_colors:
                result = {k: v for k, v in result.items() if k != "colors"}
            body = {
                "id": request.id,
                "ok": True,
                "op": "color",
                "cached": batch_size is None,
                "instance_hash": instance_hash,
                "result": result,
            }
            if batch_size is not None:
                body["batch_size"] = batch_size
            return body

        await self._run_spec(
            reply, "color", request.id, started,
            {
                "key": key,
                "instance_hash": instance_hash,
                "method": request.method,
                "seed": request.seed,
                "epsilon": request.epsilon,
                "options": request.options,
            },
            respond,
            hint="send it inline or via the register op first",
            use_cache=not request.no_cache,
            deadline_ms=(
                request.deadline_ms if request.deadline_ms is not None
                else self.config.default_deadline_ms
            ),
        )

    async def _handle_cell(self, data: dict[str, Any], reply: Reply) -> None:
        """Run one campaign cell: the distributed campaign plane's op.

        Same admission / batching / caching path as ``color``; the spec
        carries the full wire cell and the graph arrives by registered
        hash only (the campaign executor registers a graph when this
        answers ``unknown_instance``).  The response row is what the
        inline executor's
        :func:`repro.runner.campaign.run_cell` would produce — cells are
        deterministic, so serving one is cacheable and retry-safe.
        """
        started = asyncio.get_running_loop().time()
        try:
            request = parse_cell_request(data)
        except ProtocolError as error:
            self._metrics.count("serve.bad_request")
            await reply(error_body(
                error.code, str(error), request_id=data.get("id"), op="cell"
            ))
            return

        def respond(
            result: dict[str, Any], batch_size: int | None
        ) -> dict[str, Any]:
            return {
                "id": request.id,
                "ok": True,
                "op": "cell",
                "cached": batch_size is None,
                "instance_hash": request.instance_hash,
                "row": result["row"],
            }

        await self._run_spec(
            reply, "cell", request.id, started,
            {
                "kind": "cell",
                "key": make_cell_cache_key(
                    request.instance_hash, request.cell
                ),
                "instance_hash": request.instance_hash,
                "cell": request.cell,
            },
            respond,
            hint="register it first",
        )

    async def _run_spec(
        self,
        reply: Reply,
        op: str,
        request_id: Any,
        started: float,
        spec: dict[str, Any],
        respond: Callable[[dict[str, Any], int | None], dict[str, Any]],
        *,
        hint: str,
        use_cache: bool = True,
        deadline_ms: float | None = None,
    ) -> None:
        """Answer one ``color``/``cell`` spec: the path the two ops share.

        Registry lookup, result cache, admission, micro-batch, outcome.
        ``respond(result, batch_size)`` renders the success body;
        ``batch_size`` is ``None`` for a cache hit.  ``hint`` ends the
        ``unknown_instance`` message.
        """
        instance_hash = spec["instance_hash"]
        record = self.registry.get(instance_hash)
        if record is None:
            self._metrics.count("serve.unknown_instance")
            await reply(error_body(
                "unknown_instance",
                f"no registered instance with hash {instance_hash!r}; {hint}",
                request_id=request_id, op=op,
            ))
            return
        key = spec["key"]
        if use_cache:
            cached = self.cache.get(key)
            if cached is not None:
                self._metrics.count("serve.cache_hit")
                await reply(respond(cached, None))
                return
            self._metrics.count("serve.cache_miss")

        refusal = self.admission.try_admit()
        if refusal is not None:
            self._metrics.count(f"serve.{refusal}")
            detail = (
                f"queue depth {self.admission.max_depth} at bound; retry later"
                if refusal == "shed"
                else "server is draining; no new work accepted"
            )
            await reply(error_body(
                refusal, detail, request_id=request_id, op=op
            ))
            return

        try:
            item = PendingRequest(
                key=key,
                instance_hash=instance_hash,
                record=record,
                spec=spec,
                future=asyncio.get_running_loop().create_future(),
                deadline=(
                    started + deadline_ms / 1000.0
                    if deadline_ms is not None else None
                ),
            )
            try:
                self.batcher.submit(item)
            except BatcherClosed:
                # Lost the race against shutdown: close() already posted
                # the queue sentinel, so the item would never dispatch.
                self._metrics.count("serve.draining")
                await reply(error_body(
                    "draining", "server is draining; no new work accepted",
                    request_id=request_id, op=op,
                ))
                return
            outcome = await item.future
            if "error" in outcome:
                error = outcome["error"]
                self._metrics.count(f"serve.{error['code']}")
                body = error_body(
                    error["code"], error["message"],
                    request_id=request_id, op=op,
                )
                if "type" in error:
                    body["error"]["type"] = error["type"]
                await reply(body)
            else:
                self._metrics.observe(
                    "serve.latency_ms",
                    (asyncio.get_running_loop().time() - started) * 1000.0,
                )
                self._metrics.count("serve.completed")
                await reply(respond(
                    outcome["result"], outcome.get("batch_size", 1)
                ))
        finally:
            self.admission.release()

    # -- batch dispatch ------------------------------------------------

    async def _dispatch(self, batch: list[PendingRequest]) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        live: list[PendingRequest] = []
        for item in batch:
            if item.deadline is not None and now > item.deadline:
                item.future.set_result({"error": {
                    "code": "deadline",
                    "message": "deadline expired before execution "
                    "(server overloaded or deadline shorter than linger)",
                }})
            else:
                live.append(item)
        if not live:
            return
        by_key: dict[str, list[PendingRequest]] = {}
        for item in live:
            by_key.setdefault(item.key, []).append(item)
        specs = [group[0].spec for group in by_key.values()]
        instances = {
            group[0].instance_hash: group[0].record
            for group in by_key.values()
        }
        self._metrics.observe("serve.batch_size", len(live))
        try:
            entries = await self._execute(specs, instances)
        except Exception as error:
            for item in live:
                if not item.future.done():
                    item.future.set_result({"error": {
                        "code": "internal",
                        "message": f"batch execution failed: {error}",
                    }})
            return
        batch_size = len(live)
        for entry in entries:
            prepared = entry.get("prepared")
            if prepared is not None:
                self._metrics.count(f"serve.prepared.{prepared}")
            group = by_key.pop(entry["key"], [])
            if "error" in entry:
                outcome: dict[str, Any] = {"error": entry["error"]}
            else:
                self.cache.put(entry["key"], entry["result"])
                outcome = {
                    "result": entry["result"], "batch_size": batch_size,
                }
            for item in group:
                if not item.future.done():
                    item.future.set_result(outcome)
        for group in by_key.values():  # runner returned no entry for the key
            for item in group:
                if not item.future.done():
                    item.future.set_result({"error": {
                        "code": "internal",
                        "message": "batch runner returned no result for key",
                    }})

    async def _execute(
        self,
        specs: list[dict[str, Any]],
        instances: dict[str, InstanceRecord],
    ) -> list[dict[str, Any]]:
        loop = asyncio.get_running_loop()
        runner = self.config.batch_runner
        registered = self.registry.hashes()
        if self.pool is None:
            return await loop.run_in_executor(
                None, runner, specs, instances, registered
            )
        attempts = 0
        while True:
            try:
                future = self.pool.submit(
                    runner, specs, instances, registered
                )
                return await asyncio.wrap_future(future)
            except BrokenProcessPool:
                self.pool_rebuilds += 1
                self._metrics.count("serve.pool_rebuild")
                if attempts >= self.config.dispatch_retries:
                    raise
                attempts += 1
                # rebuild() sleeps its backoff; keep the loop responsive.
                await loop.run_in_executor(None, self.pool.rebuild)

