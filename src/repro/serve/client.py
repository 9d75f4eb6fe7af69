"""Clients for the coloring service: reference and resilient.

:class:`ServeClient` is the reference client — one connection, NDJSON
framing, request/response matching by ``id`` (responses arrive in
*completion* order because micro-batching reorders them).  It is the
minimal implementation of the wire contract and stays deliberately
dumb: no reconnect, no retry, no timeouts.

:class:`ResilientClient` is the fleet-facing client for *one* endpoint.
It layers the transport robustness a router shard hop or a remote
campaign backend needs on top of a :class:`ServeClient` connection:

* **connect/reconnect lifecycle** — the connection is opened lazily and
  reopened transparently after a reset; a broken connection fails only
  the requests that were in flight on it;
* **per-request timeouts** — an unanswered request counts as an
  endpoint failure and (when retry-safe) is retried;
* **seeded-jitter exponential backoff** — the retry schedule is a pure
  function of ``(RetryPolicy.seed, call index)``, so two runs with the
  same seed retry at identical offsets (asserted in tests);
* **a latency EWMA** — the router's ``fleet`` op reports it and the
  remote executor ranks backends by it;
* **endpoint health** — ``status`` is ``ok``, ``draining`` or
  ``down`` (:meth:`~ResilientClient.probe`), the endpoint's only health
  state: callers send work to ``ok`` endpoints only, so a ``down`` one
  receives probes and nothing else;
* **hash-first registration** — a graph is sent only when the endpoint
  asks for it, once however many requests asked
  (:meth:`~ResilientClient.request_hashed`).

Choosing *between* endpoints is the caller's job: the router walks its
hash ring, the remote executor ranks its backends.

Retry safety.  A retry is only ever issued for outcomes that cannot
duplicate side effects: connect failures (nothing was written), ``shed``
and ``draining`` error responses (the server refused the work), and —
for the ops in :data:`RETRY_SAFE_OPS` — ambiguous in-flight failures
(resets, timeouts).  ``color`` is in that set *because the pipelines
are deterministic*: a re-sent ``color`` is cache-keyed on
``(instance hash, method, seed, epsilon, options)`` and is entitled to
a byte-identical response, so executing it twice is indistinguishable
from executing it once (DESIGN.md §13).  ``cell`` is in the set for the
same reason: a campaign cell's row is a pure function of the cell.
``drain`` is never retried after an ambiguous write: if the first one
landed, a re-sent drain could reach a restarted server and stop it too.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ReproError
from repro.runner.campaign import derive_cell_seed
from repro.serve.protocol import MAX_LINE_BYTES

__all__ = [
    "PROBE_DOWN_AFTER",
    "RETRY_SAFE_OPS",
    "ClientError",
    "Endpoint",
    "InstanceHashMismatch",
    "Outcome",
    "ResilientClient",
    "RetryPolicy",
    "ServeClient",
]


class ClientError(ReproError):
    """A client-side failure (bad endpoint spec, misuse)."""


class InstanceHashMismatch(ReproError):
    """An endpoint registered a graph under a different canonical hash.

    Client and server disagree about the instance's identity, so no
    request on that graph can be addressed by hash; retrying cannot help.
    """


# ----------------------------------------------------------------------
# The reference client.
# ----------------------------------------------------------------------


class ServeClient:
    """Minimal asyncio client: one connection, id-matched futures.

    ``closed`` turns true once the connection is gone — closed by either
    side, reset, or broken by a failed write — and never back: a new
    connection is a new :class:`ServeClient`.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: str | None = None,
    ):
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.closed = False
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._pending: dict[Any, asyncio.Future] = {}
        self._reader_task: asyncio.Task | None = None
        self._next_id = 0

    async def connect(self) -> None:
        if self.unix_path is not None:
            self._reader, self._writer = await asyncio.open_unix_connection(
                self.unix_path, limit=MAX_LINE_BYTES
            )
        else:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port, limit=MAX_LINE_BYTES
            )
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    async def close(self) -> None:
        self.closed = True
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass
        self._fail_pending("client closed")

    async def request(self, body: dict[str, Any]) -> dict[str, Any]:
        """Send one request and await its (id-matched) response."""
        if self.closed or self._writer is None:
            raise ConnectionError("connection is closed")
        if "id" not in body:
            self._next_id += 1
            body = {**body, "id": f"c{self._next_id}"}
        request_id = body["id"]
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._writer.write(
                json.dumps(body, separators=(",", ":")).encode() + b"\n"
            )
            await self._writer.drain()
            return await future
        except (ConnectionError, OSError):
            self.closed = True
            raise
        finally:
            # A failed write or an abandoned wait (timeout, cancel)
            # leaves no future behind for close() to fail unobserved.
            self._pending.pop(request_id, None)

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    body = json.loads(line)
                except json.JSONDecodeError:
                    continue
                future = self._pending.pop(body.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(body)
        except (ConnectionError, OSError):
            pass
        finally:
            self.closed = True
            self._fail_pending("server closed the connection")

    def _fail_pending(self, reason: str) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(ConnectionError(reason))
        self._pending.clear()


# ----------------------------------------------------------------------
# Endpoints and policies.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Endpoint:
    """One server address: TCP ``host:port`` or a UNIX socket path."""

    host: str = "127.0.0.1"
    port: int = 0
    unix_path: str | None = None

    @property
    def label(self) -> str:
        if self.unix_path is not None:
            return f"unix:{self.unix_path}"
        return f"{self.host}:{self.port}"

    @classmethod
    def parse(cls, spec: str) -> "Endpoint":
        """Parse ``host:port`` or ``unix:/path`` (the CLI form)."""
        if spec.startswith("unix:"):
            path = spec[len("unix:"):]
            if not path:
                raise ClientError(f"empty UNIX socket path in {spec!r}")
            return cls(unix_path=path)
        host, sep, port = spec.rpartition(":")
        if not sep or not port.isdigit():
            raise ClientError(
                f"endpoint {spec!r} is neither host:port nor unix:/path"
            )
        return cls(host=host or "127.0.0.1", port=int(port))


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded-jitter exponential backoff: attempts and their spacing.

    The schedule is a pure function of ``(seed, call_index)`` — no wall
    clock, no process entropy — so a chaos run that retries is exactly
    replayable.  ``delays`` returns the ``attempts - 1`` sleep durations
    between attempts: ``min(max_delay, base * multiplier**i)`` scaled by
    a deterministic jitter factor in ``[1, 1 + jitter]``.
    """

    attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ClientError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ClientError("backoff delays must be >= 0")
        if self.jitter < 0:
            raise ClientError(f"jitter must be >= 0, got {self.jitter}")

    def delays(self, call_index: int = 0) -> list[float]:
        rng = random.Random(derive_cell_seed(self.seed, call_index, "backoff"))
        out: list[float] = []
        for i in range(self.attempts - 1):
            delay = min(self.max_delay_s, self.base_delay_s * self.multiplier**i)
            out.append(delay * (1.0 + self.jitter * rng.random()))
        return out


# ----------------------------------------------------------------------
# The resilient client.
# ----------------------------------------------------------------------

#: Ops safe to re-send after an *ambiguous* in-flight failure (reset or
#: timeout after the request bytes may have reached the server).
#: ``color`` qualifies because pipelines are deterministic and cache-
#: keyed; the reads trivially; ``register`` is idempotent (same payload
#: ⇒ same canonical hash ⇒ same registry entry).  ``drain`` is absent
#: on purpose.
RETRY_SAFE_OPS = frozenset(
    {"color", "cell", "register", "health", "status", "metrics", "fleet"}
)

#: Error responses the server sends *instead of* doing work — always
#: safe to retry.
RETRYABLE_ERROR_CODES = frozenset({"shed", "draining"})

#: Failed probes or lost requests in a row before an endpoint is down.
PROBE_DOWN_AFTER = 2


@dataclass
class Outcome:
    """The result of one :meth:`ResilientClient.call`.

    ``latency_ms`` is the final attempt's send-to-response time only —
    retried failures are excluded so latency percentiles built from
    outcomes cannot double-count retries.
    """

    body: dict[str, Any]
    ok: bool
    attempts: int
    retried: bool
    latency_ms: float


class ResilientClient:
    """One-endpoint NDJSON client with retries, timeouts and health.

    A drop-in upgrade of :class:`ServeClient`::

        client = ResilientClient(
            unix_path="/tmp/serve.sock",
            retry=RetryPolicy(attempts=4, seed=7),
            request_timeout_s=2.0,
        )
        await client.connect()
        outcome = await client.call({"op": "health"})
    """

    def __init__(
        self,
        endpoint: Endpoint | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: str | None = None,
        retry: RetryPolicy | None = None,
        request_timeout_s: float | None = None,
    ):
        self.endpoint = endpoint or Endpoint(
            host=host, port=port, unix_path=unix_path
        )
        self.retry = retry or RetryPolicy()
        self.request_timeout_s = request_timeout_s
        #: Smoothed response latency; ``None`` until the first answer.
        self.latency_ewma_ms: float | None = None
        #: ``"ok"`` | ``"draining"`` | ``"down"`` (see :meth:`probe`).
        self.status = "ok"
        #: Graphs this client registered (:meth:`request_hashed`).
        self.registrations = 0
        self._failures = 0
        #: Instance hash -> number of the registration that sent it.
        self._registered: dict[str, int] = {}
        self._register_lock = asyncio.Lock()
        self._connection: ServeClient | None = None
        self._connect_lock = asyncio.Lock()
        self._next_id = 0
        self._call_index = 0
        self.reconnects = 0

    # -- lifecycle -----------------------------------------------------

    async def connect(self) -> None:
        """Eagerly connect (verifies reachability)."""
        try:
            await self._ensure_connection()
        except (ConnectionError, OSError) as error:
            raise ConnectionError(
                f"{self.endpoint.label} unreachable: {error}"
            ) from error

    async def close(self) -> None:
        if self._connection is not None:
            await self._connection.close()
            self._connection = None

    async def _ensure_connection(self) -> ServeClient:
        if self._connection is not None and not self._connection.closed:
            return self._connection
        # Serialized: concurrent attempts racing here would each open
        # their own connection, and every loser would leak an unclosed
        # socket plus its reader task.
        async with self._connect_lock:
            if self._connection is None or self._connection.closed:
                if self._connection is not None:
                    await self._connection.close()
                    self.reconnects += 1
                connection = ServeClient(
                    host=self.endpoint.host,
                    port=self.endpoint.port,
                    unix_path=self.endpoint.unix_path,
                )
                await connection.connect()
                self._connection = connection
        return self._connection

    # -- the request path ----------------------------------------------

    async def request(
        self, body: dict[str, Any], *, timeout_s: float | None = None
    ) -> dict[str, Any]:
        """Send one request; return the response body (ServeClient-
        compatible).  Transport-level exhaustion returns a canonical
        ``unavailable`` error body, never an exception."""
        outcome = await self.call(body, timeout_s=timeout_s)
        return outcome.body

    async def call(
        self, body: dict[str, Any], *, timeout_s: float | None = None
    ) -> Outcome:
        """Send one request with retries; return the full
        :class:`Outcome` (final body + attempt accounting)."""
        op = body.get("op")
        timeout = timeout_s if timeout_s is not None else self.request_timeout_s
        call_index = self._call_index
        self._call_index += 1
        delays = self.retry.delays(call_index)
        last_response: dict[str, Any] | None = None
        last_failure: str | None = None
        for attempts in range(1, self.retry.attempts + 1):
            response, failure, latency_ms = await self._attempt(body, timeout)
            if response is not None:
                self._note_response(response, latency_ms)
                last_response = response
                if response.get("ok") or not self._retryable(op, None, response):
                    return Outcome(
                        body=response,
                        ok=bool(response.get("ok")),
                        attempts=attempts,
                        retried=attempts > 1,
                        latency_ms=latency_ms,
                    )
            else:
                last_failure = failure
                if not self._retryable(op, failure, None):
                    break
            if attempts < self.retry.attempts and delays[attempts - 1] > 0:
                await asyncio.sleep(delays[attempts - 1])
        body_out = last_response or {
            "id": body.get("id"),
            "ok": False,
            "error": {
                "code": "unavailable",
                "message": (
                    f"request failed after {attempts} attempt(s): "
                    f"{last_failure}"
                ),
            },
        }
        return Outcome(
            body=body_out,
            ok=False,
            attempts=attempts,
            retried=attempts > 1,
            latency_ms=0.0,
        )

    async def probe(self, timeout_s: float | None = None) -> str:
        """Send ``health``; update and return :attr:`status`.

        ``down`` takes :data:`PROBE_DOWN_AFTER` failed probes or lost
        requests (:meth:`note_failure`) in a row, or one refused connect
        to a UNIX socket (its server is gone); any answer that is not
        a refusal brings a ``down`` endpoint back.  A ``draining``
        refusal marks it draining, and only a probe's ``ok`` ends that:
        a draining server still answers the work it admitted before.
        """
        body = await self.request({"op": "health"}, timeout_s=timeout_s)
        if body.get("ok"):
            self.status = "draining" if body.get("status") == "draining" else "ok"
        else:
            self.note_failure()
        return self.status

    def note_failure(self) -> None:
        """Count a failed probe or a lost request against the endpoint:
        :data:`PROBE_DOWN_AFTER` in a row mark it ``down``."""
        self._failures += 1
        if self._failures >= PROBE_DOWN_AFTER:
            self.status = "down"

    def mark_down(self) -> None:
        """The caller saw the endpoint fail (a crash, an exhausted
        request): ``down`` until an answer brings it back."""
        self.status = "down"

    def note_answer(self) -> None:
        """Count an answer (a caller's own health check included): the
        failure count restarts and a ``down`` endpoint is back."""
        self._failures = 0
        if self.status == "down":
            self.status = "ok"

    async def request_hashed(
        self,
        request: dict[str, Any],
        instance_hash: str,
        payload: Callable[[], dict[str, Any] | None],
        *,
        register_timeout_s: float | None = None,
    ) -> dict[str, Any]:
        """Send ``request``, which names its graph by ``instance_hash``;
        on ``unknown_instance`` register ``payload()`` and retry once.

        Registration is serialized per endpoint and skipped when a
        concurrent bounce re-registered the graph since ``request`` was
        sent.  A failed registration returns its error body, a ``None``
        payload the bounce.  Raises :class:`InstanceHashMismatch` when
        the endpoint registers the graph under another hash.
        """
        sent_under = self._registered.get(instance_hash)
        body = await self.request(request)
        if (body.get("error") or {}).get("code") != "unknown_instance":
            return body
        async with self._register_lock:
            if self._registered.get(instance_hash) == sent_under:
                instance = payload()
                if instance is None:
                    return body
                registered = await self.request(
                    {"op": "register", "instance": instance},
                    timeout_s=register_timeout_s,
                )
                # The rendered edge list is the graph's largest object
                # on the client: drop it before the retried request.
                del instance
                if not registered.get("ok"):
                    return registered
                if registered.get("instance_hash") != instance_hash:
                    raise InstanceHashMismatch(
                        f"{self.endpoint.label} registered instance "
                        f"{instance_hash!r} as "
                        f"{registered.get('instance_hash')!r}"
                    )
                self.registrations += 1
                self._registered[instance_hash] = self.registrations
        return await self.request(request)

    @staticmethod
    def _retryable(
        op: Any, failure: str | None, response: dict[str, Any] | None
    ) -> bool:
        if failure == "connect":
            return True  # nothing was written; safe for every op
        if failure in ("reset", "timeout"):
            return op in RETRY_SAFE_OPS
        if response is not None and not response.get("ok"):
            code = (response.get("error") or {}).get("code")
            return code in RETRYABLE_ERROR_CODES
        return False

    def _note_response(self, response: dict[str, Any], latency_ms: float) -> None:
        """Feed the latency EWMA and the health status with one answer."""
        code = (response.get("error") or {}).get("code")
        if code == "draining":
            self.status = "draining"
        elif code != "shed":
            # A shed is a healthy transport with no capacity to spare:
            # it neither convicts nor clears the endpoint.
            self.note_answer()
        if self.latency_ewma_ms is None:
            self.latency_ewma_ms = latency_ms
        else:
            self.latency_ewma_ms += 0.2 * (latency_ms - self.latency_ewma_ms)

    async def _attempt(
        self, body: dict[str, Any], timeout: float | None
    ) -> tuple[dict[str, Any] | None, str | None, float]:
        """One request on the endpoint.

        Returns ``(response, failure_kind, latency_ms)`` where
        ``failure_kind`` is ``'connect'``, ``'reset'``, ``'timeout'``,
        or ``None`` on response.
        """
        loop = asyncio.get_running_loop()
        started = loop.time()
        self._next_id += 1
        attempt_body = {**body, "id": f"r{self._next_id}"}
        try:
            connection = await self._ensure_connection()
        except (ConnectionError, OSError) as error:
            # A refused UNIX connect: the socket file outlived its server.
            if self.endpoint.unix_path and isinstance(error, ConnectionRefusedError):
                self.mark_down()
            return None, "connect", (loop.time() - started) * 1000.0
        try:
            response = await asyncio.wait_for(
                connection.request(attempt_body), timeout
            )
        except asyncio.TimeoutError:
            return None, "timeout", (loop.time() - started) * 1000.0
        except (ConnectionError, OSError):
            return None, "reset", (loop.time() - started) * 1000.0
        response = {**response, "id": body.get("id")}
        return response, None, (loop.time() - started) * 1000.0
