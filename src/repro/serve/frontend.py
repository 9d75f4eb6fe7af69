"""The serving tiers' front end: one listener, one NDJSON connection layer.

:class:`Listener` binds a TCP or UNIX stream server and owns its
lifecycle: ``await start()``, read ``address``/``port``, ``stop()`` or
``await wait_stopped()``, ``await close()``.  The chaos proxy
(:mod:`repro.serve.chaos`) uses it bare, with its own byte-level
connection handler.

:class:`NdjsonFrontEnd` puts the protocol's connection layer on top:
one task per connection reads request lines
(:mod:`repro.serve.protocol`) under the idle timeout, answers an
oversized line, a malformed one and the ``drain`` op itself, and
writes every answer under one lock per connection.  SIGTERM/SIGINT
start the same drain.  :class:`~repro.serve.server.ColoringServer` and
:class:`~repro.serve.router.FleetRouter` supply only their op handlers
(:meth:`NdjsonFrontEnd._answer`), so both tiers behave the same at the
wire for everything that is not an op.
"""

from __future__ import annotations

import asyncio
import signal
from functools import partial
from typing import Any, Awaitable, Callable, Coroutine

from repro.serve.admission import AdmissionController
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    encode,
    error_body,
    parse_request,
)

__all__ = [
    "DEFAULT_IDLE_TIMEOUT_S",
    "FrontEndConfig",
    "Listener",
    "NdjsonFrontEnd",
    "Reply",
    "add_signal_handlers",
    "cancel_task",
    "remove_signal_handlers",
]

#: Default slowloris bound for TCP listeners (UNIX sockets default off).
DEFAULT_IDLE_TIMEOUT_S = 60.0

_SIGNALS = (signal.SIGTERM, signal.SIGINT)

#: Writes one response body to the requesting connection.
Reply = Callable[[dict[str, Any]], Awaitable[None]]


async def cancel_task(task: asyncio.Task[Any] | None) -> None:
    """Cancel ``task`` (if any) and wait until it has finished."""
    if task is None:
        return
    task.cancel()
    try:
        await task
    except asyncio.CancelledError:
        pass


def add_signal_handlers(callback: Callable[[], None]) -> None:
    """Call ``callback`` on SIGTERM and SIGINT."""
    loop = asyncio.get_running_loop()
    for signum in _SIGNALS:
        loop.add_signal_handler(signum, callback)


def remove_signal_handlers() -> None:
    """Undo :func:`add_signal_handlers` (a no-op where there are none)."""
    loop = asyncio.get_running_loop()
    for signum in _SIGNALS:
        try:
            loop.remove_signal_handler(signum)
        except (NotImplementedError, RuntimeError):
            pass


class FrontEndConfig:
    """The knobs an NDJSON tier's config carries for its front end.

    :class:`~repro.serve.server.ServeConfig` and
    :class:`~repro.serve.router.RouterConfig` declare them as fields;
    this base only names them and resolves the idle timeout.
    """

    host: str
    port: int
    unix_path: str | None
    #: An idle connection gets a canonical ``idle_timeout`` error body
    #: and is closed; one *waiting* for in-flight responses is never
    #: reaped.  ``None`` resolves per transport (TCP is internet-facing).
    idle_timeout_s: float | None
    handle_signals: bool

    @property
    def resolved_idle_timeout(self) -> float | None:
        """The effective idle read timeout (None = disabled)."""
        if self.idle_timeout_s is None:
            return None if self.unix_path is not None else DEFAULT_IDLE_TIMEOUT_S
        return self.idle_timeout_s if self.idle_timeout_s > 0 else None


class Listener:
    """A TCP or UNIX stream listener; subclasses handle its connections."""

    #: Stream reader buffer bound (asyncio's own default).
    limit = 2**16

    def __init__(self, host: str, port: int, unix_path: str | None) -> None:
        self.host = host
        self.listen_port = port
        self.unix_path = unix_path
        self._server: asyncio.AbstractServer | None = None
        self._stopped: asyncio.Event | None = None

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        raise NotImplementedError

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._stopped = asyncio.Event()
        if self.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=self.unix_path, limit=self.limit
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection, host=self.host, port=self.listen_port,
                limit=self.limit,
            )

    @property
    def address(self) -> str:
        """Printable bound address ('host:port' or the socket path)."""
        if self.unix_path is not None:
            return self.unix_path
        assert self._server is not None
        host, port = self._server.sockets[0].getsockname()[:2]
        return f"{host}:{port}"

    @property
    def port(self) -> int:
        assert self._server is not None and self.unix_path is None
        return int(self._server.sockets[0].getsockname()[1])

    async def wait_stopped(self) -> None:
        assert self._stopped is not None
        await self._stopped.wait()

    def stop(self) -> None:
        """Make :meth:`wait_stopped` resolve (draining is the caller's job)."""
        if self._stopped is not None:
            self._stopped.set()

    async def _release(self) -> None:
        """Free what a subclass holds, once no connection is accepted."""

    async def close(self) -> None:
        """Stop listening and tear everything down (idempotent)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._release()
        self.stop()


class NdjsonFrontEnd(Listener):
    """One task per connection speaking the NDJSON protocol.

    A subclass answers the ops (:meth:`_answer`); this class reads the
    lines, refuses malformed ones, answers ``drain`` and drains on
    SIGTERM/SIGINT when ``config.handle_signals`` is set.
    """

    limit = MAX_LINE_BYTES

    def __init__(
        self, config: FrontEndConfig, admission: AdmissionController
    ) -> None:
        super().__init__(config.host, config.port, config.unix_path)
        self.config = config
        self.admission = admission
        self.connections = 0
        self._drain_task: asyncio.Task[None] | None = None
        self._started_at = 0.0

    def _answer(
        self, data: dict[str, Any], reply: Reply
    ) -> dict[str, Any] | Coroutine[Any, Any, dict[str, Any] | None]:
        """Answer one parsed request other than ``drain``.

        Return the response body to write it at once, in line order,
        or a coroutine to run it as a task, so the connection keeps
        reading meanwhile.  The coroutine returns its response body, or
        ``None`` when it wrote one through ``reply`` itself.
        """
        raise NotImplementedError

    def _count(self, name: str) -> None:
        """Count a connection-level event (``serve.*``); none by default."""

    async def start(self) -> None:
        self._started_at = asyncio.get_running_loop().time()
        await super().start()
        if self.config.handle_signals:
            add_signal_handlers(self._on_signal)

    async def close(self) -> None:
        if self.config.handle_signals:
            remove_signal_handlers()
        await cancel_task(self._drain_task)
        self._drain_task = None
        await super().close()

    # -- drain ---------------------------------------------------------

    def _on_signal(self) -> None:
        # Retain the task handle: the event loop only holds a weak
        # reference, so a bare create_task could be garbage-collected
        # mid-drain.  The None guard also makes a second signal during
        # an in-flight drain a no-op instead of a duplicate drain task.
        if not self.admission.draining and self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain()
            )

    async def _drain(
        self, request_id: Any = None, reply: Reply | None = None
    ) -> None:
        """Stop admitting, wait out the admitted work, answer, stop."""
        self.admission.begin_drain()
        await self.admission.wait_drained()
        if reply is not None:
            await reply({
                "id": request_id,
                "ok": True,
                "op": "drain",
                "drained": True,
                "served": self.admission.admitted_total,
            })
        self.stop()

    # -- connection handling -------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        reply: Reply = partial(_write, writer, asyncio.Lock())
        tasks: set[asyncio.Task[None]] = set()
        loop = asyncio.get_running_loop()
        idle_timeout = self.config.resolved_idle_timeout
        try:
            while True:
                try:
                    if idle_timeout is not None:
                        line = await asyncio.wait_for(
                            reader.readline(), idle_timeout
                        )
                    else:
                        line = await reader.readline()
                except asyncio.TimeoutError:
                    # A connection waiting on its own in-flight requests
                    # is not idle — only reap silent ones (slowloris:
                    # connections held open without ever sending a
                    # complete request starve the accept loop).
                    if tasks:
                        continue
                    self._count("serve.idle_timeout")
                    await reply(error_body(
                        "idle_timeout",
                        f"no request within {idle_timeout:g}s; "
                        "closing idle connection",
                    ))
                    break
                except (asyncio.LimitOverrunError, ValueError):
                    await reply(error_body(
                        "bad_request",
                        f"request line exceeds {MAX_LINE_BYTES} bytes",
                    ))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    data = parse_request(line)
                except ProtocolError as error:
                    self._count("serve.bad_request")
                    await reply(error_body(error.code, str(error)))
                    continue
                if data["op"] == "drain":
                    task = loop.create_task(self._drain(data.get("id"), reply))
                else:
                    answer = self._answer(data, reply)
                    if isinstance(answer, dict):
                        await reply(answer)
                        continue
                    task = loop.create_task(_reply_when_done(answer, reply))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def _write(
    writer: asyncio.StreamWriter, lock: asyncio.Lock, body: dict[str, Any]
) -> None:
    try:
        async with lock:
            writer.write(encode(body))
            await writer.drain()
    except (ConnectionError, OSError):
        pass  # client went away; nothing to tell it


async def _reply_when_done(
    answer: Coroutine[Any, Any, dict[str, Any] | None], reply: Reply
) -> None:
    body = await answer
    if body is not None:
        await reply(body)
