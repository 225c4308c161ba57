"""The HTTP/1.1 transport of :class:`~repro.server.app.SimilarityServerApp`.

A deliberately small server — no third-party web framework — speaking
enough HTTP/1.1 for JSON request / response bodies with keep-alive.  Each
connection is one :class:`asyncio.Protocol` object that parses requests
straight out of its receive buffer in ``data_received`` (framing by
:mod:`repro.server.wire`, then ``json.loads``; no stream reader is
awaited), so a request that arrives in one segment wakes the loop once.
It answers one request at a time in arrival order — pipelined bytes wait
in the buffer, bounded: reading pauses once more than a head's worth is
held behind a request in flight — writes each response with one
``transport.write`` and starts the next request only when the transport
has room again.  Malformed framing, a body that is not JSON and EOF inside
a request each earn one ``400 bad_request`` row with ``Connection: close``.

:class:`InProcessServer` runs the event loop on a daemon thread so
synchronous tests and benchmarks can drive a real TCP server with plain
sockets, then drain it deterministically.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
from typing import Awaitable, Callable

from repro.core.exceptions import ServerError
from repro.server.app import SimilarityServerApp
from repro.server.errors import BAD_REQUEST, simple_error
from repro.server.wire import MAX_HEAD_BYTES, MessageBuffer, keep_alive

#: Largest accepted request body, in bytes.
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable",
            504: "Gateway Timeout", 507: "Insufficient Storage"}
logger = logging.getLogger(__name__)


def _render_response(status: int, document: dict, headers: dict,
                     *, keep_alive: bool) -> bytes:
    body = json.dumps(document).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             "Content-Type: application/json",
             f"Content-Length: {len(body)}",
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
    return head + body


class _HttpConnection(asyncio.Protocol):
    """One client connection, served out of its own receive buffer."""

    def __init__(self, server: "HttpServer") -> None:
        self._server = server
        self._transport: asyncio.Transport | None = None
        self._incoming = MessageBuffer(max_body_bytes=MAX_BODY_BYTES)
        #: The request being answered; the next one waits in the buffer.
        self._task: asyncio.Task | None = None
        self._eof = False
        self._reading_paused = False
        self._writing_paused = False

    # -- asyncio.Protocol ------------------------------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._server._connections.add(self)

    def connection_lost(self, error) -> None:
        # A request in flight runs to its end (it may be a write the app
        # has already admitted); its answer is simply not sent, and the
        # server keeps track of the connection until then.
        if self._task is None:
            self._server._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        self._incoming.feed(data)
        self._serve_buffered()
        if (self._task is not None or self._writing_paused) \
                and len(self._incoming.pending) > MAX_HEAD_BYTES \
                and not self._reading_paused:
            self._reading_paused = True
            self._transport.pause_reading()

    def eof_received(self) -> bool:
        self._eof = True
        self._serve_buffered()
        return True  # stay open until the request in flight is answered

    def pause_writing(self) -> None:
        self._writing_paused = True

    def resume_writing(self) -> None:
        self._writing_paused = False
        self._serve_buffered()

    # -- requests --------------------------------------------------------------

    def _next_request(self):
        """Take one whole request off the buffer, or ``None`` if it is not
        all here yet; raises :class:`ServerError` on malformed input."""
        message = self._incoming.take()
        if message is None:
            return None
        request_line, connection, body = message
        parts = request_line.split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ServerError(f"malformed request line: {request_line[:80]!r}")
        method, target, version = parts
        payload = None
        if body:
            try:
                payload = json.loads(body)
            except (ValueError, RecursionError):
                raise ServerError("request body is not valid JSON") from None
        return (method, target.split("?", 1)[0], payload,
                keep_alive(version, connection))

    def _serve_buffered(self) -> None:
        """Start answering the next buffered request, if it is all here
        and the connection is free to take it."""
        if self._task is not None or self._writing_paused \
                or self._transport.is_closing():
            return
        try:
            request = self._next_request()
            if request is None and self._eof and self._incoming.pending:
                raise ServerError("connection closed mid-request")
        except ServerError as error:
            self._write(*simple_error(BAD_REQUEST, str(error)), {},
                        keep_alive=False)
            return
        if request is not None:
            self._task = asyncio.get_running_loop().create_task(
                self._respond(*request))
            self._task.add_done_callback(self._responded)
        elif self._eof:
            self._transport.close()
            return
        if self._reading_paused and (
                request is None
                or len(self._incoming.pending) <= MAX_HEAD_BYTES):
            self._reading_paused = False
            self._transport.resume_reading()

    async def _respond(self, method: str, path: str, payload: object,
                       keep_alive: bool) -> None:
        status, body, headers = await self._server.app.handle(
            method, path, payload)
        self._write(status, body, headers, keep_alive=keep_alive)

    def _responded(self, task: asyncio.Task) -> None:
        self._task = None
        if self._transport.is_closing():
            self._server._connections.discard(self)
        if task.cancelled():
            return
        error = task.exception()
        if error is not None:
            logger.error("request handling failed below app.handle",
                         exc_info=error)
            self._transport.close()
            return
        self._serve_buffered()

    def _write(self, status: int, body: dict, headers: dict, *,
               keep_alive: bool) -> None:
        if self._transport.is_closing():
            return
        self._transport.write(_render_response(status, body, headers,
                                               keep_alive=keep_alive))
        if not keep_alive:
            self._transport.close()

    def close(self) -> asyncio.Task | None:
        """Close the connection; returns the cancelled request task, if any."""
        task = self._task
        if task is not None:
            task.cancel()
        self._transport.close()
        return task


class HttpServer:
    """The asyncio TCP front end around one app."""

    def __init__(self, app: SimilarityServerApp, *, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_HttpConnection] = set()

    async def start(self) -> tuple[str, int]:
        """Start the app and listen; returns the bound ``(host, port)``."""
        await self.app.startup()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _HttpConnection(self), self.host, self.port)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def stop(self, *, drain: bool = True) -> None:
        """Stop listening, close connections, drain queues, shut the app."""
        if self._server is not None:
            self._server.close()
        cancelled = [connection.close()
                     for connection in list(self._connections)]
        await asyncio.gather(*filter(None, cancelled), return_exceptions=True)
        if self._server is not None:
            # After the connections: from 3.12 this waits for them too.
            await self._server.wait_closed()
            self._server = None
        await self.app.shutdown(drain=drain)


async def serve_forever(app: SimilarityServerApp, *, host: str = "127.0.0.1",
                        port: int = 8042,
                        ready: Callable[[str, int], None] | None = None,
                        stop_signal: asyncio.Event | None = None) -> None:
    """Run the server until ``stop_signal`` (or SIGTERM/SIGINT), then drain.

    The CLI entry point (``python -m repro.server``) builds on this; tests
    pass an explicit ``stop_signal`` event instead of signals.
    """
    server = HttpServer(app, host=host, port=port)
    bound_host, bound_port = await server.start()
    if ready is not None:
        ready(bound_host, bound_port)
    stop = stop_signal or asyncio.Event()
    if stop_signal is None:
        import signal

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
    try:
        await stop.wait()
    finally:
        await server.stop(drain=True)


class InProcessServer:
    """A live server on a daemon thread, for synchronous tests and benches.

    Usage::

        with InProcessServer(app) as server:
            client = SimilarityClient(server.host, server.port)
            ...

    Exiting the context drains the queues and joins the loop thread, so a
    passing test means graceful shutdown worked too.
    """

    def __init__(self, app: SimilarityServerApp, *, host: str = "127.0.0.1",
                 port: int = 0, drain_on_close: bool = True) -> None:
        self.app = app
        self.host = host
        self.port = port
        self.drain_on_close = drain_on_close
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: HttpServer | None = None

    def __enter__(self) -> "InProcessServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def start(self) -> "InProcessServer":
        if self._thread is not None:
            raise ServerError("InProcessServer is already running")
        started = threading.Event()
        failure: list[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            self._server = HttpServer(self.app, host=self.host,
                                      port=self.port)
            try:
                self.host, self.port = loop.run_until_complete(
                    self._server.start())
            except BaseException as error:  # noqa: BLE001 — report to caller
                failure.append(error)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.close()

        self._thread = threading.Thread(target=run, name="repro-http",
                                        daemon=True)
        self._thread.start()
        started.wait()
        if failure:
            self._thread.join()
            self._thread = None
            raise failure[0]
        return self

    def run_coroutine(self, coroutine: Awaitable) -> object:
        """Run a coroutine on the server's loop; returns its result."""
        if self._loop is None:
            raise ServerError("InProcessServer is not running")
        return asyncio.run_coroutine_threadsafe(
            coroutine, self._loop).result(timeout=60)

    def close(self) -> None:
        """Drain, stop the server, and join the loop thread."""
        if self._thread is None:
            return
        self.run_coroutine(self._server.stop(drain=self.drain_on_close))
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._thread = None
        self._loop = None
        self._server = None
