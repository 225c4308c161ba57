"""A hardened synchronous client speaking HTTP/1.1 over its own socket.

The client is the other half of the wire contract: it encodes with the
same :mod:`repro.serving.api` codec the server decodes with, and it turns
structured error bodies back into :class:`RemoteServerError` carrying the
machine-readable ``code`` (and ``retry_after_seconds`` where the server
sent a backoff hint), so callers branch on codes — never on message text.

The wire (:class:`_WireConnection`) is one kept-alive socket on which a
request is one ``sendall`` — head and body in a single segment, so the
server wakes once — and a response is read into one buffer and parsed
once, strictly: status line ``HTTP/1.x ddd``, the framing rules of
:mod:`repro.server.wire` with ``Content-Length`` required, and not a byte
beyond the declared body.  Anything else — a truncated or malformed
answer included — is a :class:`ClientTransportError` with ``sent=True``,
never a hang (the read timeout is armed on every ``recv``) and never a
guess.

Resilience (PR 8) — every logical request runs under:

* **timeouts** — an explicit connect timeout and a separate read timeout
  (``connect_timeout`` / ``read_timeout``, both defaulting to ``timeout``),
  so a dead host fails fast without shortening long reads;
* **keep-alive recovery** — a request that fails on a *reused* kept-alive
  socket is resent once on a fresh connection (the server is allowed to
  close idle connections; the race is not an error), but only when the
  resend is provably safe: the request never finished sending, or it is
  idempotent.  A write that may already have reached the server fails
  with ``sent=True`` instead, preserving at-most-once semantics;
* **retries** — a seeded :class:`~repro.resilience.retry.RetryPolicy` with
  capped exponential backoff and jitter, honoring server ``Retry-After``
  hints and an overall deadline.  Only *idempotent* traffic (``GET``,
  ``/query``, ``/query/batch``) retries after the request may have been
  processed; writes retry only when the request provably never reached the
  server (connect failure) or the server refused it outright (429);
* **a circuit breaker per endpoint** — transport failures and 5xx answers
  count as failures, 4xx answers (including 429 backpressure) do not;
  an open breaker fails calls locally with
  :class:`~repro.core.exceptions.CircuitOpenError` until its reset
  timeout elapses;
* **an optional fault seam** — a :class:`~repro.resilience.faults.FaultPolicy`
  fired before each attempt, so chaos tests inject client-side latency and
  faults without touching sockets.
"""

from __future__ import annotations

import json
import random
import re
import socket
from typing import Sequence

from repro.core.exceptions import ServerError, ServingError
from repro.core.multiset import Multiset, MultisetId
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultPolicy
from repro.resilience.retry import RetryPolicy
from repro.serving.api import (
    QueryRequest,
    QueryResponse,
    multiset_to_wire,
)
from repro.server.wire import FramingError, MessageBuffer, keep_alive

#: HTTP statuses the retry loop treats as transient for idempotent calls.
_RETRYABLE_STATUSES = frozenset({429, 503, 504})
_RECV_BYTES = 64 * 1024
_STATUS_LINE = re.compile(r"(HTTP/1\.[0-9]) ([0-9]{3})(?: .*)?")


class ClientTransportError(ServerError):
    """A request that failed below HTTP: connect, send, or read.

    ``sent`` records whether the request bytes may have reached the server
    — the property the retry loop branches on for non-idempotent writes.
    """

    def __init__(self, message: str, *, sent: bool) -> None:
        super().__init__(message)
        self.sent = sent


class _WireConnection:
    """One kept-alive socket: a request is one send, a response one parse."""

    def __init__(self, host: str, port: int, *, connect_timeout: float,
                 read_timeout: float) -> None:
        self.sock = socket.create_connection((host, port),
                                             timeout=connect_timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(read_timeout)
        self._host_line = f"Host: {host}:{port}\r\n"
        self._incoming = MessageBuffer(length_required=True)

    def request(self, method: str, path: str, body: bytes | None) -> None:
        """Send one request, head and body in a single ``sendall``."""
        head = f"{method} {path} HTTP/1.1\r\n{self._host_line}"
        if body is not None:
            head += (f"Content-Type: application/json\r\n"
                     f"Content-Length: {len(body)}\r\n")
        self.sock.sendall(f"{head}\r\n".encode("ascii") + (body or b""))

    def getresponse(self) -> tuple[int, bytes, bool]:
        """Read one response; returns ``(status, body, keep_alive)``.

        Raises :class:`FramingError` on anything but one strictly framed
        response, and :class:`OSError` (a timeout included) from the socket.
        """
        incoming = self._incoming
        while (message := incoming.take()) is None:
            chunk = self.sock.recv(_RECV_BYTES)
            if not chunk:
                raise FramingError(
                    "connection closed inside the response"
                    if incoming.pending
                    else "connection closed before any response")
            incoming.feed(chunk)
        if incoming.pending:
            raise FramingError("bytes beyond the declared response body")
        status_line, connection, body = message
        status = _STATUS_LINE.fullmatch(status_line)
        if status is None:
            raise FramingError(f"malformed status line: {status_line[:80]!r}")
        return (int(status.group(2)), body,
                keep_alive(status.group(1), connection))

    def close(self) -> None:
        self.sock.close()


class RemoteServerError(ServerError):
    """A structured error answer from the server.

    Attributes mirror the wire body: ``code`` (stable machine-readable
    string), ``status`` (HTTP), ``remote_type`` (server-side exception
    class name) and ``retry_after_seconds`` (backoff hint, where sent).
    """

    def __init__(self, message: str, *, code: str = "internal_error",
                 status: int = 500, remote_type: str = "",
                 retry_after_seconds: float | None = None) -> None:
        super().__init__(message)
        self.code = code
        self.status = int(status)
        self.remote_type = remote_type
        self.retry_after_seconds = retry_after_seconds

    @classmethod
    def from_body(cls, status: int, body: dict) -> "RemoteServerError":
        error = body.get("error", {}) if isinstance(body, dict) else {}
        return cls(error.get("message", f"HTTP {status}"),
                   code=error.get("code", "internal_error"),
                   status=status,
                   remote_type=error.get("type", ""),
                   retry_after_seconds=error.get("retry_after_seconds"))


class SimilarityClient:
    """Synchronous JSON client for one similarity server."""

    def __init__(self, host: str, port: int, *, timeout: float = 30.0,
                 connect_timeout: float | None = None,
                 read_timeout: float | None = None,
                 retry_policy: RetryPolicy | None = None,
                 breaker_failure_threshold: int = 5,
                 breaker_reset_timeout_seconds: float = 1.0,
                 fault_policy: FaultPolicy | None = None) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.connect_timeout = float(
            connect_timeout if connect_timeout is not None else timeout)
        self.read_timeout = float(
            read_timeout if read_timeout is not None else timeout)
        self.retry_policy = retry_policy or RetryPolicy()
        self.fault_policy = fault_policy
        self._breaker_failure_threshold = breaker_failure_threshold
        self._breaker_reset_timeout = breaker_reset_timeout_seconds
        self._breakers: dict[str, CircuitBreaker] = {}
        self._rng = random.Random(self.retry_policy.seed)
        self._connection: _WireConnection | None = None
        self.retries = 0
        self.reconnects = 0

    # -- transport -------------------------------------------------------------

    def _breaker(self, path: str) -> CircuitBreaker:
        breaker = self._breakers.get(path)
        if breaker is None:
            breaker = CircuitBreaker(
                f"{self.host}:{self.port}{path}",
                failure_threshold=self._breaker_failure_threshold,
                reset_timeout_seconds=self._breaker_reset_timeout)
            self._breakers[path] = breaker
        return breaker

    def _open_connection(self) -> _WireConnection:
        """Connect with the connect timeout, then arm the read timeout."""
        try:
            self._connection = _WireConnection(
                self.host, self.port, connect_timeout=self.connect_timeout,
                read_timeout=self.read_timeout)
        except OSError as error:
            raise ClientTransportError(
                f"connect to {self.host}:{self.port} failed: {error}",
                sent=False) from error
        return self._connection

    def _exchange(self, method: str, path: str, body: bytes | None,
                  *, idempotent: bool = False) -> tuple[int, bytes]:
        """One request/response over the wire.

        A failure on a *reused* kept-alive socket is transparently resent
        once on a fresh connection — the server may close idle connections
        between requests, and that race is not a server failure.  The
        resend only happens when it cannot double-apply: either the request
        never finished sending, or it is idempotent.  A non-idempotent
        write that may already have reached the server (``sent``) raises
        instead, so the retry loop's at-most-once contract holds.  Every
        other transport failure — an answer that is not one strictly
        framed response included — raises :class:`ClientTransportError`
        with its ``sent`` flag.  A ``Connection: close`` answer closes the
        socket once it has been read.
        """
        reused = self._connection is not None
        for resend in (False, True):
            sent = False
            try:
                connection = self._connection or self._open_connection()
                connection.request(method, path, body)
                sent = True
                status, raw, keep_alive = connection.getresponse()
                if not keep_alive:
                    self.close()
                return status, raw
            except ClientTransportError:
                raise
            except (FramingError, OSError) as error:
                self.close()
                if reused and not resend and (idempotent or not sent):
                    self.reconnects += 1
                    reused = False
                    continue
                raise ClientTransportError(
                    f"{method} {path} failed on the wire: {error!r}",
                    sent=sent) from error
        raise AssertionError("unreachable")  # pragma: no cover

    def _request(self, method: str, path: str,
                 payload: dict | None = None, *,
                 idempotent: bool | None = None) -> dict:
        """One logical request: breaker, fault seam, retries, decoding."""
        if idempotent is None:
            idempotent = method == "GET" or path in ("/query", "/query/batch")
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else None)
        breaker = self._breaker(path)
        schedule = self.retry_policy.schedule(self._rng)
        while True:
            schedule.check_deadline(f"{method} {path}")
            breaker.allow()
            schedule.start_attempt()
            if self.fault_policy is not None:
                self.fault_policy.on_call(f"{method} {path}")
            try:
                status, raw = self._exchange(method, path, body,
                                             idempotent=idempotent)
            except ClientTransportError as error:
                breaker.record_failure()
                if not (idempotent or not error.sent) \
                        or not schedule.attempts_left:
                    raise
                self.retries += 1
                schedule.sleep_before_retry()
                continue
            try:
                document = json.loads(raw) if raw else {}
            except ValueError:
                breaker.record_failure()
                raise ServerError(
                    f"server answered non-JSON ({status}): "
                    f"{raw[:200]!r}") from None
            if status < 400:
                breaker.record_success()
                return document
            error = RemoteServerError.from_body(status, document)
            if status >= 500:
                # 4xx answers (including 429 backpressure) are the server
                # working as intended; only 5xx trips the breaker.
                breaker.record_failure()
            retryable = (status == 429
                         or (idempotent and status in _RETRYABLE_STATUSES))
            if not retryable or not schedule.attempts_left:
                raise error
            self.retries += 1
            schedule.sleep_before_retry(
                server_hint=error.retry_after_seconds)

    def breaker_stats(self) -> dict[str, dict]:
        """Per-endpoint circuit-breaker statistics."""
        return {path: breaker.stats()
                for path, breaker in sorted(self._breakers.items())}

    def close(self) -> None:
        """Close the kept-alive connection (reopened on next use)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "SimilarityClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- endpoints -------------------------------------------------------------

    def health(self) -> dict:
        """``GET /health``."""
        return self._request("GET", "/health")

    def stats(self) -> dict:
        """``GET /stats``: fleet snapshot + server queue statistics."""
        return self._request("GET", "/stats")

    def shard_stats(self) -> dict:
        """``GET /stats/shards``: the per-shard breakdown."""
        return self._request("GET", "/stats/shards")

    def query(self, request: QueryRequest) -> QueryResponse:
        """``POST /query``: one unified-API query."""
        document = self._request("POST", "/query", request.to_json_dict())
        return QueryResponse.from_json_dict(document)

    def query_batch(self,
                    requests: Sequence[QueryRequest]) -> list[QueryResponse]:
        """``POST /query/batch``: many queries in one round trip."""
        document = self._request(
            "POST", "/query/batch",
            {"requests": [request.to_json_dict() for request in requests]})
        responses = (document.get("responses")
                     if isinstance(document, dict) else None)
        if not isinstance(responses, list):
            raise ServingError("a batch response must be a JSON object with "
                               "a 'responses' array")
        return [QueryResponse.from_json_dict(entry) for entry in responses]

    def upsert(self, multiset: Multiset) -> dict:
        """``POST /upsert``: index (or replace) one multiset."""
        return self._request("POST", "/upsert",
                             {"multiset": multiset_to_wire(multiset)})

    def delete(self, multiset_id: MultisetId) -> dict:
        """``POST /delete``: drop one multiset."""
        return self._request("POST", "/delete", {"id": multiset_id})

    def persist(self, directory: str) -> dict:
        """``POST /admin/persist``: save every shard to ``directory``."""
        return self._request("POST", "/admin/persist",
                             {"directory": directory})

    def recover(self, directory: str) -> dict:
        """``POST /admin/recover``: reload the fleet from ``directory``."""
        return self._request("POST", "/admin/recover",
                             {"directory": directory})

    def replicas(self) -> dict:
        """``GET /admin/replicas``: per-replica health (replicated fleets)."""
        return self._request("GET", "/admin/replicas")

    def kill_replica(self, shard: int, replica: int, *,
                     lose_state: bool = True) -> dict:
        """``POST /admin/kill``: crash one replica (chaos entry point)."""
        return self._request("POST", "/admin/kill",
                             {"shard": shard, "replica": replica,
                              "lose_state": lose_state})

    def revive_replica(self, shard: int, replica: int, *,
                       source: str | None = None) -> dict:
        """``POST /admin/revive``: rebuild and readmit one down replica."""
        payload = {"shard": shard, "replica": replica}
        if source is not None:
            payload["source"] = source
        return self._request("POST", "/admin/revive", payload)
