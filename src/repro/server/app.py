"""The serving application behind the HTTP transport.

:class:`SimilarityServerApp` maps ``(method, path, JSON payload)`` to JSON
responses over the fleet, a
:class:`~repro.serving.service.ReplicatedSimilarityService` at any
replication factor.  The transport (:mod:`repro.server.http`) and
in-process callers go through the same
:meth:`~SimilarityServerApp.handle`.

Endpoints
---------

=======  ==================  ====================================================
Method   Path                Effect
=======  ==================  ====================================================
GET      /health             liveness + fleet identity
GET      /stats              fleet snapshot + server queue statistics
GET      /stats/shards       per-shard statistics breakdown
POST     /query              one unified-API query (threshold or top-k)
POST     /query/batch        many queries, coalesced into the batch path
POST     /upsert             index (or replace) one multiset
POST     /delete             drop one multiset
POST     /admin/persist      save every shard's index to a directory
POST     /admin/recover      reload the fleet from a persisted directory
GET      /admin/replicas     per-replica health
POST     /admin/kill         crash one replica
POST     /admin/revive       rebuild one down replica (peer copy or storage)
=======  ==================  ====================================================

Concurrency model: **one lane**.  Everything that touches the fleet —
query batches, write batches, admin operations, the ``/admin/recover``
swap, health probes, the shutdown persist — is a job on one thread
(:meth:`SimilarityServerApp._on_lane`) and runs in submission order.  Two
bounded queues feed it: ``queries`` coalesces concurrent traffic into
:meth:`ReplicatedSimilarityService.batch
<repro.serving.service.ReplicatedSimilarityService.batch>` (duplicates pay
one index scan) and ``writes`` applies upserts / deletes in admission
order — to the owning shard, or, with a
:class:`~repro.streaming.view.JoinView`, as one
:class:`~repro.streaming.changes.ChangeBatch` that reaches the fleet
through the view's serving subscription (the pair set stays exact).  A
full queue answers ``429`` with a ``Retry-After`` hint — admission control,
not unbounded latency.  One read skips the lane: a single ``/query`` whose
answer every shard has cached is returned on the event loop when the lane
is idle (:meth:`SimilarityServerApp._read_on_loop`) — the same answer and
cache accounting; :attr:`SimilarityServerApp.lock`, held by every lane job,
is how the loop tests for "idle" without ever blocking.

Graceful degradation (PR 8): with ``request_timeout_seconds`` set, a
request that cannot be answered inside its deadline fails *crisply* with
``504 deadline_exceeded`` instead of hanging.  With ``brownout_queue_depth``
set, a query admitted while the queue is at least that deep is *degraded*
rather than rejected — top-k requests are truncated to
``brownout_topk_cap``, threshold requests are raised to
``brownout_threshold_floor`` — and the response carries ``"degraded":
true`` so clients know the answer is a (still exact) truncation of the full
one.  With ``health_check_interval_seconds`` set, a background loop ejects
broken replicas and readmits down ones that still have a healthy peer.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

from repro.core.exceptions import (
    DeadlineExceededError,
    ReproError,
    ServerError,
    ServingError,
)
from repro.serving.api import (
    THRESHOLD_KIND,
    TOPK_KIND,
    QueryOptions,
    QueryRequest,
    multiset_from_wire,
    requests_from_batch_payload,
)
from repro.serving.service import ReplicatedSimilarityService
from repro.server.errors import (
    BAD_REQUEST,
    METHOD_NOT_ALLOWED,
    NOT_FOUND,
    error_body,
    simple_error,
)
from repro.server.queues import CoalescingQueue

_UPSERT = "upsert"
_DELETE = "delete"

logger = logging.getLogger(__name__)


def _log_orphan_failure(task: asyncio.Task) -> None:
    """Consume a deadline-orphaned task's outcome; log a late failure.

    Without this, a shielded task that fails after its caller timed out
    leaves asyncio's "Task exception was never retrieved" as the only
    trace of the failure.
    """
    if task.cancelled():
        return
    error = task.exception()
    if error is not None:
        logger.warning("deadline-orphaned request failed late: %r", error)


@dataclass(frozen=True)
class ServerConfig:
    """Tuning of the serving tier's queues and admission control."""

    #: Bounded depth of the query admission queue.
    query_queue_capacity: int = 256
    #: Most queries coalesced into one ``service.batch`` execution.
    query_max_batch: int = 32
    #: Bounded depth of the write admission queue.
    write_queue_capacity: int = 256
    #: Most writes applied per drained batch.
    write_max_batch: int = 64
    #: Backoff hint sent with 429 responses, in seconds.
    retry_after_seconds: float = 1.0
    #: Directory to persist every shard into during graceful shutdown.
    persist_on_shutdown: str | None = None
    #: Per-request execution deadline; a queued request not answered in
    #: time fails with 504 ``deadline_exceeded`` (``None``: no timeout).
    request_timeout_seconds: float | None = None
    #: Query-queue depth at which the server *browns out*: admitted
    #: queries degrade (see ``brownout_topk_cap`` /
    #: ``brownout_threshold_floor``) instead of being rejected
    #: (``None``: never degrade).
    brownout_queue_depth: int | None = None
    #: Under brownout, top-k requests are truncated to at most this k.
    brownout_topk_cap: int = 3
    #: Under brownout, threshold requests below this floor are raised to
    #: it (``None``: thresholds are never touched).
    brownout_threshold_floor: float | None = None
    #: Period of the replica health-check loop (``None``: no loop).
    health_check_interval_seconds: float | None = None

    def __post_init__(self) -> None:
        for name in ("query_queue_capacity", "query_max_batch",
                     "write_queue_capacity", "write_max_batch"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ServerError(f"{name} must be an int >= 1, got {value!r}")
        if self.retry_after_seconds <= 0:
            raise ServerError(
                f"retry_after_seconds must be positive, "
                f"got {self.retry_after_seconds!r}")
        for name in ("request_timeout_seconds",
                     "health_check_interval_seconds"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ServerError(
                    f"{name} must be positive when set, got {value!r}")
        if self.brownout_queue_depth is not None \
                and self.brownout_queue_depth < 1:
            raise ServerError(
                f"brownout_queue_depth must be >= 1 when set, "
                f"got {self.brownout_queue_depth!r}")
        if self.brownout_topk_cap < 1:
            raise ServerError(
                f"brownout_topk_cap must be >= 1, "
                f"got {self.brownout_topk_cap!r}")


class SimilarityServerApp:
    """The serving application: routes, queues, and lifecycle.

    Parameters
    ----------
    service:
        The fleet to serve.
    view:
        Optional :class:`~repro.streaming.view.JoinView`.  When given, the
        app attaches the service to the view (loading it when empty) and
        routes every write through the view's exact incremental
        maintenance; the service then always serves the view's pair-set
        state — at any replication factor, because the subscription
        writes through the fleet's fan-in.  Without one, writes apply
        directly to the owning shard.
    config:
        Queue and admission tuning; defaults are test-friendly.
    """

    def __init__(self, service: ReplicatedSimilarityService, *,
                 view=None, config: ServerConfig | None = None) -> None:
        self.service = service
        self.config = config or ServerConfig()
        self.view = view
        self.lock = threading.RLock()
        self._subscription = None
        if view is not None:
            from repro.streaming.subscribers import attach_serving

            # warm=False: re-warming every member per write batch is the
            # bootstrap-refresh pattern, not a serving-tier default.
            self._subscription = attach_serving(view, service, warm=False)
        self._executor: ThreadPoolExecutor | None = None
        self._query_queue: CoalescingQueue | None = None
        self._write_queue: CoalescingQueue | None = None
        self._health_task: asyncio.Task | None = None
        self._started = False
        self._closing = False
        self.requests_served = 0
        self.degraded_served = 0
        self.deadline_failures = 0
        self.last_health_report: dict | None = None

    # -- lifecycle -------------------------------------------------------------

    async def startup(self) -> None:
        """Create the lane, the two queues and their workers on this loop."""
        if self._started:
            return
        config = self.config
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-fleet")
        self._query_queue = CoalescingQueue(
            "queries", self._execute_queries,
            capacity=config.query_queue_capacity,
            max_batch=config.query_max_batch,
            retry_after_seconds=config.retry_after_seconds)
        self._write_queue = CoalescingQueue(
            "writes", (self._execute_direct_writes if self.view is None
                       else self._execute_view_writes),
            capacity=config.write_queue_capacity,
            max_batch=config.write_max_batch,
            retry_after_seconds=config.retry_after_seconds)
        for queue in (self._query_queue, self._write_queue):
            queue.start(executor=self._executor, lock=self.lock)
        if config.health_check_interval_seconds is not None:
            self._health_task = asyncio.get_running_loop().create_task(
                self._health_loop(config.health_check_interval_seconds))
        self._started = True
        self._closing = False

    async def _health_loop(self, interval: float) -> None:
        """Periodically eject broken replicas and readmit recovered ones."""
        while True:
            await asyncio.sleep(interval)
            try:
                self.last_health_report = await self._on_lane(
                    lambda: self.service.health_check())
            except asyncio.CancelledError:
                raise
            except Exception as error:  # noqa: BLE001 — the loop must survive
                self.last_health_report = {"error": str(error)}

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop admissions, drain (or reject) queues, optionally persist."""
        if not self._started:
            return
        self._closing = True
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        for queue in (self._query_queue, self._write_queue):
            await queue.close(drain=drain)
        if self.config.persist_on_shutdown is not None:
            await self._on_lane(lambda: self.service.persist(
                self.config.persist_on_shutdown))
        if self._subscription is not None:
            self._subscription.detach()
            self._subscription = None
        self._executor.shutdown(wait=True)
        self._executor = self._query_queue = self._write_queue = None
        self._started = False

    # -- queue executors (lane jobs) -------------------------------------------

    def _execute_queries(self, requests: Sequence[QueryRequest]):
        return self.service.batch(list(requests))

    def _execute_direct_writes(self, writes: Sequence[tuple]):
        acks = []
        for kind, payload in writes:
            if kind == _UPSERT:
                replaced = payload.id in self.service
                self.service.add(payload, replace=replaced)
                acks.append({"indexed": payload.id, "replaced": replaced})
            else:
                self.service.remove(payload)
                acks.append({"deleted": payload})
        return acks

    def _execute_view_writes(self, writes: Sequence[tuple]):
        from repro.streaming.changes import Change, ChangeBatch

        changes = []
        for kind, payload in writes:
            if kind == _UPSERT:
                changes.append(Change.upsert(payload))
            else:
                changes.append(Change.delete(payload))
        deltas = self.view.apply(ChangeBatch(changes))
        acks = []
        for kind, payload in writes:
            if kind == _UPSERT:
                acks.append({"indexed": payload.id,
                             "pair_deltas": len(deltas)})
            else:
                acks.append({"deleted": payload, "pair_deltas": len(deltas)})
        return acks

    # -- dispatch --------------------------------------------------------------

    async def handle(self, method: str, path: str,
                     payload: object | None) -> tuple[int, dict, dict]:
        """Serve one request; returns ``(status, body, extra_headers)``.

        ``payload`` is the decoded JSON body (``None`` for body-less
        requests).  Every failure returns the structured error body of
        :mod:`repro.server.errors`; nothing raises across this boundary
        except transport-level bugs.
        """
        self.requests_served += 1
        try:
            return await self._route(method, path, payload)
        except ReproError as error:
            status, body = error_body(error)
            headers = {}
            # Every backpressure-shaped failure (429 queue_full, 503
            # replica_unavailable / circuit_open, 504 deadline_exceeded)
            # carries its backoff hint as a Retry-After header too.
            retry_after = body["error"].get("retry_after_seconds")
            if status == 429 and retry_after is None:
                retry_after = 1.0
            if retry_after is not None:
                headers["Retry-After"] = f"{max(retry_after, 0.001):.3f}"
            return status, body, headers
        except Exception as error:  # noqa: BLE001 — the wire must answer
            status, body = error_body(error)
            return status, body, {}

    async def _route(self, method: str, path: str,
                     payload: object | None) -> tuple[int, dict, dict]:
        route = self._ROUTES.get(path) \
            or self._ROUTES.get(path.rstrip("/") or "/")
        if route is None:
            return *simple_error(NOT_FOUND,
                                 f"no such endpoint: {path!r}"), {}
        expected, handler = route
        if method != expected:
            return *simple_error(
                METHOD_NOT_ALLOWED,
                f"{path} expects {expected}, got {method}"), {"Allow": expected}
        if expected == "POST" and not isinstance(payload, dict):
            return *simple_error(
                BAD_REQUEST, f"{path} needs a JSON object body, got "
                             f"{type(payload).__name__}"), {}
        return await handler(self, payload)

    def _require_started(self) -> None:
        if not self._started or self._closing:
            raise ServerError("the server is not accepting requests "
                              "(not started or shutting down)")

    async def _with_deadline(self, awaitable, what: str):
        """Await under the configured per-request deadline, if any.

        On expiry the admitted work is *not* cancelled (the coalesced batch
        may be answering other callers); only this caller's wait ends, with
        a ``504 deadline_exceeded`` carrying the standard backoff hint.
        The orphaned task's eventual outcome is still consumed (and a late
        failure logged) so it never dies unobserved.
        """
        timeout = self.config.request_timeout_seconds
        if timeout is None:
            return await awaitable
        task = asyncio.ensure_future(awaitable)
        try:
            return await asyncio.wait_for(asyncio.shield(task), timeout)
        except asyncio.TimeoutError:
            self.deadline_failures += 1
            task.add_done_callback(_log_orphan_failure)
            raise DeadlineExceededError(
                f"{what} was not answered within {timeout}s",
                deadline_seconds=timeout,
                retry_after_seconds=self.config.retry_after_seconds) from None

    def _browned_out(self) -> bool:
        """Whether the query queue is deep enough to trigger degradation."""
        depth = self.config.brownout_queue_depth
        return (depth is not None and self._query_queue is not None
                and self._query_queue.depth >= depth)

    def _maybe_degrade(self, request: QueryRequest) -> tuple[QueryRequest, bool]:
        """Under brownout, shrink a request so its answer costs less.

        A degraded answer is always a *truncation* of the full answer —
        top-k capped to ``brownout_topk_cap``, thresholds raised to
        ``brownout_threshold_floor`` — never an approximation, so exactness
        guarantees hold; the response just says ``degraded: true``.
        """
        if not self._browned_out():
            return request, False
        options = request.options
        if options.kind == TOPK_KIND \
                and options.k > self.config.brownout_topk_cap:
            degraded = QueryOptions.for_topk(self.config.brownout_topk_cap)
        elif options.kind == THRESHOLD_KIND \
                and self.config.brownout_threshold_floor is not None \
                and options.threshold < self.config.brownout_threshold_floor:
            degraded = QueryOptions.for_threshold(
                self.config.brownout_threshold_floor)
        else:
            return request, False
        self.degraded_served += 1
        return replace(request, options=degraded), True

    @staticmethod
    def _parse(decode, *arguments):
        """Run a wire decoder, mapping its failures to 400 (``server_error``).

        The codecs raise :class:`ServingError` (mapped to 409, the status of
        execution-time state conflicts); a payload that cannot even be
        decoded is a *bad request*, so the parse boundary re-raises as
        :class:`ServerError`.
        """
        try:
            return decode(*arguments)
        except ServingError as error:
            raise ServerError(str(error)) from None

    async def _on_lane(self, operation):
        """Run ``operation`` as the lane's next job, holding :attr:`lock`.

        The event loop never blocks on the lock itself — a frozen loop can
        neither answer ``/health`` nor shed load with 429s.
        """
        def locked():
            with self.lock:
                return operation()

        return await asyncio.get_running_loop().run_in_executor(
            self._executor, locked)

    def _read_stats(self, reader):
        """Read fleet statistics without taking the service lock.

        Observability must stay answerable while a batch holds the lock
        (that is precisely when operators look at ``/stats``), so reads are
        lock-free; a concurrent write can make a dict iteration throw
        ``RuntimeError``, in which case the read simply retries.
        """
        for _attempt in range(8):
            try:
                return reader()
            except RuntimeError:
                continue
        raise ServerError(
            "fleet statistics are churning faster than they can be read; "
            "retry")

    # -- endpoint handlers -----------------------------------------------------

    async def _handle_health(self, payload) -> tuple[int, dict, dict]:
        body = self._read_stats(lambda: {
            "status": "ok",
            "measure": self.service.measure.name,
            "num_shards": self.service.num_shards,
            "replication_factor": self.service.replication_factor,
            "indexed_multisets": len(self.service),
            "mode": "view" if self.view is not None else "direct"})
        return 200, body, {}

    async def _handle_stats(self, payload) -> tuple[int, dict, dict]:
        snapshot = self._read_stats(self.service.snapshot)
        snapshot["server"] = self.server_stats()
        return 200, snapshot, {}

    async def _handle_shard_stats(self, payload) -> tuple[int, dict, dict]:
        per_node = self._read_stats(self.service.per_node_stats)
        return 200, {"per_node": per_node}, {}

    def _read_on_loop(self, request: QueryRequest):
        """Answer a single query here, on the event loop, or ``None``.

        Taken exactly when the code observes that it is an O(shards)
        memory read of a quiescent fleet: the query queue is empty (so no
        brownout, and nobody queued is overtaken); :attr:`lock` — held by
        every lane job: query and write batches, admin operations, health
        probes — is free, tried without ever blocking the loop on it; and
        :meth:`~repro.serving.service.ReplicatedSimilarityService.cached`
        finds every shard's answer cached with no fault seam in the way
        (its docstring carries the exactness and accounting argument).
        """
        if self._query_queue.depth or not self.lock.acquire(blocking=False):
            return None
        try:
            return self.service.cached(request)
        finally:
            self.lock.release()

    async def _handle_query(self, payload: dict) -> tuple[int, dict, dict]:
        self._require_started()
        request = self._parse(QueryRequest.from_json_dict, payload)
        degraded = False
        response = self._read_on_loop(request)
        if response is None:
            request, degraded = self._maybe_degrade(request)
            response = await self._with_deadline(
                self._query_queue.submit(request), "query")
        body = response.to_json_dict()
        if degraded:
            body["degraded"] = True
        return 200, body, {}

    async def _handle_query_batch(self, payload: dict) -> tuple[int, dict, dict]:
        self._require_started()
        requests = self._parse(requests_from_batch_payload, payload)
        degraded_any = False
        futures = []
        # Admitted whole or refused whole, then submitted individually: the
        # coalescing worker re-batches them (together with any concurrent
        # traffic) into single executions.
        self._query_queue.require_room(len(requests))
        for request in requests:
            request, degraded = self._maybe_degrade(request)
            degraded_any = degraded_any or degraded
            futures.append(self._query_queue.submit(request))
        responses = await self._with_deadline(
            asyncio.gather(*futures), "query batch")
        body = {"responses": [response.to_json_dict()
                              for response in responses]}
        if degraded_any:
            body["degraded"] = True
        return 200, body, {}

    async def _handle_upsert(self, payload: dict) -> tuple[int, dict, dict]:
        self._require_started()
        if "multiset" not in payload:
            raise ServerError("upsert needs a 'multiset' field")
        multiset = self._parse(multiset_from_wire, payload["multiset"])
        ack = await self._with_deadline(
            self._write_queue.submit((_UPSERT, multiset)), "upsert")
        return 200, ack, {}

    async def _handle_delete(self, payload: dict) -> tuple[int, dict, dict]:
        self._require_started()
        if "id" not in payload:
            raise ServerError("delete needs an 'id' field")
        ack = await self._with_deadline(
            self._write_queue.submit((_DELETE, payload["id"])), "delete")
        return 200, ack, {}

    async def _handle_persist(self, payload: dict) -> tuple[int, dict, dict]:
        self._require_started()
        directory = payload.get("directory")
        if not isinstance(directory, str) or not directory:
            raise ServerError("admin/persist needs a 'directory' string")
        paths = await self._on_lane(lambda: self.service.persist(directory))
        return 200, {"persisted": paths,
                     "num_shards": self.service.num_shards}, {}

    async def _handle_recover(self, payload: dict) -> tuple[int, dict, dict]:
        if self.view is not None:
            raise ServerError(
                "admin/recover is not available when writes flow through a "
                "JoinView; recover the view (JoinView.recover) and restart "
                "the server on it instead")
        self._require_started()
        directory = payload.get("directory")
        if not isinstance(directory, str) or not directory:
            raise ServerError("admin/recover needs a 'directory' string")

        def swap():
            # One ordinary lane job: batches ahead of it ran on the old
            # fleet, every later one reads ``self.service`` afresh (so routes
            # by the new ``shard_for``), and a ``recover`` that raises leaves
            # the old fleet serving.  The running fleet's tuning survives.
            running = self.service
            self.service = ReplicatedSimilarityService.recover(
                directory,
                replication_factor=running.replication_factor,
                cache_capacity=running.cache_capacity,
                read_strategy=running.read_strategy,
                fault_policy_factory=running.fault_policy_factory)
            return {"recovered": True,
                    "num_shards": self.service.num_shards,
                    "indexed_multisets": len(self.service)}

        return 200, await self._on_lane(swap), {}

    # -- replica administration ------------------------------------------------

    @staticmethod
    def _replica_address(payload: dict) -> tuple[int, int]:
        shard = payload.get("shard")
        replica = payload.get("replica")
        for name, value in (("shard", shard), ("replica", replica)):
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                raise ServerError(
                    f"admin replica endpoints need an int {name!r} >= 0, "
                    f"got {value!r}")
        return shard, replica

    async def _handle_replicas(self, payload) -> tuple[int, dict, dict]:
        body = self._read_stats(lambda: {
            "replication_factor": self.service.replication_factor,
            "replicas": self.service.replica_health(),
            "last_health_report": self.last_health_report,
        })
        return 200, body, {}

    async def _handle_kill(self, payload: dict) -> tuple[int, dict, dict]:
        self._require_started()
        shard, replica = self._replica_address(payload)
        lose_state = payload.get("lose_state", True)
        if not isinstance(lose_state, bool):
            raise ServerError(f"admin/kill 'lose_state' must be a JSON "
                              f"boolean when given, got {lose_state!r}")
        await self._on_lane(lambda: self.service.kill_replica(
            shard, replica, lose_state=lose_state))
        return 200, {"killed": {"shard": shard, "replica": replica,
                                "lose_state": lose_state}}, {}

    async def _handle_revive(self, payload: dict) -> tuple[int, dict, dict]:
        self._require_started()
        shard, replica = self._replica_address(payload)
        source = payload.get("source")
        if source is not None and not isinstance(source, str):
            raise ServerError(
                f"admin/revive 'source' must be a persisted directory (or "
                f"shard database) path when given, got {source!r}")
        await self._on_lane(lambda: self.service.recover_replica(
            shard, replica, source=source))
        return 200, {"revived": {"shard": shard, "replica": replica,
                                 "source": source}}, {}

    #: path -> (method, handler): the whole routing decision, built once.
    _ROUTES = {
        "/health": ("GET", _handle_health),
        "/stats": ("GET", _handle_stats),
        "/stats/shards": ("GET", _handle_shard_stats),
        "/query": ("POST", _handle_query),
        "/query/batch": ("POST", _handle_query_batch),
        "/upsert": ("POST", _handle_upsert),
        "/delete": ("POST", _handle_delete),
        "/admin/persist": ("POST", _handle_persist),
        "/admin/recover": ("POST", _handle_recover),
        "/admin/replicas": ("GET", _handle_replicas),
        "/admin/kill": ("POST", _handle_kill),
        "/admin/revive": ("POST", _handle_revive),
    }

    # -- observability ---------------------------------------------------------

    def server_stats(self) -> dict:
        """Queue depths and admission counters (no queues until started)."""
        return {
            "mode": "view" if self.view is not None else "direct",
            "accepting": self._started and not self._closing,
            "requests_served": self.requests_served,
            "degraded_served": self.degraded_served,
            "deadline_failures": self.deadline_failures,
            "browned_out": self._browned_out(),
            "queues": {queue.name: queue.stats()
                       for queue in (self._query_queue, self._write_queue)
                       if queue is not None},
        }
