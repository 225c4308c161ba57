"""Bounded admission queues with batching workers for the serving tier.

Each :class:`CoalescingQueue` is the server's unit of backpressure: a
bounded FIFO in front of one draining worker.  Admission is non-blocking —
a full queue raises :class:`~repro.core.exceptions.QueueFullError`
immediately, which the HTTP layer surfaces as ``429`` with a
``Retry-After`` hint — so overload sheds load at the door instead of
letting latency grow without bound.

The worker drains greedily: it waits for one item, then takes everything
else already queued (up to ``max_batch``) and executes the whole batch
through a single callable.  For queries that callable is
``service.batch(requests)`` — the request-coalescing path that computes
each distinct (signature, options) request once per batch — and for writes
it applies the queued mutations in admission order.

Execution is a job on the server's one lane — the queue is handed the lane
itself, the coroutine that runs a callable on the one-thread executor
shared by every queue and admin operation, holding the server's service
lock — so the event loop stays responsive (accepting, parsing and
*rejecting* requests) while a batch computes.  The serving structures are
not thread-safe: the lane buys overlap between parsing and computation,
never parallel index scans, and batches of all queues run in the order
their workers handed them over.
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import Awaitable, Callable, Sequence

from repro.core.exceptions import QueueFullError, ServerError
from repro.core.knobs import FINITE, INT, check
from repro.telemetry import Metrics, read

#: The server's one execution lane: runs a callable, returns its result.
Lane = Callable[[Callable[[], object]], Awaitable[object]]


class CoalescingQueue:
    """A bounded queue draining through a batch-executing worker."""

    def __init__(self, name: str,
                 execute_batch: Callable[[Sequence[object]], Sequence[object]],
                 *, capacity: int = 256, max_batch: int = 32,
                 retry_after_seconds: float = 1.0) -> None:
        self.name = name
        self.capacity = check(capacity, INT, "capacity", ServerError,
                              at_least=1)
        self.max_batch = check(max_batch, INT, "max_batch", ServerError,
                               at_least=1)
        self.retry_after_seconds = check(retry_after_seconds, FINITE,
                                         "retry_after_seconds", ServerError)
        self._execute_batch = execute_batch
        self._queue: asyncio.Queue | None = None
        self._worker: asyncio.Task | None = None
        self._lane: Lane | None = None
        self._closed = False
        self.metrics = Metrics.fromkeys(
            ("admitted", "rejected", "executed_batches", "executed_items",
             "max_batch_observed"), 0)

    # -- lifecycle -------------------------------------------------------------

    def start(self, lane: Lane) -> None:
        """Create the queue and its worker on the running event loop; the
        worker executes each batch as a job on ``lane``."""
        self._queue = asyncio.Queue(maxsize=self.capacity)
        self._lane = lane
        self._closed = False
        self._worker = asyncio.get_running_loop().create_task(
            self._drain(), name=f"queue-{self.name}")

    async def close(self, *, drain: bool = True) -> None:
        """Stop admissions; drain (or reject) what is queued; join the worker."""
        if self._queue is None:
            return
        self._closed = True
        if not drain:
            while not self._queue.empty():
                _, future = self._queue.get_nowait()
                if not future.done():
                    future.set_exception(ServerError(
                        f"server shut down before the {self.name} queue "
                        "executed this request"))
                self._queue.task_done()
        await self._queue.join()
        worker, self._worker = self._worker, None
        if worker is not None:
            worker.cancel()
            try:
                await worker
            except asyncio.CancelledError:
                pass
        self._queue = None

    # -- admission -------------------------------------------------------------

    def require_room(self, count: int) -> None:
        """Refuse ``count`` submissions unless every one of them fits now.

        No ``await`` separates this from the :meth:`submit` calls after it,
        so a group is admitted whole or leaves nothing queued to execute; one
        larger than the queue is a bad request, not backpressure.
        """
        if count > self.capacity:
            raise ServerError(f"a batch of {count} can never be admitted: "
                              f"the {self.name} queue holds at most {self.capacity}")
        if self.depth + count > self.capacity:
            self.metrics["rejected"] += 1
            raise QueueFullError(
                f"the {self.name} queue is full ({self.depth} of "
                f"{self.capacity} pending, {count} more refused)",
                retry_after_seconds=self.retry_after_seconds,
                queue=self.name)

    def submit(self, item: object) -> asyncio.Future:
        """Enqueue ``item``; returns the future of its result.

        Raises :class:`QueueFullError` without blocking when the queue is
        at capacity or the server is shutting down.
        """
        if self._queue is None or self._closed:
            raise QueueFullError(
                f"the {self.name} queue is not accepting requests "
                "(server shutting down)",
                retry_after_seconds=self.retry_after_seconds,
                queue=self.name)
        self.require_room(1)
        future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((item, future))
        self.metrics["admitted"] += 1
        return future

    # -- worker ----------------------------------------------------------------

    async def _drain(self) -> None:
        while True:
            first = await self._queue.get()
            batch = [first]
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            await self._run_batch(batch)

    async def _run_batch(self, batch: list[tuple[object, asyncio.Future]]) -> None:
        items = [item for item, _ in batch]
        try:
            results = await self._lane(partial(self._execute_batch, items))
        except Exception as error:  # noqa: BLE001 — fan the failure out
            for _, future in batch:
                if not future.done():
                    future.set_exception(error)
        else:
            for (_, future), result in zip(batch, results):
                if not future.done():
                    future.set_result(result)
        finally:
            metrics = self.metrics
            metrics["executed_batches"] += 1
            metrics["executed_items"] += len(batch)
            metrics["max_batch_observed"] = max(
                metrics["max_batch_observed"], len(batch))
            for _ in batch:
                self._queue.task_done()

    # -- observability ---------------------------------------------------------

    @property
    def depth(self) -> int:
        """How many admitted requests are waiting (current queue length)."""
        return self._queue.qsize() if self._queue is not None else 0

    def stats(self) -> dict[str, float]:
        """Admission and coalescing counters of this queue."""
        return read({"capacity": self.capacity, "depth": self.depth,
                     **self.metrics})
