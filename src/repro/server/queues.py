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

Execution is a job on the server's one lane — a one-thread executor shared
by every queue and admin operation, holding the server's service lock — so
the event loop stays responsive (accepting, parsing and *rejecting*
requests) while a batch computes.  The serving structures are not
thread-safe: the lane buys overlap between parsing and computation, never
parallel index scans, and batches of all queues run in the order their
workers handed them over.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Sequence

from repro.core.exceptions import QueueFullError, ServerError


class CoalescingQueue:
    """A bounded queue draining through a batch-executing worker."""

    def __init__(self, name: str,
                 execute_batch: Callable[[Sequence[object]], Sequence[object]],
                 *, capacity: int = 256, max_batch: int = 32,
                 retry_after_seconds: float = 1.0) -> None:
        if capacity < 1:
            raise ServerError(
                f"queue capacity must be >= 1, got {capacity}")
        if max_batch < 1:
            raise ServerError(
                f"max_batch must be >= 1, got {max_batch}")
        self.name = name
        self.capacity = int(capacity)
        self.max_batch = int(max_batch)
        self.retry_after_seconds = float(retry_after_seconds)
        self._execute_batch = execute_batch
        self._queue: asyncio.Queue | None = None
        self._worker: asyncio.Task | None = None
        self._executor = None
        self._lock = None
        self._closed = False
        self.admitted = 0
        self.rejected = 0
        self.executed_batches = 0
        self.executed_items = 0
        self.max_batch_observed = 0

    # -- lifecycle -------------------------------------------------------------

    def start(self, *, executor, lock) -> None:
        """Create the queue and its worker on the running event loop."""
        self._queue = asyncio.Queue(maxsize=self.capacity)
        self._executor = executor
        self._lock = lock
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
            self.rejected += 1
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
        self.admitted += 1
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
            results = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._execute_locked, items)
        except Exception as error:  # noqa: BLE001 — fan the failure out
            for _, future in batch:
                if not future.done():
                    future.set_exception(error)
        else:
            for (_, future), result in zip(batch, results):
                if not future.done():
                    future.set_result(result)
        finally:
            self.executed_batches += 1
            self.executed_items += len(batch)
            self.max_batch_observed = max(self.max_batch_observed, len(batch))
            for _ in batch:
                self._queue.task_done()

    def _execute_locked(self, items: list[object]) -> Sequence[object]:
        with self._lock:
            return self._execute_batch(items)

    # -- observability ---------------------------------------------------------

    @property
    def depth(self) -> int:
        """How many admitted requests are waiting (current queue length)."""
        return self._queue.qsize() if self._queue is not None else 0

    def stats(self) -> dict[str, float]:
        """Admission and coalescing counters of this queue."""
        return {
            "capacity": self.capacity,
            "depth": self.depth,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "executed_batches": self.executed_batches,
            "executed_items": self.executed_items,
            "max_batch_observed": self.max_batch_observed,
            "mean_batch_size": (self.executed_items / self.executed_batches
                                if self.executed_batches else 0.0),
        }
