"""The benchmark's own load generator: closed and open loop over one
keep-alive connection, in slices bracketed by reference-kernel samples.

``repro.server.loadgen`` is not used: its open loop times a request from the
instant it is sent and opens a thread and a connection per request.  Here one
thread drives one kept-alive :class:`~repro.server.SimilarityClient`, so the
generator and the server take turns on the benchmark's one vCPU and never
compete for it.  The open loop times every operation *from the instant it was
due*, so a wait behind the operation before it counts, and reports how late
each send was.

Load runs in slices of :data:`SLICE_SECONDS`.  Between slices the generator
times the reference kernel (``speed.py``); a slice's latencies are scaled to
reference speed by the samples either side of it.  The open loop's schedule
clock stands still while the kernel runs, so a sample delays nothing, and
otherwise runs at the speed the kernel last ran at.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.exceptions import ReproError
from repro.resilience import RetryPolicy
from repro.server import RemoteServerError, SimilarityClient

from benchmarks.e2e.speed import REFERENCE_SECONDS, kernel_seconds, scale

#: HTTP statuses that mean "refused", not "broken".
REFUSED_STATUSES = frozenset({429, 503, 504})
#: Load time between two reference-kernel samples.
SLICE_SECONDS = 0.2


def connect(host: str, port: int) -> SimilarityClient:
    """A client that never retries: one operation is one attempt."""
    return SimilarityClient(host, port, timeout=30.0,
                            retry_policy=RetryPolicy(max_attempts=1))


@dataclass
class Op:
    """One operation of a load phase."""

    #: ``"query"``, ``"batch"``, ``"upsert"`` or ``"delete"``.
    kind: str
    #: QueryRequest, list of QueryRequest, Multiset or multiset id.
    payload: object
    #: Open loop: seconds after the phase starts at which the op is due.
    due: float = 0.0


@dataclass
class Outcome:
    """What happened to one operation."""

    op: Op
    #: The op's index in the phase's op list (the run id of its span).
    position: int
    #: ``"ok"``, ``"refused"`` (429/503/504) or ``"failed"``.
    status: str
    #: Seconds from the due time (open loop) or the send (closed loop).
    latency: float
    #: The slice the op ran in.
    slice: int
    #: Open loop: seconds between the due time and the actual send.
    late: float = 0.0
    response: object = None


@dataclass
class Phase:
    """The outcomes of one load phase, slice by slice."""

    outcomes: list[Outcome] = field(default_factory=list)
    #: Seconds of load in each slice (kernel samples excluded).
    slice_seconds: list[float] = field(default_factory=list)
    #: Kernel samples: ``kernel[i]`` before slice ``i``, ``kernel[i + 1]``
    #: after it.
    kernel: list[float] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        """Seconds of load, as the clock read them."""
        return sum(self.slice_seconds)

    @property
    def elapsed_at_reference(self) -> float:
        """Seconds of load, each slice scaled to reference speed."""
        return sum(seconds * self.scale(index)
                   for index, seconds in enumerate(self.slice_seconds))

    def scale(self, index: int) -> float:
        """The factor that takes slice ``index`` to reference speed."""
        return scale(self.kernel[index], self.kernel[index + 1])

    def counts(self) -> dict[str, int]:
        """Sent / succeeded / failed / refused."""
        tally = {"sent": len(self.outcomes), "ok": 0, "failed": 0,
                 "refused": 0}
        for outcome in self.outcomes:
            tally[outcome.status] += 1
        return tally

    def latencies(self, *kinds: str, raw: bool = False) -> list[float]:
        """Latencies in seconds of the successful operations of ``kinds``,
        at reference speed unless ``raw``."""
        return [outcome.latency * (1.0 if raw else self.scale(outcome.slice))
                for outcome in self.outcomes
                if outcome.status == "ok" and outcome.op.kind in kinds]


def _send(client: SimilarityClient, op: Op, position: int,
          span) -> tuple[str, object]:
    if span is not None:
        with span(f"client.{op.kind}", position):
            return _send(client, op, position, None)
    try:
        if op.kind == "query":
            return "ok", client.query(op.payload)
        if op.kind == "batch":
            return "ok", client.query_batch(op.payload)
        if op.kind == "upsert":
            return "ok", client.upsert(op.payload)
        return "ok", client.delete(op.payload)
    except RemoteServerError as error:
        status = "refused" if error.status in REFUSED_STATUSES else "failed"
        return status, error
    except ReproError as error:
        return "failed", error


def closed_loop(host: str, port: int, ops: Sequence[Op], *, seconds: float,
                span=None) -> Phase:
    """One client sends its next op when the previous one answers.

    Stops at the deadline or when ``ops`` is exhausted.  ``span`` optionally
    wraps every send in a trace span (``span(name, run_id)`` context manager).
    """
    phase = Phase(kernel=[kernel_seconds()])
    deadline = time.perf_counter() + seconds
    position = 0
    with connect(host, port) as client:
        while position < len(ops) and time.perf_counter() < deadline:
            slice_started = time.perf_counter()
            slice_ends = min(slice_started + SLICE_SECONDS, deadline)
            index = len(phase.slice_seconds)
            while position < len(ops):
                started = time.perf_counter()
                if started >= slice_ends:
                    break
                status, response = _send(client, ops[position], position, span)
                phase.outcomes.append(Outcome(
                    ops[position], position, status,
                    time.perf_counter() - started, index, response=response))
                position += 1
            phase.slice_seconds.append(time.perf_counter() - slice_started)
            phase.kernel.append(kernel_seconds())
    return phase


def open_loop(host: str, port: int, schedule: Sequence[Op], *, seconds: float,
              span=None) -> Phase:
    """Send every op at its due time, or as soon after as the connection is
    free; ops travel in schedule order, so writes to one id stay in order.

    The schedule's clock runs at the host's speed: while the reference
    kernel takes twice :data:`~benchmarks.e2e.speed.REFERENCE_SECONDS`, a
    schedule second lasts two.  The server is thus offered the same load
    relative to what it can do whatever state the host is in; at a fixed
    wall-clock rate a slow spell raises the utilisation, and the waiting
    that latency from the due time includes grows much faster than the
    kernel slows.  Stops after ``seconds`` or at the end of ``schedule``.
    """
    phase = Phase(kernel=[kernel_seconds()])
    deadline = time.perf_counter() + seconds
    position = 0
    clock = 0.0  # schedule seconds gone by at the start of the slice
    with connect(host, port) as client:
        while position < len(schedule) and time.perf_counter() < deadline:
            recent = phase.kernel[-3:]
            dilation = sum(recent) / len(recent) / REFERENCE_SECONDS
            index = len(phase.slice_seconds)
            slice_started = done = time.perf_counter()
            while (position < len(schedule)
                   and done - slice_started < SLICE_SECONDS):
                op = schedule[position]
                due = slice_started + (op.due - clock) * dilation
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                status, response = _send(client, op, position, span)
                done = time.perf_counter()
                phase.outcomes.append(Outcome(
                    op, position, status, done - due, index,
                    late=sent - due, response=response))
                position += 1
            phase.slice_seconds.append(done - slice_started)
            clock += (done - slice_started) / dilation
            phase.kernel.append(kernel_seconds())
    return phase
