"""A per-endpoint circuit breaker: closed → open → half-open → closed.

The breaker protects callers from wasting time (and the server from
wasting queue slots) on an endpoint that keeps failing: after
``failure_threshold`` consecutive failures the circuit *opens* and every
attempt is refused locally with :class:`CircuitOpenError` — carrying the
time until the breaker *half-opens* as its ``retry_after_seconds``.  In
the half-open state a bounded number of probe calls is let through; one
success closes the circuit again, one failure re-opens it for another
full reset window.

The statistics counters (a :class:`~repro.telemetry.Metrics` map) are
deliberately lock-free: ``allow`` / ``record_*`` run on the wire client's
hot path, and plain dictionary updates are atomic enough under the GIL
that the counters stay monotonically correct — the worst a race can cost
is a probe more than ``half_open_max_probes`` slipping through, which only
means one extra request against a recovering server.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.exceptions import CircuitOpenError, ResilienceError
from repro.core.knobs import FINITE, INT, check
from repro.telemetry import Metrics

#: The three breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a monotonic-clock timer.

    Parameters
    ----------
    name:
        Label used in error messages and stats (the endpoint path, for the
        wire client's per-endpoint breakers).
    failure_threshold:
        Consecutive failures that open the circuit.
    reset_timeout_seconds:
        How long the circuit stays open before half-opening.
    half_open_max_probes:
        Calls allowed through while half-open (best-effort bound).
    clock:
        Injectable monotonic clock, so tests step time instead of sleeping.
    """

    def __init__(self, name: str = "", *, failure_threshold: int = 5,
                 reset_timeout_seconds: float = 1.0,
                 half_open_max_probes: int = 1,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.failure_threshold = check(failure_threshold, INT,
                                       "failure_threshold", ResilienceError,
                                       at_least=1)
        self.reset_timeout_seconds = check(reset_timeout_seconds, FINITE,
                                           "reset_timeout_seconds",
                                           ResilienceError)
        if self.reset_timeout_seconds <= 0:
            raise ResilienceError(
                f"reset_timeout_seconds must be positive, "
                f"got {reset_timeout_seconds}")
        self.half_open_max_probes = check(half_open_max_probes, INT,
                                          "half_open_max_probes",
                                          ResilienceError, at_least=1)
        self.name = name
        self._clock = clock
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._half_open_probes = 0
        self.metrics = Metrics.fromkeys(("calls_allowed", "calls_refused",
                                         "successes", "failures", "opens"), 0)

    @property
    def state(self) -> str:
        """Current state, accounting for an elapsed reset window."""
        if self._state == OPEN and self._remaining_open() <= 0:
            return HALF_OPEN
        return self._state

    def _remaining_open(self) -> float:
        return self.reset_timeout_seconds - (self._clock() - self._opened_at)

    def allow(self) -> None:
        """Gate one call; raises :class:`CircuitOpenError` when refused."""
        if self._state == OPEN:
            remaining = self._remaining_open()
            if remaining > 0:
                self.metrics["calls_refused"] += 1
                raise CircuitOpenError(
                    f"circuit for {self.name or 'endpoint'} is open after "
                    f"{self._consecutive_failures} consecutive failures; "
                    f"half-opens in {remaining:.3f}s",
                    retry_after_seconds=max(remaining, 0.001))
            # Reset window elapsed: half-open and admit bounded probes.
            self._state = HALF_OPEN
            self._half_open_probes = 0
        if self._state == HALF_OPEN:
            if self._half_open_probes >= self.half_open_max_probes:
                self.metrics["calls_refused"] += 1
                raise CircuitOpenError(
                    f"circuit for {self.name or 'endpoint'} is half-open and "
                    f"its probe quota ({self.half_open_max_probes}) is in "
                    "flight",
                    retry_after_seconds=self.reset_timeout_seconds)
            self._half_open_probes += 1
        self.metrics["calls_allowed"] += 1

    def record_success(self) -> None:
        """A gated call succeeded: close the circuit."""
        self.metrics["successes"] += 1
        self._consecutive_failures = 0
        if self._state != CLOSED:
            self._state = CLOSED
            self._half_open_probes = 0

    def record_failure(self) -> None:
        """A gated call failed: count it; open on threshold or failed probe."""
        self.metrics["failures"] += 1
        self._consecutive_failures += 1
        if self._state == HALF_OPEN \
                or self._consecutive_failures >= self.failure_threshold:
            self._state = OPEN
            self._opened_at = self._clock()
            self._half_open_probes = 0
            self.metrics["opens"] += 1

    def stats(self) -> dict[str, float]:
        """Lock-free counters and the current state."""
        return {"state": self.state,
                "consecutive_failures": self._consecutive_failures,
                **self.metrics}

    def __repr__(self) -> str:
        return (f"CircuitBreaker(name={self.name!r}, state={self.state!r}, "
                f"failures={self._consecutive_failures}/"
                f"{self.failure_threshold})")
