"""Seeded fault injection for replicas and wire calls.

A :class:`FaultPolicy` is a deterministic little chaos monkey: armed with a
seed and a set of probabilities, it decides before every intercepted call
whether to inject latency, raise an artificial failure, simulate a timeout,
or crash the target permanently (until revived).  The replica layer
(:mod:`repro.resilience.replica`) consults the policy before delegating to
its :class:`~repro.serving.node.ServingNode`, and the wire client
(:class:`~repro.server.client.SimilarityClient`) consults one before each
transport attempt — the same seam covers both "the node is slow/broken"
and "the network is slow/broken".

Faults fire *before* the protected call executes, so an injected failure
never leaves a replica half-mutated: a write that draws an error simply
never reached that replica, which is exactly the failure model the
recovery path (peer rebuild) is built for.

Determinism matters more than realism here: the chaos suite replays
Hypothesis-found failures, so the same seed and call sequence must inject
the same faults every run.
"""

from __future__ import annotations

import random
import threading
import time

from repro.core.exceptions import (
    DeadlineExceededError,
    InjectedFaultError,
    ReplicaUnavailableError,
    ResilienceError,
)
from repro.core.knobs import FINITE, INT, OPTIONAL_INT, check
from repro.telemetry import Metrics


class FaultPolicy:
    """Decides, per intercepted call, which fault (if any) to inject.

    Parameters
    ----------
    seed:
        Seeds the private RNG; the injected fault sequence is a pure
        function of the seed and the call sequence.
    latency_seconds:
        Sleep injected before matched calls (models slow disks/networks;
        the sleep releases the GIL, so injected latency also makes replica
        parallelism measurable from threads).
    latency_probability:
        Fraction of matched calls that pay the latency.
    error_probability:
        Fraction of matched calls raising :class:`InjectedFaultError`.
    timeout_probability:
        Fraction of matched calls raising :class:`DeadlineExceededError`
        (models a call that gave up waiting rather than one that failed).
    crash_after_calls:
        When set, the policy counts matched calls and — once the count
        exceeds this — every further call raises
        :class:`ReplicaUnavailableError` until :meth:`revive` is called:
        the crash-on-nth-call discipline of the chaos suite.
    operations:
        Restrict injection to these operation names (``None`` = all).
        Unmatched operations still count nothing and never fault.
    """

    def __init__(self, *, seed: int = 0, latency_seconds: float = 0.0,
                 latency_probability: float = 1.0,
                 error_probability: float = 0.0,
                 timeout_probability: float = 0.0,
                 crash_after_calls: int | None = None,
                 operations: frozenset[str] | None = None) -> None:
        self.latency_seconds = check(latency_seconds, FINITE,
                                     "latency_seconds", ResilienceError,
                                     at_least=0)
        for name, value in (("latency_probability", latency_probability),
                            ("error_probability", error_probability),
                            ("timeout_probability", timeout_probability)):
            value = check(value, FINITE, name, ResilienceError, at_least=0)
            if value > 1:
                raise ResilienceError(
                    f"{name} must be <= 1, got {value!r}")
            setattr(self, name, value)
        self.crash_after_calls = check(crash_after_calls, OPTIONAL_INT,
                                       "crash_after_calls", ResilienceError,
                                       at_least=0)
        self.operations = frozenset(operations) if operations else None
        self._rng = random.Random(check(seed, INT, "seed", ResilienceError))
        self._lock = threading.Lock()
        self.metrics = Metrics.fromkeys(
            ("calls", "injected_latency_calls", "injected_errors",
             "injected_timeouts"), 0)
        self._crashed = False

    @property
    def crashed(self) -> bool:
        """Whether the crash-on-nth-call trigger has fired (and not revived)."""
        return self._crashed

    def crash(self) -> None:
        """Crash the target immediately (every further call fails)."""
        self._crashed = True

    def revive(self) -> None:
        """Clear the crashed state (process restart).

        A fired crash-on-nth-call trigger is consumed: the revived target
        would otherwise re-crash on its very next call, making recovery
        untestable.
        """
        self._crashed = False
        if (self.crash_after_calls is not None
                and self.metrics["calls"] > self.crash_after_calls):
            self.crash_after_calls = None

    def on_call(self, operation: str) -> None:
        """Intercept one call: sleep, raise, or pass through.

        Raises before the protected call executes, so injected failures
        never leave the target half-mutated.
        """
        if self.operations is not None and operation not in self.operations:
            return
        metrics = self.metrics
        with self._lock:
            metrics["calls"] += 1
            calls = metrics["calls"]
            if (self.crash_after_calls is not None
                    and calls > self.crash_after_calls):
                self._crashed = True
            if self._crashed:
                raise ReplicaUnavailableError(
                    f"injected crash: {operation} call {calls} is past "
                    f"the crash-after-{self.crash_after_calls} trigger")
            draw = self._rng.random
            sleep_for = 0.0
            if (self.latency_seconds > 0
                    and draw() < self.latency_probability):
                metrics["injected_latency_calls"] += 1
                sleep_for = self.latency_seconds
            if self.error_probability > 0 and draw() < self.error_probability:
                metrics["injected_errors"] += 1
                raise InjectedFaultError(
                    f"injected failure on {operation} (call {calls})")
            if (self.timeout_probability > 0
                    and draw() < self.timeout_probability):
                metrics["injected_timeouts"] += 1
                raise DeadlineExceededError(
                    f"injected timeout on {operation} (call {calls})")
        # Sleep outside the lock: concurrent callers must overlap their
        # injected latency, not serialize on the policy.
        if sleep_for > 0:
            time.sleep(sleep_for)

    def stats(self) -> dict[str, float]:
        """Counters of what the policy has injected so far."""
        return {**self.metrics, "crashed": self._crashed}

    def __repr__(self) -> str:
        return (f"FaultPolicy(calls={self.metrics['calls']}, "
                f"latency={self.latency_seconds}s, "
                f"error_p={self.error_probability}, "
                f"crashed={self._crashed})")
