"""Fault tolerance for the serving tier: injection, retries, breakers.

The serving fleet makes one promise — **as long as every shard keeps one
healthy replica, answers are bit-identical to an unsharded index and no
fault is visible to the caller** — and this package is the toolkit that
tests and defends it:

* :mod:`repro.resilience.faults` — :class:`FaultPolicy`, seeded injectable
  latency / errors / timeouts / crash-on-nth-call in front of any node or
  wire call — the chaos seam the Hypothesis suite and the availability
  benchmark drive;
* :mod:`repro.resilience.retry` — :class:`RetryPolicy` /
  :class:`RetrySchedule`, deadlines and capped exponential backoff with
  seeded jitter honoring server ``Retry-After`` hints;
* :mod:`repro.resilience.breaker` — :class:`CircuitBreaker`, the
  closed/open/half-open per-endpoint breaker the wire client mounts.

Nothing here imports a tier above :mod:`repro.core` (the counters are
:mod:`repro.telemetry` maps, a module that imports nothing): the replica
set and the fleet live in :mod:`repro.serving` and are handed a policy by
their caller.
"""

from repro.core.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    InjectedFaultError,
    ReplicaDivergenceError,
    ReplicaUnavailableError,
    ResilienceError,
)
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.resilience.faults import FaultPolicy
from repro.resilience.retry import RetryPolicy

__all__ = [
    "CLOSED",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExceededError",
    "FaultPolicy",
    "HALF_OPEN",
    "InjectedFaultError",
    "OPEN",
    "ReplicaDivergenceError",
    "ReplicaUnavailableError",
    "ResilienceError",
    "RetryPolicy",
]
