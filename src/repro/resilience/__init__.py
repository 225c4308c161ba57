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

The replica set and the fleet themselves live in :mod:`repro.serving`
since 2.0 (there is one fleet class, at every replication factor);
:class:`ReplicatedShard`, :class:`Replica` and
:class:`ReplicatedSimilarityService` are re-exported here for code written
against 1.x.
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
from repro.resilience.faults import FaultPolicy, call_with_policy
from repro.resilience.retry import RetryPolicy, RetrySchedule
from repro.serving import (
    RENDEZVOUS,
    ROUND_ROBIN,
    Replica,
    ReplicatedShard,
    ReplicatedSimilarityService,
)

__all__ = [
    "CLOSED",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExceededError",
    "FaultPolicy",
    "HALF_OPEN",
    "InjectedFaultError",
    "OPEN",
    "RENDEZVOUS",
    "ROUND_ROBIN",
    "Replica",
    "ReplicaDivergenceError",
    "ReplicaUnavailableError",
    "ReplicatedShard",
    "ReplicatedSimilarityService",
    "ResilienceError",
    "RetryPolicy",
    "RetrySchedule",
    "call_with_policy",
]
