"""Exception hierarchy for the repro package.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch a single base class.  Subsystems define narrower
subclasses (for example :class:`MemoryBudgetExceeded` raised by the
MapReduce simulator) so tests and the experiment harness can assert on the
precise failure mode the paper describes (e.g. the Lookup algorithm not
being able to load its lookup table on the realistic dataset).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the repro package."""


class InvalidMultisetError(ReproError):
    """Raised when a multiset is constructed with invalid contents.

    Multiplicities must be positive integers and element identifiers must be
    hashable.  Zero or negative multiplicities are rejected rather than
    silently dropped so that data-loading bugs surface early.
    """


class InvalidVectorError(ReproError):
    """Raised when a sparse vector is constructed with invalid contents."""


class MeasureNotApplicableError(ReproError):
    """Raised when a similarity measure cannot be evaluated by a framework.

    The V-SMART-Join framework only supports Nominal Similarity Measures
    whose partial results are unilateral or conjunctive (paper section 3.2).
    Measures that declare a disjunctive partial trigger this error when
    handed to the MapReduce drivers, while remaining usable for exact
    sequential evaluation.
    """


class UnknownMeasureError(ReproError):
    """Raised when a measure name is not present in the measure registry."""


class MapReduceError(ReproError):
    """Base class for errors raised by the MapReduce simulator."""


class JobConfigurationError(MapReduceError):
    """Raised when a job specification is internally inconsistent."""


class UnsupportedFeatureError(MapReduceError):
    """Raised when a job requires an engine feature the cluster lacks.

    The paper stresses that Hadoop does not support secondary keys; running
    the Online-Aggregation joining algorithm on a Hadoop-profile cluster
    therefore raises this error.
    """


class BackendError(MapReduceError):
    """Raised when an execution backend cannot be constructed or driven.

    Covers invalid backend options (``get_backend("disk",
    memory_budget_bytes=0)``, an option the named backend does not take)
    and backend-internal failures that are not a job's fault.  The message
    always names the remedy — the backend and the options it accepts, or
    the valid option values.
    """


class MemoryBudgetExceeded(MapReduceError):
    """Raised when a task needs more memory than its machine provides.

    This models the thrashing / out-of-memory failures the paper reports:
    the Lookup algorithm failing to load its lookup table and VCL failing to
    load the frequency-sorted alphabet on the realistic dataset.
    """

    def __init__(self, message: str, required_bytes: int = 0,
                 budget_bytes: int = 0) -> None:
        super().__init__(message)
        self.required_bytes = int(required_bytes)
        self.budget_bytes = int(budget_bytes)

    def __reduce__(self):
        # Preserve the byte attributes when the exception is pickled across
        # a process boundary (raised inside a ProcessBackend worker).
        return (type(self), (str(self), self.required_bytes, self.budget_bytes))


class DiskBudgetExceeded(MapReduceError):
    """Raised when a job writes more intermediate data than the disk budget."""

    def __init__(self, message: str, required_bytes: int = 0,
                 budget_bytes: int = 0) -> None:
        super().__init__(message)
        self.required_bytes = int(required_bytes)
        self.budget_bytes = int(budget_bytes)

    def __reduce__(self):
        return (type(self), (str(self), self.required_bytes, self.budget_bytes))


class JobTimeoutError(MapReduceError):
    """Raised when a job's simulated run time exceeds the scheduler limit.

    The paper reports that the VCL kernel mappers were killed by the
    MapReduce scheduler after 48 hours on the realistic dataset; the
    simulated scheduler reproduces that behaviour through this exception.
    """

    def __init__(self, message: str, simulated_seconds: float = 0.0,
                 limit_seconds: float = 0.0) -> None:
        super().__init__(message)
        self.simulated_seconds = float(simulated_seconds)
        self.limit_seconds = float(limit_seconds)

    def __reduce__(self):
        return (type(self), (str(self), self.simulated_seconds, self.limit_seconds))


class PipelineError(MapReduceError):
    """Raised when a multi-job pipeline cannot be assembled or executed."""


class DatasetError(ReproError):
    """Raised by workload generators and loaders on invalid parameters."""


class ServingError(ReproError):
    """Raised by the online similarity-serving subsystem.

    Covers configuration errors (invalid shard counts, incompatible
    bootstrap inputs) and write errors such as adding a multiset under an
    identifier that is already indexed.
    """


class CommunityError(ReproError):
    """Raised by the community-discovery post-processing utilities."""


class StorageError(ReproError):
    """Raised by the durable persistence tier (:mod:`repro.storage`).

    Covers values the storage codec cannot round-trip exactly (identifiers
    and elements must be built from the supported hashable types), files
    that do not contain the requested artifact (recovering a view from a
    database that never held one), schema-version mismatches and corrupted
    mutation logs.
    """


class ServerError(ReproError):
    """Raised by the network-facing serving tier (:mod:`repro.server`).

    Covers server configuration errors (invalid queue capacities, admin
    operations that the deployment mode does not support) and request
    payloads that parse as JSON but do not describe a valid operation.
    """


class QueueFullError(ServerError):
    """Raised when a bounded server queue rejects an admission.

    Carries the backpressure hint the HTTP layer surfaces as a
    ``Retry-After`` header alongside the 429 status.
    """

    def __init__(self, message: str, retry_after_seconds: float = 1.0,
                 queue: str = "") -> None:
        super().__init__(message)
        self.retry_after_seconds = float(retry_after_seconds)
        self.queue = queue

    def __reduce__(self):
        return (type(self), (str(self), self.retry_after_seconds, self.queue))


class StreamingError(ReproError):
    """Raised by the incremental view-maintenance subsystem.

    Covers malformed change batches (a delete naming an identifier the view
    does not hold), specs a view cannot maintain exactly (approximate
    MinHash joins, stop-word-filtered joins) and serving targets that
    cannot be kept in sync with a view.
    """


class ResilienceError(ReproError):
    """Raised by the replication / fault-tolerance tier (:mod:`repro.resilience`).

    Covers replica-set configuration errors (replication factors below one,
    recovering a replica that is not down) and the fault-path subclasses
    below, each of which maps to its own wire error code.
    """


class ReplicaUnavailableError(ResilienceError):
    """Raised when no healthy replica can serve a call.

    Surfaced to clients as ``503`` with a ``Retry-After`` hint: the
    condition is transient — a replica recovery or health-check readmission
    restores service — so the right client response is backoff-and-retry,
    not failure classification.
    """

    def __init__(self, message: str, retry_after_seconds: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_seconds = float(retry_after_seconds)

    def __reduce__(self):
        return (type(self), (str(self), self.retry_after_seconds))


class ReplicaDivergenceError(ResilienceError):
    """Raised when replicas of one shard disagree after a fanned-in write.

    Replicas apply the same write stream, so their member counts and write
    versions must advance in lockstep; a divergence means a replica
    silently dropped or duplicated a write and can no longer be trusted to
    serve exact answers.
    """


class CircuitOpenError(ResilienceError):
    """Raised by a client-side circuit breaker refusing to place a call.

    The endpoint has failed enough consecutive calls that further attempts
    are presumed wasted; ``retry_after_seconds`` is the time until the
    breaker half-opens and allows a probe through.
    """

    def __init__(self, message: str, retry_after_seconds: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_seconds = float(retry_after_seconds)

    def __reduce__(self):
        return (type(self), (str(self), self.retry_after_seconds))


class DeadlineExceededError(ResilienceError):
    """Raised when a call (or request) exceeds its deadline.

    Raised client-side when retries would overrun the caller's deadline and
    server-side when a request's execution exceeds the configured
    per-request timeout (surfaced as ``504``).
    """

    def __init__(self, message: str, deadline_seconds: float = 0.0,
                 retry_after_seconds: float | None = None) -> None:
        super().__init__(message)
        self.deadline_seconds = float(deadline_seconds)
        self.retry_after_seconds = retry_after_seconds

    def __reduce__(self):
        return (type(self), (str(self), self.deadline_seconds,
                             self.retry_after_seconds))


class InjectedFaultError(ResilienceError):
    """An artificial failure raised by a :class:`repro.resilience.FaultPolicy`.

    Only fault-injection harnesses (the chaos suite, the availability
    benchmark) raise this; seeing it escape to a client means a resilience
    layer failed to mask a fault it was configured to absorb.
    """
