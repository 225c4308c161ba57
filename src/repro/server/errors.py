"""One table mapping the exception hierarchy to wire error codes.

Every :class:`~repro.core.exceptions.ReproError` subclass an endpoint can
raise maps to a stable machine-readable code and an HTTP status, so clients
branch on ``error.code`` instead of parsing messages.  The table is ordered
most-specific-first and resolved by ``isinstance``, so new subclasses
inherit their parent's mapping until given a row of their own.

Status conventions:

* ``400`` — the request itself is invalid (malformed multisets, unknown
  measures, bad configuration);
* ``409`` — the request is well-formed but conflicts with current state
  (adding an identifier that is already indexed, deleting one that is not,
  change batches a view rejects);
* ``429`` — a bounded queue refused admission; retry after the hinted
  backoff (sent as ``Retry-After``);
* ``5xx`` — the server could not complete a valid request (storage
  failures, simulated budget/timeout kills, unexpected internals).
"""

from __future__ import annotations

from repro.core.exceptions import (
    BackendError,
    CircuitOpenError,
    DatasetError,
    DeadlineExceededError,
    DiskBudgetExceeded,
    InvalidMultisetError,
    JobConfigurationError,
    JobTimeoutError,
    MapReduceError,
    MeasureNotApplicableError,
    MemoryBudgetExceeded,
    QueueFullError,
    ReplicaDivergenceError,
    ReplicaUnavailableError,
    ReproError,
    ResilienceError,
    ServerError,
    ServingError,
    StorageError,
    StreamingError,
    UnknownMeasureError,
    UnsupportedFeatureError,
)
from repro.core.interning import InterningError

#: The (exception class, error code, HTTP status) table — most specific
#: first, resolved by ``isinstance`` so subclasses inherit their parent's
#: row unless listed themselves.
ERROR_TABLE: tuple[tuple[type[ReproError], str, int], ...] = (
    (QueueFullError, "queue_full", 429),
    (ReplicaUnavailableError, "replica_unavailable", 503),
    (CircuitOpenError, "circuit_open", 503),
    (DeadlineExceededError, "deadline_exceeded", 504),
    (ReplicaDivergenceError, "replica_divergence", 500),
    (ResilienceError, "resilience_error", 500),
    (ServerError, "server_error", 400),
    (InvalidMultisetError, "invalid_multiset", 400),
    (UnknownMeasureError, "unknown_measure", 400),
    (MeasureNotApplicableError, "measure_not_applicable", 400),
    (InterningError, "interning_error", 400),
    (ServingError, "serving_error", 409),
    (StreamingError, "streaming_error", 409),
    (DatasetError, "dataset_error", 400),
    (StorageError, "storage_error", 500),
    (BackendError, "backend_error", 500),
    (MemoryBudgetExceeded, "memory_budget_exceeded", 507),
    (DiskBudgetExceeded, "disk_budget_exceeded", 507),
    (JobTimeoutError, "job_timeout", 504),
    (JobConfigurationError, "job_configuration_error", 400),
    (UnsupportedFeatureError, "unsupported_feature", 400),
    (MapReduceError, "mapreduce_error", 500),
    (ReproError, "repro_error", 500),
)

#: Codes for failures that never surface as :class:`ReproError`.
BAD_REQUEST = ("bad_request", 400)
NOT_FOUND = ("not_found", 404)
METHOD_NOT_ALLOWED = ("method_not_allowed", 405)
INTERNAL_ERROR = ("internal_error", 500)


def classify(error: BaseException) -> tuple[str, int]:
    """The ``(code, http_status)`` of an exception, via the one table."""
    for exception_class, code, status in ERROR_TABLE:
        if isinstance(error, exception_class):
            return code, status
    return INTERNAL_ERROR


def error_body(error: BaseException) -> tuple[int, dict]:
    """The structured JSON error body (and status) of an exception.

    Every error response has the same shape::

        {"error": {"code": "...", "status": 4xx,
                   "type": "ExceptionClassName", "message": "..."}}

    plus code-specific extras: every backpressure-shaped error that
    carries a ``retry_after_seconds`` attribute (``queue_full``,
    ``replica_unavailable``, ``circuit_open``, ``deadline_exceeded``)
    surfaces it in the body — and the transports mirror it into a
    ``Retry-After`` header — so clients back off by the server's own
    estimate instead of guessing.
    """
    code, status = classify(error)
    body: dict = {"error": {"code": code, "status": status,
                            "type": type(error).__name__,
                            "message": str(error)}}
    retry_after = getattr(error, "retry_after_seconds", None)
    if retry_after is not None:
        body["error"]["retry_after_seconds"] = float(retry_after)
    if isinstance(error, QueueFullError) and error.queue:
        body["error"]["queue"] = error.queue
    return status, body


def simple_error(code_status: tuple[str, int], message: str) -> tuple[int, dict]:
    """An error body for non-exception failures (bad routes, bad JSON)."""
    code, status = code_status
    return status, {"error": {"code": code, "status": status,
                              "type": "HTTPError", "message": message}}
