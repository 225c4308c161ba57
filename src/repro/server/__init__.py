"""Network-facing async serving tier: HTTP/JSON over the serving fleet.

The package splits along these seams:

* :mod:`repro.server.app` — :class:`SimilarityServerApp`, the dispatcher
  (routes, bounded queues, the loop-side cached read, lifecycle);
* :mod:`repro.server.http` — the one transport: an :mod:`asyncio`
  protocol speaking HTTP/1.1, :func:`serve_forever` and the
  :class:`InProcessServer` test harness;
* :mod:`repro.server.client` — :class:`SimilarityClient`, the synchronous
  client speaking HTTP/1.1 over its own socket and raising
  :class:`RemoteServerError` with stable error codes;
* :mod:`repro.server.queues` — :class:`CoalescingQueue`, the bounded
  admission/batching primitive behind every endpoint;
* :mod:`repro.server.errors` — the one exception-to-wire-code table.

The wire decodes to the same :class:`~repro.serving.api.QueryRequest`
family the Python API executes, so HTTP answers are bit-identical to
direct :class:`~repro.serving.service.ReplicatedSimilarityService` calls.
The app serves that one fleet class at every replication factor, so the
replica admin endpoints, the health loop and the ``/stats`` layout
(``replication_factor``, ``replica_health``, ``resilience/*`` totals) are
the same whether a shard has one replica or five.
"""

from repro.server.app import ServerConfig, SimilarityServerApp
from repro.server.client import (
    ClientTransportError,
    RemoteServerError,
    SimilarityClient,
)
from repro.server.errors import ERROR_TABLE, error_body
from repro.server.http import InProcessServer, serve_forever
from repro.server.queues import CoalescingQueue

__all__ = [
    "ClientTransportError",
    "CoalescingQueue",
    "ERROR_TABLE",
    "InProcessServer",
    "RemoteServerError",
    "ServerConfig",
    "SimilarityClient",
    "SimilarityServerApp",
    "error_body",
    "serve_forever",
]
