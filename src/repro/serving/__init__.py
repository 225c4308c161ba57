"""Online similarity serving: incremental indexes, caching nodes, one fleet.

This subsystem turns the batch V-SMART-Join reproduction into a queryable
service.  The same partial-result decomposition the joining phase exploits
(unilateral ``Uni`` partials per multiset, conjunctive partials joined
through an inverted posting structure) supports *incremental* maintenance,
so "what is similar to Q?" is answered online without re-running the join:

* :class:`QueryRequest` / :class:`QueryOptions` / :class:`QueryResponse` —
  the unified query API every layer speaks, whose JSON rendering is the
  HTTP wire codec (:mod:`repro.server`);
* :class:`SimilarityIndex` — the core incremental index with threshold and
  top-k queries, stop-word posting pruning and upper-bound early
  termination;
* :class:`ServingNode` — an index behind an invalidating LRU result cache
  with batched query execution;
* :class:`ReplicatedShard` — ``replication_factor >= 1`` nodes holding one
  hash shard: write fan-in, read spreading, failover, exact rebuild;
* :class:`ReplicatedSimilarityService` — the one fleet class, at every
  replication factor: hash-routed shards behind ``query`` / ``batch`` /
  ``add`` / ``remove`` / ``get`` / ``warm``, a fleet-wide
  :meth:`~ReplicatedSimilarityService.snapshot`, per-shard
  :meth:`~ReplicatedSimilarityService.persist` /
  :meth:`~ReplicatedSimilarityService.recover` and the kill / revive /
  health-check plumbing (the unreplicated fleet class of 1.x is this one
  at ``replication_factor=1``; see ``docs/MIGRATION.md``);
* :func:`bootstrap_from_join` — build a fleet from a corpus and warm its
  caches from the engine's :class:`~repro.engine.result.JoinResult`
  (``engine.run(spec, data).to_service(num_shards=...)`` is the one-call
  form; the join itself always runs on the engine).

Nothing here imports :mod:`repro.resilience` at run time — fault policies
are handed in by the caller — and nothing there imports this package.
"""

from repro.serving.api import (
    QueryMatch,
    QueryOptions,
    QueryRequest,
    QueryResponse,
    finalize_matches,
    multiset_from_wire,
    multiset_to_wire,
    sort_matches,
)
from repro.serving.bootstrap import bootstrap_from_join, multisets_from_input
from repro.serving.cache import LRUResultCache
from repro.serving.index import SimilarityIndex
from repro.serving.node import ServingNode, query_signature
from repro.serving.replica import RENDEZVOUS, ROUND_ROBIN, Replica, ReplicatedShard
from repro.serving.service import (
    SHARD_SALT,
    ReplicatedSimilarityService,
    shard_for,
)

__all__ = [
    "LRUResultCache",
    "QueryMatch",
    "QueryOptions",
    "QueryRequest",
    "QueryResponse",
    "RENDEZVOUS",
    "ROUND_ROBIN",
    "Replica",
    "ReplicatedShard",
    "ReplicatedSimilarityService",
    "SHARD_SALT",
    "ServingNode",
    "SimilarityIndex",
    "bootstrap_from_join",
    "finalize_matches",
    "multiset_from_wire",
    "multiset_to_wire",
    "multisets_from_input",
    "query_signature",
    "shard_for",
    "sort_matches",
]
