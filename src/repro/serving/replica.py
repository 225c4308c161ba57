"""One shard's replica set: write fan-in, read spreading, failover, rebuild.

:class:`ReplicatedShard` owns N :class:`~repro.serving.node.ServingNode`
replicas holding identical copies of one hash-shard's data (N may be 1: an
unreplicated shard is a replica set of one, served by the same code):

* **writes fan in**: every healthy replica applies every upsert/delete, in
  the same order, so any one of them can answer any read exactly.  A
  replica whose write attempt faults is *ejected* (marked down) rather
  than left behind silently — an ejected replica has provably missed
  writes and must rebuild before serving again.  After every fan-in the
  shard version-checks the survivors for divergence;
* **reads spread**: each query is served by one healthy replica, picked
  round-robin (throughput-first: consecutive queries alternate replicas)
  or by rendezvous hashing on the query's content signature
  (cache-first: the same query always lands on the same replica, so each
  replica's LRU holds a disjoint slice of the hot set).  A read that
  faults ejects the replica and *fails over* to the next healthy one —
  the caller sees the answer, not the fault.  With one healthy replica
  there is nothing to pick, and the read goes straight to it.  What is
  handed to a replica is the request already prepared (see
  :mod:`repro.serving.index`; a shard called directly prepares it): it
  holds nothing of any replica, so a fail-over retry reuses it, and
  rendezvous ranks from its ``ranking_key``, canonicalised once per request;
* **recovery rebuilds**: a down replica re-enters by copying a healthy
  peer's members (exact: the rebuilt index answers bit-identically) or by
  loading a :mod:`repro.storage` snapshot, then re-joins the fan-in.

Faults are injected (never spontaneous) through an optional per-replica
:class:`~repro.resilience.faults.FaultPolicy`, consulted *before* the node
call — so a faulted write never half-applies, and killing a replica
between any two operations leaves the survivors exact.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.core.exceptions import (
    ReplicaDivergenceError,
    ReplicaUnavailableError,
    ResilienceError,
    ServingError,
)
from repro.core.multiset import Multiset, MultisetId
from repro.mapreduce.partitioner import stable_hash
from repro.serving.api import QueryMatch, QueryRequest
from repro.serving.index import PreparedQuery, SimilarityIndex, prepare
from repro.serving.node import ServingNode
from repro.similarity.base import NominalSimilarityMeasure

if TYPE_CHECKING:  # the chaos seam is duck-typed: anything with on_call()
    from repro.resilience.faults import FaultPolicy

#: Salt separating replica rendezvous ranking from the other hash users.
REPLICA_SALT = "resilience-replica"

#: The two read-spreading strategies.
ROUND_ROBIN = "round_robin"
RENDEZVOUS = "rendezvous"

#: Statistics that count requests served (summed over every replica of a
#: shard); everything else describes the data, which the replicas share.
REQUEST_PATH_STATS = ("cache/", "serving/")


class Replica:
    """One serving node plus its health state inside a replica set."""

    def __init__(self, node: ServingNode, *,
                 fault_policy: "FaultPolicy | None" = None) -> None:
        self.node = node
        self.fault_policy = fault_policy
        self.healthy = True
        #: Why the replica is down ("" while healthy).
        self.down_reason = ""
        #: The index version every fan-in leaves the replica at; a
        #: mismatch on the next check means an out-of-band write diverged
        #: this replica from its peers.
        self.expected_version = node.index.version
        #: Serializes calls into the node (serving structures are not
        #: thread-safe); distinct replicas proceed in parallel.
        self.lock = threading.Lock()
        self.reads_served = 0
        self.writes_applied = 0
        self.faults_seen = 0

    @property
    def name(self) -> str:
        return self.node.name

    def call(self, operation: str, function: Callable, *args):
        """Run ``function(node, *args)`` behind the fault policy, locked.

        A replica that went down while the call waited for the lock
        refuses: its node may already have lost its state.
        """
        with self.lock:
            if not self.healthy:
                raise ReplicaUnavailableError(
                    f"replica {self.name} went down ({self.down_reason}) "
                    f"before {operation} reached it")
            if self.fault_policy is not None:
                self.fault_policy.on_call(operation)
            return function(self.node, *args)

    def stats(self) -> dict[str, float]:
        merged: dict[str, float] = dict(self.node.stats())
        merged["healthy"] = self.healthy
        merged["reads_served"] = self.reads_served
        merged["writes_applied"] = self.writes_applied
        merged["faults_seen"] = self.faults_seen
        return merged

    def __repr__(self) -> str:
        state = "healthy" if self.healthy else f"down ({self.down_reason})"
        return f"Replica({self.name!r}, {state}, members={len(self.node)})"


class ReplicatedShard:
    """N replicas of one shard behind write fan-in and read spreading."""

    def __init__(self, measure: str | NominalSimilarityMeasure = "ruzicka",
                 replication_factor: int = 2, *,
                 cache_capacity: int = 1024,
                 stop_word_frequency: int | None = None,
                 name: str = "shard0",
                 read_strategy: str = ROUND_ROBIN,
                 fault_policies: "Sequence[FaultPolicy | None] | None" = None
                 ) -> None:
        if replication_factor < 1:
            raise ResilienceError(
                f"replication_factor must be >= 1, got {replication_factor}")
        if read_strategy not in (ROUND_ROBIN, RENDEZVOUS):
            raise ResilienceError(
                f"read_strategy must be {ROUND_ROBIN!r} or {RENDEZVOUS!r}, "
                f"got {read_strategy!r}")
        if fault_policies is not None \
                and len(fault_policies) != replication_factor:
            raise ResilienceError(
                f"need one fault policy slot per replica: got "
                f"{len(fault_policies)} for replication factor "
                f"{replication_factor}")
        self.name = name
        self.read_strategy = read_strategy
        self._measure_setting = measure
        self._node_settings = {
            "cache_capacity": cache_capacity,
            "stop_word_frequency": stop_word_frequency,
        }
        self.replicas = [
            Replica(self._blank_node(f"{name}/replica{index}"),
                    fault_policy=(fault_policies[index]
                                  if fault_policies else None))
            for index in range(replication_factor)
        ]
        #: The replicas currently serving, in replica order.  Rebuilt only
        #: when health changes (eject / recover), never per request.
        self._healthy: tuple[Replica, ...] = tuple(self.replicas)
        #: Serializes health changes, so concurrent ejections cannot leave
        #: a stale ``_healthy`` behind.
        self._health_lock = threading.Lock()
        #: Round-robin turn counter.  A turn lost to a race between two
        #: reading threads repeats a replica once; it cannot unbalance them.
        self._turn = 0
        self.ejections = 0
        self.recoveries = 0
        self.failovers = 0

    def _blank_node(self, name: str) -> ServingNode:
        return ServingNode(self._measure_setting, name=name,
                           **self._node_settings)

    @property
    def replication_factor(self) -> int:
        return len(self.replicas)

    @property
    def measure(self) -> NominalSimilarityMeasure:
        return self.replicas[0].node.measure

    @property
    def cache_capacity(self) -> int:
        """Per-replica LRU result-cache capacity."""
        return self._node_settings["cache_capacity"]

    @property
    def stop_word_frequency(self) -> int | None:
        """The stop-word pruning limit every replica's index uses."""
        return self._node_settings["stop_word_frequency"]

    def num_healthy(self) -> int:
        return len(self._healthy)

    def _primary(self) -> Replica:
        """Any healthy replica (reads that must not spread: len, get)."""
        if not self._healthy:
            raise ReplicaUnavailableError(
                f"shard {self.name}: all {self.replication_factor} replicas "
                "are down")
        return self._healthy[0]

    def __len__(self) -> int:
        return len(self._primary().node)

    def __contains__(self, multiset_id: object) -> bool:
        return multiset_id in self._primary().node

    def get(self, multiset_id: MultisetId) -> Multiset | None:
        """The indexed multiset with this identifier, from any healthy replica."""
        return self._primary().node.get(multiset_id)

    def members(self) -> list[Multiset]:
        """Every indexed multiset, copied from one healthy replica."""
        primary = self._primary()
        with primary.lock:
            index = primary.node.index
            return [index.get(multiset_id) for multiset_id in index.ids()]

    # -- ejection / divergence -------------------------------------------------

    def _set_health(self, replica: Replica, healthy: bool,
                    reason: str = "") -> None:
        """Flip one replica's health (callers hold ``_health_lock``)."""
        replica.healthy = healthy
        replica.down_reason = reason
        self._healthy = tuple(replica for replica in self.replicas
                              if replica.healthy)

    def _eject(self, replica: Replica, reason: str) -> None:
        with self._health_lock:
            if replica.healthy:
                self._set_health(replica, False, reason)
                replica.faults_seen += 1
                self.ejections += 1

    def check_divergence(self) -> None:
        """Verify the healthy replicas still agree; raise when they don't.

        Two checks: each replica's index version must equal what the last
        fan-in left it at (an out-of-band write to one replica is
        divergence by definition), and all healthy replicas must agree on
        the member count (a dropped or duplicated fan-in write).
        """
        sizes: dict[str, int] = {}
        for replica in self._healthy:
            index = replica.node.index
            if index.version != replica.expected_version:
                raise ReplicaDivergenceError(
                    f"shard {self.name}: replica {replica.name} is at index "
                    f"version {index.version}, expected "
                    f"{replica.expected_version} — it was written to "
                    "outside the fan-in path")
            sizes[replica.name] = len(index)
        if len(set(sizes.values())) > 1:
            raise ReplicaDivergenceError(
                f"shard {self.name}: healthy replicas disagree on member "
                f"count: {sizes}")

    # -- writes (fan in to every healthy replica) ------------------------------

    def _fan_in(self, operation: str, function: Callable, *args) -> int:
        """Apply one write to every healthy replica; returns how many applied.

        A replica whose *injected fault* fires is ejected and skipped — the
        fault fires before the node mutates, so the ejected replica simply
        missed the write and will rebuild on recovery.  A deterministic
        :class:`ServingError` (duplicate add, missing delete) propagates
        unchanged: it would fail identically on every replica, and it fails
        *before* mutating — single-item writes are atomic and bulk batches
        are pre-validated by :meth:`bulk_load` — so the set stays
        consistent.  Should a :class:`ServingError` nevertheless fire after
        the node already mutated (the index version moved), the write
        half-applied: that replica no longer matches its peers and is
        ejected to rebuild rather than left healthy with diverged state.
        """
        applied = 0
        deterministic_failure: ServingError | None = None
        for replica in self._healthy:
            try:
                replica.call(operation, function, *args)
            except ServingError as error:
                if replica.node.index.version != replica.expected_version:
                    self._eject(replica, f"{operation} half-applied: {error}")
                deterministic_failure = error
                break
            except Exception as error:  # noqa: BLE001 — fault path
                self._eject(replica, f"{operation} failed: {error}")
                continue
            replica.writes_applied += 1
            replica.expected_version = replica.node.index.version
            applied += 1
        if deterministic_failure is not None:
            raise deterministic_failure
        if applied == 0:
            raise ReplicaUnavailableError(
                f"shard {self.name}: no healthy replica could apply "
                f"{operation} (all {self.replication_factor} down)")
        self.check_divergence()
        return applied

    def add(self, multiset: Multiset, replace: bool = False) -> None:
        """Fan one upsert in to every healthy replica."""
        self._fan_in("add", ServingNode.add, multiset, replace)

    def remove(self, multiset_id: MultisetId) -> None:
        """Fan one delete in to every healthy replica."""
        self._fan_in("remove", ServingNode.remove, multiset_id)

    def bulk_load(self, multisets: Iterable[Multiset],
                  replace: bool = False) -> int:
        """Fan a bulk load in; returns the count indexed (per replica).

        The batch is validated *before* any replica mutates: node bulk
        loads apply items incrementally, so a duplicate identifier rejected
        mid-batch would leave the first replica partially loaded while its
        peers got nothing.  Rejecting the batch up front keeps the fan-in
        all-or-nothing on every replica.
        """
        batch = list(multisets)
        if not replace:
            seen: set[MultisetId] = set()
            primary = self._primary()
            for multiset in batch:
                if multiset.id in seen:
                    raise ServingError(
                        f"bulk batch contains {multiset.id!r} twice; "
                        "load it once (or pass replace=True)")
                if multiset.id in primary.node:
                    raise ServingError(
                        f"multiset {multiset.id!r} is already indexed; "
                        "pass replace=True to overwrite")
                seen.add(multiset.id)
        self._fan_in("bulk_load", ServingNode.bulk_load, batch, replace)
        return len(batch)

    def warm(self, request: QueryRequest,
             matches: Sequence[QueryMatch]) -> None:
        """Seed every healthy replica's cache with ``request``'s answer.

        Caches are memoisation keyed on the index version, so seeding is
        not a write: no fault is drawn and no replica can diverge.
        """
        for replica in self._healthy:
            with replica.lock:
                replica.node.warm(request, matches)

    # -- reads (spread over healthy replicas, failing over on faults) ----------

    def _read_candidates(self, request: "QueryRequest | PreparedQuery | None",
                         *, take_turn: bool = True) -> Sequence[Replica]:
        """Healthy replicas in preference order for one request.

        ``take_turn=False`` looks at the round-robin order without using
        the turn up (see :meth:`cached_reader`).
        """
        healthy = self._healthy
        if len(healthy) < 2:
            return healthy
        if self.read_strategy == RENDEZVOUS and request is not None:
            ranking_key = prepare(request).ranking_key
            return sorted(
                healthy,
                key=lambda replica: stable_hash((ranking_key, replica.name),
                                                salt=REPLICA_SALT),
                reverse=True)
        # Rotate over the *current* healthy replicas so a just-ejected one
        # never absorbs a turn.
        start = self._turn % len(healthy)
        if take_turn:
            self._turn += 1
        return healthy[start:] + healthy[:start]

    def _read(self, operation: str, function: Callable, argument,
              request: "PreparedQuery | None"):
        """Serve one read from the preferred replica, failing over on faults.

        Deterministic :class:`ServingError` failures propagate (they would
        recur on every replica); anything else ejects the replica and
        tries the next.
        """
        for replica in self._read_candidates(request):
            try:
                result = replica.call(operation, function, argument)
            except ServingError:
                raise
            except Exception as error:  # noqa: BLE001 — fail over
                self._eject(replica, f"{operation} failed: {error}")
                self.failovers += 1
                continue
            replica.reads_served += 1
            return result
        raise ReplicaUnavailableError(
            f"shard {self.name}: no healthy replica left to serve "
            f"{operation} (all {self.replication_factor} down)")

    def query(self, request: "QueryRequest | PreparedQuery"):
        """Answer one unified-API query from one healthy replica."""
        prepared = prepare(request)
        return self._read("query", ServingNode.query, prepared, prepared)

    def cached_reader(self, prepared: PreparedQuery
                      ) -> tuple[Replica, tuple] | None:
        """The replica whose turn it is and the key it has the request
        cached under, with the replica's lock held — or ``None``.

        ``None`` unless answering is a pure memory read: the replica
        :meth:`_read_candidates` would try first is healthy, has no fault
        policy in front of it (an injected sleep or fault belongs to
        :meth:`Replica.call`, never to this caller's thread), is not inside
        another call (the lock is tried, never waited for) and holds the
        version-keyed entry.  Nothing is counted and no turn is used, so
        after a ``None`` a :meth:`query` behaves as if nobody had asked.
        The caller finishes with :meth:`read_cached` and releases the lock.
        """
        candidates = self._read_candidates(prepared, take_turn=False)
        if not candidates:
            return None
        replica = candidates[0]
        if replica.fault_policy is not None \
                or not replica.lock.acquire(blocking=False):
            return None
        key = replica.node.cached_key(prepared) if replica.healthy else None
        if key is None:
            replica.lock.release()
            return None
        return replica, key

    def read_cached(self, replica: Replica, key: tuple):
        """The matches :meth:`cached_reader` found, accounted as a read.

        Uses the turn up, counts the cache hit (refreshing the entry's
        recency) and the replica's ``reads_served`` — what :meth:`query`
        would have moved for the same hit.
        """
        self._turn += 1
        replica.reads_served += 1
        return replica.node.cache.get(key)

    def batch(self, requests: Sequence) -> list:
        """Answer a request batch from one healthy replica.

        The whole batch goes to a single replica (it coalesces duplicate
        signatures internally); spreading happens across batches.
        """
        prepared = [prepare(request) for request in requests]
        return self._read("batch", ServingNode.batch, prepared,
                          prepared[0] if prepared else None)

    # -- kill / recover --------------------------------------------------------

    def _replica_at(self, replica_index: int) -> Replica:
        try:
            return self.replicas[replica_index]
        except IndexError:
            raise ResilienceError(
                f"shard {self.name} has no replica {replica_index} "
                f"(replication factor {self.replication_factor})") from None

    def kill(self, replica_index: int, *, lose_state: bool = True) -> Replica:
        """Simulate a crash: mark the replica down, losing its state.

        With ``lose_state`` (the default) the node is replaced by an empty
        one, exactly as a process crash loses its memory — recovery *must*
        rebuild, so tests exercising :meth:`recover` prove the rebuild
        path rather than silently reusing surviving state.
        """
        replica = self._replica_at(replica_index)
        with replica.lock:  # a call already inside the node finishes first
            self._eject(replica, "killed")
            if lose_state:
                replica.node = self._blank_node(replica.name)
                replica.expected_version = 0
        if replica.fault_policy is not None:
            replica.fault_policy.crash()
        return replica

    def recover(self, replica_index: int, *, source=None) -> Replica:
        """Readmit a down replica, rebuilding its state exactly.

        ``source`` is a :mod:`repro.storage` database path (or open
        engine) written by :meth:`persist`; without one the replica copies
        a healthy peer's members (peer snapshot).  Either way the rebuilt
        replica answers every query bit-identically to its peers, which
        :meth:`check_divergence` re-verifies before readmission.
        """
        replica = self._replica_at(replica_index)
        if replica.healthy:
            raise ResilienceError(
                f"shard {self.name}: replica {replica.name} is healthy; "
                "only down replicas recover")
        node = self._blank_node(replica.name)
        if source is not None:
            node.index = SimilarityIndex.load(source)
        else:
            node.bulk_load(self.members())
        if replica.fault_policy is not None:
            replica.fault_policy.revive()
        replica.node = node
        replica.expected_version = node.index.version
        with self._health_lock:
            self._set_health(replica, True)
            self.recoveries += 1
        self.check_divergence()
        return replica

    def restore(self, indexes: Sequence[SimilarityIndex]) -> None:
        """Install one loaded index per replica (fleet recovery)."""
        for replica, index in zip(self.replicas, indexes, strict=True):
            replica.node.index = index
            replica.expected_version = index.version
        self.check_divergence()

    def persist(self, destination) -> None:
        """Save the shard — any healthy replica is an exact copy of it."""
        primary = self._primary()
        with primary.lock:
            primary.node.persist(destination)

    def health_check(self, *, readmit: bool = True) -> dict[str, list[str]]:
        """Probe every replica; eject the broken, optionally readmit the down.

        The probe is a no-op node call through the replica's fault policy
        plus the divergence version-check, so a crashed or diverged
        replica is ejected by observation rather than by the first failing
        query.  With ``readmit``, down replicas are rebuilt from a healthy
        peer while the shard still has one.
        """
        report: dict[str, list[str]] = {"healthy": [], "ejected": [],
                                        "readmitted": [], "down": []}
        for replica_index, replica in enumerate(self.replicas):
            outcome = "down"
            if replica.healthy:
                try:
                    replica.call("health", len)
                    if replica.node.index.version != replica.expected_version:
                        raise ResilienceError(
                            "index version diverged from the fan-in history")
                except Exception as error:  # noqa: BLE001 — probe
                    self._eject(replica, f"health probe failed: {error}")
                    outcome = "ejected"
                else:
                    outcome = "healthy"
            elif readmit and self._healthy:
                try:
                    self.recover(replica_index)
                except Exception:  # noqa: BLE001 — stay down, retry later
                    pass
                else:
                    outcome = "readmitted"
            report[outcome].append(replica.name)
        return report

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Shard-level resilience counters."""
        return {
            "replication_factor": self.replication_factor,
            "healthy_replicas": self.num_healthy(),
            "ejections": self.ejections,
            "recoveries": self.recoveries,
            "failovers": self.failovers,
        }

    def serving_stats(self) -> dict[str, float]:
        """The shard's serving statistics, each counted once.

        Request-path counters (cache hits/misses/evictions/invalidations,
        ``serving/*``) sum over every replica — each replica served its own
        share of the reads.  Data gauges (members indexed) come from one
        healthy replica: the replicas are copies, and summing them would
        overcount the fleet by the replication factor.  A shard with no
        healthy replica reports no data gauges — the statistics stay
        readable exactly when an operator needs them.
        """
        primary = self._healthy[0] if self._healthy else None
        merged: dict[str, float] = {}
        for replica in self.replicas:
            for stat, value in replica.node.stats().items():
                if replica is primary or stat.startswith(REQUEST_PATH_STATS):
                    merged[stat] = merged.get(stat, 0) + value
        return merged

    def per_replica_stats(self) -> dict[str, dict[str, float]]:
        return {replica.name: replica.stats() for replica in self.replicas}

    def health(self) -> dict:
        """The shard's health document (one ``/admin/replicas`` entry)."""
        return {
            "replication_factor": self.replication_factor,
            "healthy": self.num_healthy(),
            "replicas": {
                replica.name: {
                    "healthy": replica.healthy,
                    "down_reason": replica.down_reason,
                    "members": len(replica.node),
                    "reads_served": replica.reads_served,
                    "writes_applied": replica.writes_applied,
                }
                for replica in self.replicas
            },
        }

    def __repr__(self) -> str:
        return (f"ReplicatedShard(name={self.name!r}, "
                f"replicas={self.num_healthy()}/{self.replication_factor} "
                f"healthy, strategy={self.read_strategy!r})")
