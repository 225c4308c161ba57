"""The serving fleet: hash-sharded replica sets behind the one query API.

:class:`ReplicatedSimilarityService` partitions the indexed multisets over
``num_shards`` shards by a stable hash of their identifiers — the same
content-hash routing idiom as the Sharding joining algorithm's element
fingerprints (:func:`repro.vsmart.sharding.element_fingerprint`), so shard
assignment is deterministic across processes and restarts.  Each shard is
a :class:`~repro.serving.replica.ReplicatedShard` of ``replication_factor``
serving nodes; at replication factor 1 that is one node per shard, served
by exactly the code that serves N.  Writes touch one shard (fanned into
its replicas); queries are prepared once, before the shard loop
(:class:`~repro.serving.index.PreparedQuery`: signature eagerly, scan form
by the first shard that scans and reused by the rest — index-independent,
so exact even when a write lands between two shards), then fan out and merge:

* threshold queries concatenate the per-shard answers (shards are disjoint,
  so no deduplication is needed) and re-sort;
* top-k queries take the top k of each shard and keep the global top k of
  the union — correct because every shard returns its k best, so nothing
  outside the merged union can enter the global top k.

One read does no fan-out work at all: :meth:`ReplicatedSimilarityService.cached`
returns the merged answer when every shard already holds it in a result
cache, and ``None`` otherwise — it never scans an index, never sleeps
behind a fault policy and never waits for a lock, which is what lets the
server call it from its event loop (the method's docstring carries the
exactness and accounting argument).

Exactness contract: whenever every shard keeps at least one healthy
replica, every answer is bit-identical to one unsharded
:class:`~repro.serving.index.SimilarityIndex` over the same members —
sharding and replication change who computes the answer, never the
answer.  The chaos suite asserts exactly that while killing and
recovering replicas mid-stream.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from repro.core.exceptions import ResilienceError, ServingError, StorageError
from repro.core.hashing import stable_hash
from repro.core.knobs import INT, check
from repro.core.multiset import Multiset, MultisetId
from repro.serving.api import (
    QueryMatch,
    QueryRequest,
    QueryResponse,
    finalize_matches,
)
from repro.serving.index import SimilarityIndex, prepare
from repro.serving.replica import Replica, ReplicatedShard
from repro.similarity.base import NominalSimilarityMeasure
from repro.telemetry import merge

#: Salt separating shard routing from the other stable-hash users.
SHARD_SALT = "serving-shard"


def shard_for(multiset_id: MultisetId, num_shards: int) -> int:
    """The shard owning ``multiset_id`` (stable across processes)."""
    if num_shards <= 0:
        raise ServingError(f"num_shards must be >= 1, got {num_shards}")
    return stable_hash(multiset_id, salt=SHARD_SALT) % num_shards


def _shard_file(directory: str | os.PathLike, shard: int) -> str:
    return os.path.join(os.fspath(directory), f"shard{shard:04d}.sqlite")


class ReplicatedSimilarityService:
    """A fleet of replicated shards behind a single query API."""

    def __init__(self, measure: str | NominalSimilarityMeasure = "ruzicka",
                 num_shards: int = 4, *, replication_factor: int = 2,
                 cache_capacity: int = 1024,
                 stop_word_frequency: int | None = None,
                 fault_policy_factory=None) -> None:
        """Build the fleet.

        ``fault_policy_factory`` is the chaos seam: a callable
        ``(shard_index, replica_index) -> FaultPolicy | None`` wiring an
        injection policy in front of each replica's node calls.
        """
        num_shards = check(num_shards, INT, "num_shards", ServingError,
                           at_least=1)
        replication_factor = check(replication_factor, INT,
                                   "replication_factor", ServingError,
                                   at_least=1)
        self.fault_policy_factory = fault_policy_factory
        self.shards = [
            ReplicatedShard(
                measure, replication_factor,
                cache_capacity=cache_capacity,
                stop_word_frequency=stop_word_frequency,
                name=f"shard{shard}",
                fault_policies=(
                    [fault_policy_factory(shard, replica)
                     for replica in range(replication_factor)]
                    if fault_policy_factory is not None else None))
            for shard in range(num_shards)
        ]

    @property
    def num_shards(self) -> int:
        """Number of hash shards (each a replica set)."""
        return len(self.shards)

    @property
    def replication_factor(self) -> int:
        """Replicas per shard."""
        return self.shards[0].replication_factor

    @property
    def measure(self) -> NominalSimilarityMeasure:
        """The measure the fleet serves."""
        return self.shards[0].measure

    @property
    def cache_capacity(self) -> int:
        """Per-replica LRU result-cache capacity."""
        return self.shards[0].cache_capacity

    @property
    def stop_word_frequency(self) -> int | None:
        """The stop-word pruning limit of every index (``None``: exact)."""
        return self.shards[0].stop_word_frequency

    def __len__(self) -> int:
        """Logical member count (each member counted once, not per replica)."""
        return sum(len(shard) for shard in self.shards)

    def __contains__(self, multiset_id: object) -> bool:
        return multiset_id in self.shards[self.shard_for(multiset_id)]

    def shard_for(self, multiset_id: MultisetId) -> int:
        """The shard this identifier routes to."""
        return shard_for(multiset_id, len(self.shards))

    def get(self, multiset_id: MultisetId) -> Multiset | None:
        """The indexed multiset with this identifier, if any."""
        return self.shards[self.shard_for(multiset_id)].get(multiset_id)

    # -- writes (routed to the owning shard, fanned into its replicas) ---------

    def add(self, multiset: Multiset, replace: bool = False) -> None:
        """Index a multiset on every healthy replica of its owning shard."""
        self.shards[self.shard_for(multiset.id)].add(multiset, replace=replace)

    def remove(self, multiset_id: MultisetId) -> None:
        """Drop a multiset from every healthy replica of its owning shard."""
        self.shards[self.shard_for(multiset_id)].remove(multiset_id)

    def bulk_load(self, multisets: Iterable[Multiset],
                  replace: bool = False) -> int:
        """Partition a collection over the shards; returns the count indexed."""
        per_shard: dict[int, list[Multiset]] = {}
        for multiset in multisets:
            per_shard.setdefault(self.shard_for(multiset.id), []).append(multiset)
        return sum(self.shards[shard].bulk_load(batch, replace=replace)
                   for shard, batch in per_shard.items())

    def warm(self, request: QueryRequest,
             matches: Sequence[QueryMatch]) -> None:
        """Seed the caches with ``request``'s precomputed (sorted) answer.

        A query fans out to every shard, so each shard is seeded with its
        own slice of the answer, on every healthy replica.
        """
        slices: list[list[QueryMatch]] = [[] for _ in self.shards]
        for match in matches:
            slices[self.shard_for(match.multiset_id)].append(match)
        for shard, shard_matches in zip(self.shards, slices):
            shard.warm(request, shard_matches)

    # -- queries (fan out to every shard, merge; replicas picked per shard) ----

    def query(self, request: QueryRequest) -> QueryResponse:
        """Answer one query across all shards, merged exactly.

        Within each shard the answering replica is picked round-robin.
        """
        prepared = prepare(request)
        merged: list[QueryMatch] = []
        for shard in self.shards:
            merged.extend(shard.query(prepared).matches)
        return QueryResponse(finalize_matches(merged, prepared.options),
                             prepared.options)

    def cached(self, request: QueryRequest) -> QueryResponse | None:
        """``query(request)``'s answer if every shard has it cached, else
        ``None`` — without scanning, sleeping or waiting.

        What it promises never to do, so that an event loop may call it
        between two requests: *scan* an index (every shard's answer must
        already sit in the result cache of the replica whose turn it is;
        one shard that cannot say so makes the whole call ``None``);
        *sleep* or raise an injected fault (a replica behind a
        :class:`~repro.resilience.faults.FaultPolicy` always declines);
        *wait* for a lock (each replica's lock is tried, never blocked
        on).  The work left is O(shards) dictionary reads and the merge.

        Exactness: a cache entry is keyed by its index's write version, and
        every acknowledged write has bumped that version before its ack, so
        an entry found under the current version is the answer
        :meth:`query` would compute now — provided no write is half-way
        through the fleet, which the caller rules out (the server holds
        its service lock, which every write batch takes).  Accounting is
        exact too: an answer counts one cache hit and one ``reads_served``
        per shard and refreshes LRU recency, as :meth:`query` would; a
        ``None`` counts nothing (membership is tested before anything is
        touched), so the fall-back :meth:`query` adds no extra miss.
        """
        prepared = prepare(request)
        readers: list[tuple[Replica, tuple]] = []
        try:
            for shard in self.shards:
                reader = shard.cached_reader(prepared)
                if reader is None:
                    return None
                readers.append(reader)
            merged: list[QueryMatch] = []
            for shard, reader in zip(self.shards, readers):
                merged.extend(shard.read_cached(*reader))
        finally:
            for replica, _ in readers:
                replica.lock.release()
        return QueryResponse(finalize_matches(merged, request.options),
                             request.options)

    def batch(self, requests: Sequence[QueryRequest]) -> list[QueryResponse]:
        """Execute a batch: one per-shard batch, merged per item."""
        prepared = [prepare(request) for request in requests]
        per_shard = [shard.batch(prepared) for shard in self.shards]
        return [QueryResponse(
                    finalize_matches(
                        [match for responses in per_shard
                         for match in responses[position].matches],
                        request.options),
                    request.options)
                for position, request in enumerate(prepared)]

    def neighbours(self, multiset_id: MultisetId,
                   threshold: float) -> list[QueryMatch]:
        """Threshold partners of an indexed member, excluding itself."""
        member = self.get(multiset_id)
        if member is None:
            raise ServingError(f"multiset {multiset_id!r} is not indexed")
        matches = self.query(QueryRequest.threshold(member, threshold)).matches
        return [match for match in matches
                if match.multiset_id != multiset_id]

    # -- fault plumbing --------------------------------------------------------

    def kill_replica(self, shard: int, replica: int, *,
                     lose_state: bool = True) -> Replica:
        """Crash one replica (chaos entry point); see :meth:`ReplicatedShard.kill
        <repro.serving.replica.ReplicatedShard.kill>`."""
        return self._shard_at(shard).kill(replica, lose_state=lose_state)

    def recover_replica(self, shard: int, replica: int, *,
                        source=None) -> Replica:
        """Rebuild and readmit one down replica.

        ``source`` is a directory written by :meth:`persist` (the shard's
        own file is read from it) or one shard database; without one the
        replica copies a healthy peer.
        """
        if isinstance(source, (str, os.PathLike)) and os.path.isdir(source):
            source = _shard_file(source, shard)
        return self._shard_at(shard).recover(replica, source=source)

    def _shard_at(self, shard: int) -> ReplicatedShard:
        if not 0 <= shard < self.num_shards:
            raise ResilienceError(
                f"no shard {shard} (fleet has {self.num_shards})")
        return self.shards[shard]

    def health_check(self, *, readmit: bool = True) -> dict[str, list[str]]:
        """Probe every replica; eject the broken, optionally readmit the down.

        One :meth:`ReplicatedShard.health_check
        <repro.serving.replica.ReplicatedShard.health_check>` per shard —
        the self-healing loop the serving tier runs periodically.
        """
        report: dict[str, list[str]] = {"healthy": [], "ejected": [],
                                        "readmitted": [], "down": []}
        for shard in self.shards:
            for outcome, names in shard.health_check(readmit=readmit).items():
                report[outcome].extend(names)
        return report

    # -- persistence (one SQLite file per shard) -------------------------------

    def persist(self, directory: str | os.PathLike) -> list[str]:
        """Save every shard into ``directory``; returns the paths.

        One SQLite file per shard (``shard0000.sqlite``, ...) holding one
        healthy replica's index — the replicas are exact copies, so any
        one of them is the shard.  The replication factor is not part of
        the format: :meth:`recover` restores the directory at any factor.
        A directory that cannot be created is a :class:`StorageError`.
        """
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as error:
            raise StorageError(f"cannot persist the fleet into "
                               f"{os.fspath(directory)!r}: {error}") from None
        paths = [_shard_file(directory, shard)
                 for shard in range(self.num_shards)]
        for shard, path in zip(self.shards, paths):
            shard.persist(path)
        return paths

    @classmethod
    def recover(cls, directory: str | os.PathLike, *,
                replication_factor: int = 2,
                cache_capacity: int = 1024,
                fault_policy_factory=None) -> "ReplicatedSimilarityService":
        """Restore a fleet persisted by :meth:`persist` (this or any 1.x
        release), exactly.

        Every replica of a shard loads the shard's file, so the recovered
        fleet answers every query identically to the one that persisted;
        result caches start cold.  A directory that is not exactly what
        one ``persist`` wrote — a shard file missing or extra, files that
        disagree on the measure, a member stored on a shard it does not
        route to — raises :class:`ServingError` instead of loading a fleet
        that would answer wrongly; a path that is missing or not a
        directory raises :class:`StorageError`.
        """
        try:
            entries = os.listdir(directory)
        except OSError as error:
            raise StorageError(f"cannot recover a fleet from "
                               f"{os.fspath(directory)!r}: {error}") from None
        stored = sorted(entry for entry in entries
                        if entry.startswith("shard")
                        and entry.endswith(".sqlite"))
        paths = [_shard_file(directory, shard) for shard in range(len(stored))]
        if not stored or stored != [os.path.basename(path) for path in paths]:
            raise ServingError(
                f"{os.fspath(directory)!r} holds {stored or 'no shard files'}, "
                "not the shard0000.sqlite, shard0001.sqlite, … one persist() "
                "writes; refusing to recover a partial fleet")
        service = None
        for shard, path in enumerate(paths):
            # One load per replica: each owns its index.
            indexes = [SimilarityIndex.load(path)
                       for _ in range(replication_factor)]
            if service is None:
                service = cls(indexes[0].measure, len(paths),
                              replication_factor=replication_factor,
                              cache_capacity=cache_capacity,
                              stop_word_frequency=indexes[0]
                              .stop_word_frequency,
                              fault_policy_factory=fault_policy_factory)
            elif indexes[0].measure.name != service.measure.name:
                raise ServingError(
                    f"shard files disagree on the measure: {path!r} holds "
                    f"{indexes[0].measure.name!r}, shard 0 "
                    f"{service.measure.name!r}")
            for multiset_id in indexes[0].ids():
                if service.shard_for(multiset_id) != shard:
                    raise ServingError(
                        f"{path!r} holds {multiset_id!r}, which routes to "
                        f"shard {service.shard_for(multiset_id)} of "
                        f"{len(paths)}; the directory was not written by "
                        "one persist() of a fleet this size")
            service.shards[shard].restore(indexes)
        return service

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Fleet totals: the shards' serving statistics and their
        ``resilience/*`` counters, merged as disjoint shares.

        Each shard counts every replica's work and its members once (see
        :meth:`ReplicatedShard.serving_stats
        <repro.serving.replica.ReplicatedShard.serving_stats>`), so
        ``cache/capacity`` is the fleet's total cache room and
        ``cache/hit_rate`` the fleet's.  A replica's write version is its
        own (a replica rebuilt from a peer restarts it): read it from
        :meth:`per_node_stats`.
        """
        parts: list[dict[str, float]] = []
        for shard in self.shards:
            parts.append(shard.serving_stats())
            parts.append({"resilience/healthy_replicas": shard.num_healthy(),
                          **{f"resilience/{name}": value
                             for name, value in shard.metrics.items()}})
        return {**merge(parts), "num_shards": self.num_shards,
                "replication_factor": self.replication_factor}

    def per_node_stats(self) -> dict[str, dict[str, float]]:
        """Per-replica statistics keyed by ``shardN/replicaM`` name.

        The fleet totals of :meth:`stats` hide which shard or replica is
        hot; this breakdown exposes every node's own counters.
        """
        return {replica.name: replica.stats()
                for shard in self.shards for replica in shard.replicas}

    def replica_health(self) -> dict[str, dict]:
        """The health document of every replica (the ``/admin/replicas`` body)."""
        return {shard.name: shard.health() for shard in self.shards}

    def snapshot(self) -> dict:
        """One health/statistics document for the whole fleet.

        The HTTP ``/stats`` endpoint returns exactly this document, with
        the server's own queue statistics merged alongside.  It stays
        readable while a shard has no healthy replica (that shard's
        members are then missing from ``indexed_multisets``).
        """
        totals = self.stats()
        return {
            "measure": self.measure.name,
            "num_shards": self.num_shards,
            "replication_factor": self.replication_factor,
            "indexed_multisets": totals.get("indexed_multisets", 0),
            "totals": totals,
            "per_node": self.per_node_stats(),
            "replica_health": self.replica_health(),
        }

    def __repr__(self) -> str:
        healthy = sum(shard.num_healthy() for shard in self.shards)
        total = sum(shard.replication_factor for shard in self.shards)
        return (f"ReplicatedSimilarityService(measure={self.measure.name!r}, "
                f"shards={self.num_shards}, "
                f"replicas={healthy}/{total} healthy)")
