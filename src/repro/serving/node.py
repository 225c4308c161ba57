"""One serving node: an index plus a result cache and batched execution.

:class:`ServingNode` is the unit of deployment of the serving subsystem —
the sharded service is simply a hash-routed collection of nodes.  It adds
two production concerns on top of the raw
:class:`~repro.serving.index.SimilarityIndex`:

* an LRU result cache keyed by the query's *content signature* (identifier
  ignored — two queries with the same elements and multiplicities are the
  same query) together with the index's write version, so cached answers
  can never go stale — even writes applied directly to ``node.index``
  orphan the old entries.  Writes through the node additionally clear the
  cache to reclaim the memory of those unreachable entries;
* batched query execution that computes each distinct query signature once
  per batch and fans the result back out, so replayed/duplicated traffic
  pays one index scan even when the cache is cold or disabled.

A node derives nothing from the query itself: it takes — or, called
directly, builds — a :class:`~repro.serving.index.PreparedQuery` and makes
each cache key once, from its eager signature; the lazy scan form is touched
only by an index that has to scan, so a cache hit costs the signature alone.

The index's scans and the cache's lookups count into one
:class:`~repro.telemetry.Metrics` map: the node's own, or the one it was
built with — a replica hands every node it builds its map, so what its
nodes counted survives a node being replaced.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.multiset import Multiset, MultisetId
from repro.serving.api import QueryMatch, QueryRequest, QueryResponse
from repro.serving.cache import COUNTERS, LRUResultCache
from repro.serving.index import PreparedQuery, SimilarityIndex, prepare
from repro.similarity.base import NominalSimilarityMeasure
from repro.telemetry import Metrics, read


class ServingNode:
    """A similarity index fronted by an invalidating LRU result cache."""

    def __init__(self, measure: str | NominalSimilarityMeasure = "ruzicka",
                 *, cache_capacity: int = 1024,
                 stop_word_frequency: int | None = None,
                 name: str = "node0", metrics: Metrics | None = None) -> None:
        self.index = SimilarityIndex(measure,
                                     stop_word_frequency=stop_word_frequency)
        self.cache = LRUResultCache(cache_capacity)
        self.metrics = self.index.metrics = self.cache.metrics = (
            Metrics() if metrics is None else metrics)
        self.name = name

    @property
    def measure(self) -> NominalSimilarityMeasure:
        """The measure this node serves."""
        return self.index.measure

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, multiset_id: object) -> bool:
        return multiset_id in self.index

    def get(self, multiset_id: MultisetId) -> Multiset | None:
        """The indexed multiset with this identifier, if any."""
        return self.index.get(multiset_id)

    @property
    def stop_word_frequency(self) -> int | None:
        """The index's stop-word pruning limit (``None``: exact)."""
        return self.index.stop_word_frequency

    # -- writes (every write invalidates the cache) ----------------------------

    def add(self, multiset: Multiset, replace: bool = False) -> None:
        """Index a multiset and invalidate cached results."""
        self.index.add(multiset, replace=replace)
        self.cache.invalidate()

    def remove(self, multiset_id: MultisetId) -> None:
        """Drop a multiset and invalidate cached results."""
        self.index.remove(multiset_id)
        self.cache.invalidate()

    def bulk_load(self, multisets: Iterable[Multiset],
                  replace: bool = False) -> int:
        """Add many multisets under a single cache invalidation.

        The invalidation runs even when a record part-way through the batch
        is rejected — the index has already been mutated by then, so cached
        results must not survive the failure.
        """
        try:
            return self.index.bulk_load(multisets, replace=replace)
        finally:
            self.cache.invalidate()

    # -- persistence -----------------------------------------------------------

    def persist(self, destination) -> None:
        """Save this node's index to a SQLite database (path or engine).

        Convenience over
        :meth:`SimilarityIndex.save <repro.serving.index.SimilarityIndex.save>`;
        the result cache is deliberately not persisted (it is a
        version-keyed memoisation, rebuilt for free by live traffic).  A
        node restarted over ``SimilarityIndex.load(path)`` answers every
        query identically to the one that persisted.
        """
        self.index.save(destination)

    # -- queries ---------------------------------------------------------------

    def cached_key(self, prepared: PreparedQuery) -> tuple | None:
        """The key the request's answer is cached under now, else ``None``.

        A membership test only: no hit or miss is counted and no entry's
        recency moves, so a caller that goes on to :meth:`query` leaves
        the statistics exactly as if it had not looked.
        """
        key = (prepared.options, self.index.version, prepared.signature)
        return key if key in self.cache else None

    def query(self, request: "QueryRequest | PreparedQuery") -> QueryResponse:
        """Answer one unified-API query, served from the result cache.

        The key includes the index's write version: no entry from before a
        write, even one applied directly to :attr:`index`, is ever returned.
        """
        prepared = prepare(request)
        key = (prepared.options, self.index.version, prepared.signature)
        matches = self.cache.get(key)
        if matches is None:
            matches = self.index.query(prepared).matches
            self.cache.put(key, matches)
        return QueryResponse(matches, prepared.options)

    def batch(self, requests: Sequence) -> list[QueryResponse]:
        """Execute a batch of requests, one index scan per distinct request.

        Distinctness is by content signature *and* options, so replayed or
        coalesced traffic pays a single scan even when the cache is cold or
        disabled; the computed answer fans back out to every duplicate.
        """
        responses_by_content: dict[tuple, QueryResponse] = {}
        responses: list[QueryResponse] = []
        for request in requests:
            prepared = prepare(request)
            content = (prepared.options, prepared.signature)
            response = responses_by_content.get(content)
            if response is None:
                response = responses_by_content[content] = self.query(prepared)
            responses.append(response)
        return responses

    # -- cache warm-up (used by the join bootstrap) ----------------------------

    def warm(self, request: QueryRequest,
             matches: Sequence[QueryMatch]) -> None:
        """Seed the cache with a precomputed answer for ``request``."""
        prepared = prepare(request)
        self.cache.put((prepared.options, self.index.version,
                        prepared.signature), tuple(matches))

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """What this node counted, its cache room and its members."""
        return read({**dict.fromkeys(COUNTERS, 0), **self.metrics,
                     "cache/entries": len(self.cache),
                     "cache/capacity": self.cache.capacity,
                     "indexed_multisets": len(self.index)})

    def __repr__(self) -> str:
        return (f"ServingNode(name={self.name!r}, "
                f"measure={self.index.measure.name!r}, "
                f"multisets={len(self.index)})")
