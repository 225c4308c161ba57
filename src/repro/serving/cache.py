"""An LRU result cache for the serving layer.

Query results are pure functions of the indexed state, so a
:class:`~repro.serving.node.ServingNode` can cache them keyed by the query's
content signature and parameters — as long as every write invalidates the
cache (the indexed state the entries were computed against is gone).  The
replay workloads that motivate the serving subsystem are Zipf-skewed, so a
small LRU holds the popular queries and absorbs most of the traffic.

The cache counts its lookups into a :class:`~repro.telemetry.Metrics` map
under ``cache/*`` names; a node hands it the map its index counts into.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

from repro.core.exceptions import ServingError
from repro.core.knobs import INT, check
from repro.telemetry import Metrics

#: What the cache counts, zero until it happens.
COUNTERS = ("cache/hits", "cache/misses", "cache/evictions",
            "cache/invalidations")


class LRUResultCache:
    """A bounded mapping with least-recently-used eviction.

    ``capacity=0`` disables caching entirely (every lookup misses), which
    the benchmarks use to isolate raw index throughput.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = check(capacity, INT, "cache capacity", ServingError,
                              at_least=0)
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.metrics = Metrics()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Any | None:
        """Return the cached value (refreshing its recency), or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.metrics["cache/misses"] += 1
            return None
        self._entries.move_to_end(key)
        self.metrics["cache/hits"] += 1
        return entry

    def put(self, key: Hashable, value: Any) -> None:
        """Insert a value, evicting the least recently used entry if full."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.metrics["cache/evictions"] += 1

    def invalidate(self) -> None:
        """Drop every entry; called on each write to the backing index."""
        if self._entries:
            self._entries.clear()
        self.metrics["cache/invalidations"] += 1

    def __repr__(self) -> str:
        return f"LRUResultCache(entries={len(self._entries)}/{self.capacity})"
