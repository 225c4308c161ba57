"""One statistics spine: flat ``name -> number`` maps and the one roll-up rule.

Every component that counts — a MapReduce task, a similarity index, a
result cache, a replica set, an admission queue, a circuit breaker, a
fault policy — counts into a :class:`Metrics` map, inline
(``metrics["cache/hits"] += 1``: a dictionary update, never a call per
event), and its statistics are a read of that map.

How a statistic rolls up over several maps is a property of the statistic,
so it is declared once, here, in :data:`KINDS`:

* ``SUM`` — counters, the default for a name the table does not declare
  (and which only ever grow), plus declared per-copy resources such as
  ``cache/capacity`` (they add up, but can also go down);
* ``MAX`` — high-water marks such as ``shuffle/peak_buffer_bytes``;
* ``ONE`` — replicated data such as ``indexed_multisets``: copies of one
  data set agree on it, so it is read from one healthy copy, while
  disjoint shares of the data add up;
* a :class:`Ratio` — derived when read, from two counters, such as
  ``cache/hit_rate``: never stored, never summed.

:func:`merge` is the one roll-up every layer goes through: a pipeline's
job counters, a shard's replicas, a fleet's shards.  :func:`read` derives
the ratios of one map.  This module imports nothing from the package.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

SUM = "sum"
MAX = "max"
ONE = "one"


class Ratio(NamedTuple):
    """A statistic derived at read time: ``numerator / sum(denominator)``,
    ``0.0`` while that sum is zero."""

    numerator: str
    denominator: tuple[str, ...]


class Metrics(dict):
    """A flat ``name -> number`` map; a name never counted reads as ``0``."""

    __slots__ = ()

    def __missing__(self, name: str) -> int:
        return 0


#: How each statistic rolls up.  A name not listed is a counter (``SUM``).
KINDS: dict[str, str | Ratio] = {
    # Per-copy resources: they add up over copies and shares like counters,
    # but shrink when entries are invalidated or replicas go down.
    "cache/capacity": SUM,
    "cache/entries": SUM,
    "resilience/healthy_replicas": SUM,
    "shuffle/peak_buffer_bytes": MAX,
    "max_batch_observed": MAX,
    "indexed_multisets": ONE,
    "cache/hit_rate": Ratio("cache/hits", ("cache/hits", "cache/misses")),
    "mean_batch_size": Ratio("executed_items", ("executed_batches",)),
}

_RATIOS = {name: kind for name, kind in KINDS.items()
           if isinstance(kind, Ratio)}


def is_counter(name: str) -> bool:
    """Whether ``name`` is a counter: a statistic that never decreases."""
    return name not in KINDS


def read(stats: Mapping[str, float]) -> dict[str, float]:
    """``stats`` as a plain dict, plus every ratio whose numerator it holds."""
    snapshot = dict(stats)
    for name, ratio in _RATIOS.items():
        if ratio.numerator in snapshot:
            total = sum(snapshot.get(term, 0) for term in ratio.denominator)
            snapshot[name] = snapshot[ratio.numerator] / total if total else 0.0
    return snapshot


def merge(parts: Iterable[Mapping[str, float]],
          copies: Iterable[Mapping[str, float]] = ()) -> dict[str, float]:
    """Roll maps up into one, each statistic by its declared kind.

    ``parts`` are disjoint shares of the work and the data (a pipeline's
    jobs, a fleet's shards, a shard's one healthy copy); ``copies`` are
    replicas of data a part already holds.  ``SUM`` statistics add up and
    ``MAX`` ones keep the largest over both; a ``ONE`` statistic adds up
    over the parts and is skipped in the copies; ratios are derived from
    the merged counters, whatever the inputs said.
    """
    merged: dict[str, float] = {}
    for maps, shares in ((parts, True), (copies, False)):
        for stats in maps:
            for name, value in stats.items():
                kind = KINDS.get(name, SUM)
                if kind is SUM or (kind is ONE and shares):
                    merged[name] = merged.get(name, 0) + value
                elif kind is MAX:
                    merged[name] = max(merged.get(name, 0), value)
    return read(merged)
