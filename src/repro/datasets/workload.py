"""Query- and mutation-workload generation for the serving benchmarks.

Online similarity traffic is as skewed as the data itself: a few hot
entities are queried over and over (the proxies everybody investigates)
while the long tail is touched once.  The generator reproduces that with a
bounded Zipf distribution over the indexed multisets — the same machinery
as the dataset generators (:mod:`repro.datasets.zipf`) — so the serving
benchmarks exercise realistic cache behaviour: repeated queries hit the LRU
result cache, the tail misses it.

Optionally, a fraction of the queries are *perturbed* copies of their source
multiset (an element dropped, a multiplicity bumped), modelling lookups for
entities that drifted since the index was built; perturbed queries defeat
the result cache, bounding the hit rate the way fresh traffic does.

*Write* traffic is skewed the same way: the hot entities accumulate new
observations (updates), fresh entities appear (inserts) and dead ones are
retired (deletes).  :func:`generate_mutation_stream` replays that churn as
seeded :class:`~repro.streaming.changes.ChangeBatch` sequences against an
evolving live set, with a Zipf-skewed choice of update/delete targets, for
the incremental view-maintenance subsystem and its benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.exceptions import DatasetError
from repro.core.multiset import Multiset
from repro.datasets.zipf import BoundedZipf


@dataclass(frozen=True)
class QueryWorkloadConfig:
    """Parameters of a synthetic query replay."""

    num_queries: int = 1_000
    #: Zipf exponent of the query popularity ranks (1.0+ = heavy repeats).
    zipf_exponent: float = 1.2
    #: Probability that a query is a perturbed copy of its source multiset.
    perturbation_probability: float = 0.0
    #: Random seed.
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_queries < 0:
            raise DatasetError(
                f"num_queries must be non-negative, got {self.num_queries}")
        if self.zipf_exponent <= 0:
            raise DatasetError(
                f"zipf_exponent must be positive, got {self.zipf_exponent}")
        if not (0.0 <= self.perturbation_probability <= 1.0):
            raise DatasetError("perturbation_probability must be in [0, 1]")


def generate_query_workload(multisets: Sequence[Multiset],
                            config: QueryWorkloadConfig | None = None,
                            ) -> list[Multiset]:
    """Generate a Zipf-skewed replay of queries against ``multisets``.

    Each query is a copy of a member multiset (under a fresh ``q<i>``
    identifier so queries never collide with indexed entities), drawn with
    Zipf-skewed popularity: the member at popularity rank 1 is queried far
    more often than the tail.  Popularity ranks are a random permutation of
    the members, so hot queries are not biased toward any generation order.
    """
    config = config or QueryWorkloadConfig()
    if not multisets:
        raise DatasetError("cannot generate a query workload over no multisets")
    rng = np.random.default_rng(config.seed)
    rank_to_member = rng.permutation(len(multisets))
    distribution = BoundedZipf(len(multisets), config.zipf_exponent)
    ranks = distribution.sample(rng, config.num_queries)

    queries: list[Multiset] = []
    for position, rank in enumerate(ranks):
        source = multisets[int(rank_to_member[int(rank) - 1])]
        query = source.with_id(f"q{position:06d}")
        if (config.perturbation_probability > 0.0
                and rng.random() < config.perturbation_probability):
            query = _perturb(query, rng)
        queries.append(query)
    return queries


def _perturb(query: Multiset, rng: np.random.Generator) -> Multiset:
    """Return a slightly drifted copy: drop one element, bump another."""
    counts = query.counts()
    if not counts:
        return query
    if len(counts) > 1:
        elements = list(counts)
        del counts[elements[int(rng.integers(0, len(elements)))]]
    bumped = list(counts)[int(rng.integers(0, len(counts)))]
    counts[bumped] += 1
    return Multiset(query.id, counts)


@dataclass(frozen=True)
class MutationStreamConfig:
    """Parameters of a synthetic mutation (churn) stream.

    Each batch holds ``batch_size`` changes drawn from the configured
    update / insert / delete mix.  Updates and deletes pick their targets
    with Zipf-skewed popularity over the live entities (hot entities churn
    most, like the query side); updates perturb the target's current
    contents, inserts add perturbed copies of a popular entity under fresh
    identifiers.  The stream is internally consistent: deletes always name
    an entity that is live at that point, and the live set never empties.
    """

    num_batches: int = 10
    batch_size: int = 20
    #: Fractions of the update / insert / delete mix (must sum to 1).
    update_fraction: float = 0.6
    insert_fraction: float = 0.2
    delete_fraction: float = 0.2
    #: Zipf exponent of the target popularity ranks.
    zipf_exponent: float = 1.2
    #: Random seed.
    seed: int = 11

    def __post_init__(self) -> None:
        if self.num_batches < 0:
            raise DatasetError(
                f"num_batches must be non-negative, got {self.num_batches}")
        if self.batch_size < 1:
            raise DatasetError(
                f"batch_size must be >= 1, got {self.batch_size}")
        fractions = (self.update_fraction, self.insert_fraction,
                     self.delete_fraction)
        if any(fraction < 0 for fraction in fractions):
            raise DatasetError("churn-mix fractions must be non-negative")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise DatasetError(
                f"churn-mix fractions must sum to 1, got {sum(fractions)}")
        if self.zipf_exponent <= 0:
            raise DatasetError(
                f"zipf_exponent must be positive, got {self.zipf_exponent}")


def generate_mutation_stream(multisets: Sequence[Multiset],
                             config: MutationStreamConfig | None = None):
    """Generate seeded churn against ``multisets``: a list of change batches.

    The batches are applicable in order to any view or index loaded with
    ``multisets``: every delete names an identifier that is live at that
    point in the stream, updates rewrite live entities (Zipf-skewed toward
    the popular head, which stays hot for the whole stream), and inserts
    introduce fresh ``n<i>`` identifiers that never collide with existing
    ones.  The generator never lets the live set drop below one entity (a
    delete that would do so becomes an insert).
    """
    # Deferred: repro.streaming imports the engine machinery, and the
    # dataset package must stay importable without it at module-load time.
    from repro.streaming.changes import Change, ChangeBatch

    config = config or MutationStreamConfig()
    if not multisets:
        raise DatasetError("cannot generate a mutation stream over no multisets")
    rng = np.random.default_rng(config.seed)
    # Fixed popularity order: a random permutation of the initial members,
    # with inserted entities appended to the cold tail.
    order = [multiset.id
             for multiset in (multisets[int(position)]
                              for position in rng.permutation(len(multisets)))]
    live: dict = {multiset.id: multiset for multiset in multisets}
    distribution = BoundedZipf(len(multisets), config.zipf_exponent)
    inserted = 0
    batches = []
    for _batch in range(config.num_batches):
        changes = []
        for _change in range(config.batch_size):
            rank = distribution.sample_one(rng)
            target_id = order[(rank - 1) % len(order)]
            draw = rng.random()
            if draw < config.update_fraction:
                replacement = _perturb(live[target_id], rng)
                live[target_id] = replacement
                changes.append(Change.upsert(replacement))
            elif (draw < config.update_fraction + config.insert_fraction
                  or len(live) <= 1):
                fresh_id = f"n{inserted:06d}"
                inserted += 1
                fresh = _perturb(live[target_id], rng).with_id(fresh_id)
                live[fresh_id] = fresh
                order.append(fresh_id)
                changes.append(Change.upsert(fresh))
            else:
                live.pop(target_id)
                order.remove(target_id)
                changes.append(Change.delete(target_id))
        batches.append(ChangeBatch(changes))
    return batches


@dataclass(frozen=True)
class RequestWorkloadConfig:
    """Parameters of a synthetic unified-API request replay.

    Builds on :class:`QueryWorkloadConfig` for the query multisets, then
    wraps each one in a :class:`~repro.serving.api.QueryRequest` with a
    configured threshold / top-k mix — the request stream the serving tier
    and its HTTP front end execute directly.
    """

    num_requests: int = 1_000
    #: Fraction of requests that are threshold queries (the rest are top-k).
    threshold_fraction: float = 0.7
    #: Similarity threshold of the threshold requests.
    threshold: float = 0.5
    #: ``k`` of the top-k requests.
    k: int = 10
    #: Zipf exponent of the query popularity ranks.
    zipf_exponent: float = 1.2
    #: Probability that a query is a perturbed copy of its source multiset.
    perturbation_probability: float = 0.0
    #: Random seed.
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_requests < 0:
            raise DatasetError(
                f"num_requests must be non-negative, got {self.num_requests}")
        if not (0.0 <= self.threshold_fraction <= 1.0):
            raise DatasetError("threshold_fraction must be in [0, 1]")
        if not (0.0 < self.threshold <= 1.0):
            raise DatasetError(
                f"threshold must be in (0, 1], got {self.threshold}")
        if self.k < 1:
            raise DatasetError(f"k must be >= 1, got {self.k}")
        if self.zipf_exponent <= 0:
            raise DatasetError(
                f"zipf_exponent must be positive, got {self.zipf_exponent}")
        if not (0.0 <= self.perturbation_probability <= 1.0):
            raise DatasetError("perturbation_probability must be in [0, 1]")


def generate_request_workload(multisets: Sequence[Multiset],
                              config: RequestWorkloadConfig | None = None):
    """Generate a seeded stream of :class:`~repro.serving.api.QueryRequest`.

    The query multisets come from :func:`generate_query_workload` (same
    Zipf-skewed popularity and optional perturbation); each is wrapped as a
    threshold or top-k request per the configured mix.  The kind draw uses
    its own seeded stream, so the multiset sequence is identical for every
    mix — mix sweeps compare like against like.
    """
    # Deferred: the dataset package stays importable without the serving
    # machinery at module-load time (same idiom as the streaming import).
    from repro.serving.api import QueryRequest

    config = config or RequestWorkloadConfig()
    queries = generate_query_workload(multisets, QueryWorkloadConfig(
        num_queries=config.num_requests,
        zipf_exponent=config.zipf_exponent,
        perturbation_probability=config.perturbation_probability,
        seed=config.seed))
    kind_rng = np.random.default_rng(config.seed + 1)
    requests = []
    for query in queries:
        if kind_rng.random() < config.threshold_fraction:
            requests.append(QueryRequest.threshold(query, config.threshold))
        else:
            requests.append(QueryRequest.topk(query, config.k))
    return requests


def generate_open_loop_arrivals(num_requests: int, rate_per_second: float,
                                *, seed: int = 13) -> list[float]:
    """Poisson-process arrival offsets (seconds) for an open-loop replay.

    Closed-loop load generators hide queueing collapse: a slow server slows
    its own clients down, so the measured latency stays flat.  Open-loop
    replay fires requests at their scheduled arrival times regardless of
    completions — the standard way to observe latency under a fixed offered
    load.  Inter-arrival gaps are exponential with mean ``1/rate``, so the
    offsets form a seeded Poisson process starting at 0.0.
    """
    if num_requests < 0:
        raise DatasetError(
            f"num_requests must be non-negative, got {num_requests}")
    if rate_per_second <= 0:
        raise DatasetError(
            f"rate_per_second must be positive, got {rate_per_second}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_per_second, size=max(num_requests, 0))
    offsets: list[float] = []
    elapsed = 0.0
    for position, gap in enumerate(gaps):
        if position > 0:
            elapsed += float(gap)
        offsets.append(elapsed)
    return offsets
