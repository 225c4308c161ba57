"""Warm-starting a serving fleet from a batch join.

The intended deployment story mirrors the paper's production setting: the
batch V-SMART-Join pipeline runs periodically over the full log, and the
online serving fleet is (re)built from its output.  :func:`bootstrap_from_join`
covers both halves:

* the *index* is built from the dataset itself — a pipeline
  :class:`~repro.mapreduce.dfs.Dataset` of raw input tuples, raw
  :class:`~repro.core.records.InputTuple` records, or assembled multisets;
* when the engine's :class:`~repro.engine.result.JoinResult` is supplied,
  the node caches are *warmed* from its similar pairs: for every indexed
  member the threshold-query answer at the join threshold is already known
  (its join partners, plus itself), so member queries hit the cache without
  ever scanning a posting list.

The join itself runs where every join runs, on the engine; the one-call
warm start is ``engine.run(spec, data).to_service(num_shards=...)``.
:func:`multisets_from_input` is the one input normaliser: the engine and
the bootstrap both accept whatever it accepts.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.core.exceptions import ServingError
from repro.core.knobs import OPTIONAL_FINITE, OPTIONAL_INT, check
from repro.core.multiset import Multiset
from repro.core.records import (
    InputTuple,
    assemble_multisets,
    resolve_record_type,
)
from repro.serving.api import QueryMatch, QueryRequest, sort_matches
from repro.serving.service import ReplicatedSimilarityService
from repro.similarity.base import NominalSimilarityMeasure
from repro.similarity.partials import fold_uni_multiplicities
from repro.similarity.registry import get_measure

if TYPE_CHECKING:  # the engine package imports this module's normaliser
    from repro.engine.result import JoinResult
    from repro.mapreduce.dfs import Dataset


def multisets_from_input(
        data: Iterable[Multiset] | Dataset | Sequence[InputTuple] | Mapping,
) -> list[Multiset]:
    """Normalise any pipeline-input shape into a list of multisets."""
    # Imported here: a serving process never loads the MapReduce simulator.
    from repro.mapreduce.dfs import Dataset

    if isinstance(data, Mapping):
        members = list(data.values())
        if members:
            resolve_record_type(members, (Multiset,))
        return members
    if isinstance(data, Dataset):
        return list(assemble_multisets(data.records).values())
    materialised = list(data)
    if not materialised:
        return []
    record_type = resolve_record_type(materialised, (Multiset, InputTuple))
    if record_type is Multiset:
        return materialised
    return list(assemble_multisets(materialised).values())


def bootstrap_from_join(
        data: "Iterable[Multiset] | Dataset | Sequence[InputTuple] | Mapping "
              "| str | os.PathLike",
        join_result: JoinResult | None = None,
        *, measure: str | NominalSimilarityMeasure | None = None,
        threshold: float | None = None,
        num_shards: int = 1,
        cache_capacity: int | None = None,
        stop_word_frequency: int | None = None,
        ) -> ReplicatedSimilarityService:
    """Build a serving fleet (replication factor 1) from batch data,
    optionally cache-warmed.

    With ``join_result`` given (what :meth:`SimilarityEngine.run
    <repro.engine.engine.SimilarityEngine.run>` returned;
    :meth:`JoinResult.to_service <repro.engine.result.JoinResult.to_service>`
    is this call), the measure and threshold default to the join's spec
    (explicit arguments must agree with it), and each member's
    threshold-query answer is seeded into its shards' caches from the
    join's similar pairs.  ``cache_capacity`` defaults to whatever is
    large enough to hold every warmed entry (at least 1024); an explicit
    capacity too small to hold the warm-up is rejected rather than letting
    the LRU silently evict most of it.

    ``data`` also accepts the path of a stored join result (written by
    :meth:`JoinResult.to_sqlite <repro.engine.result.JoinResult.to_sqlite>`):
    the corpus is read from the database, and — unless an explicit
    ``join_result`` overrides it — the stored pairs warm the caches, so a
    fleet restarts from one file, no recomputation.
    """
    threshold = check(threshold, OPTIONAL_FINITE, "threshold", ServingError)
    cache_capacity = check(cache_capacity, OPTIONAL_INT, "cache_capacity",
                           ServingError)
    if isinstance(data, (str, os.PathLike)):
        from repro.engine.result import JoinResult

        stored = JoinResult.from_sqlite(data, lazy=False)
        data = stored.multisets
        if join_result is None:
            join_result = stored
    multisets = multisets_from_input(data)
    if join_result is not None:
        spec = join_result.spec
        join_measure = get_measure(spec.measure)
        if measure is None:
            measure = join_measure
        elif get_measure(measure).name != join_measure.name:
            raise ServingError(
                f"bootstrap measure {get_measure(measure).name!r} does not "
                f"match the join's measure {join_measure.name!r}")
        if threshold is None:
            threshold = spec.threshold
        elif threshold != spec.threshold:
            raise ServingError(
                f"bootstrap threshold {threshold!r} does not match the "
                f"join's threshold {spec.threshold!r}")
        if spec.stop_word_frequency is not None:
            raise ServingError(
                "cannot warm caches from a join that discarded stop words: "
                "its pairs were computed on filtered data and would not "
                "match live query results")
        if stop_word_frequency is not None:
            raise ServingError(
                "cannot warm caches for an index with stop-word pruning: "
                "the join's exact pairs would not match what live queries "
                "compute once the cache is invalidated")
    else:
        if threshold is not None:
            raise ServingError(
                "threshold is only meaningful together with a join_result "
                "(it selects which cached answers to warm); queries take "
                "their own threshold per call")
        if measure is None:
            measure = "ruzicka"

    # Each member warms one entry in every shard's cache, so each node needs
    # room for len(multisets) entries to retain the whole warm-up.
    if cache_capacity is None:
        cache_capacity = max(1024, len(multisets)) if join_result is not None \
            else 1024
    elif join_result is not None and cache_capacity < len(multisets):
        raise ServingError(
            f"cache_capacity {cache_capacity} cannot hold warm entries for "
            f"{len(multisets)} multisets; pass cache_capacity >= "
            f"{len(multisets)} or omit it to auto-size")
    service = ReplicatedSimilarityService(
        measure, num_shards, replication_factor=1,
        cache_capacity=cache_capacity,
        stop_word_frequency=stop_word_frequency)
    service.bulk_load(multisets)

    if join_result is not None and threshold is not None:
        _warm_from_pairs(service, multisets, join_result, threshold)
    return service


def warm_member_caches(target, members: Sequence[Multiset], matches_for,
                       threshold: float) -> None:
    """Seed each member's threshold-query answer into ``target``'s caches.

    ``target`` is a fleet or a single :class:`~repro.serving.node.ServingNode`
    — anything with ``measure`` and ``warm(request, matches)``; a fleet
    slices each answer over its shards and seeds every healthy replica.
    ``matches_for(member)`` supplies the member's partner matches at
    ``threshold`` (self excluded); the member's own entry is appended when
    its self-similarity reaches the threshold.  Shared by the join
    bootstrap and the streaming serving subscriber, so the warming
    algorithm exists exactly once.
    """
    measure = target.measure
    for member in members:
        matches = list(matches_for(member))
        # Both sides of a live scan fold Uni this way (query side:
        # PreparedQuery.scan_form), so the seeded score is the live one.
        uni = fold_uni_multiplicities(measure, member.values())
        self_similarity = measure.combine(
            uni, uni, measure.conjunctive(member, member))
        if self_similarity >= threshold:
            matches.append(QueryMatch(member.id, self_similarity))
        target.warm(QueryRequest.threshold(member, threshold),
                    sort_matches(matches))


def _warm_from_pairs(service: ReplicatedSimilarityService,
                     multisets: Sequence[Multiset],
                     join_result: JoinResult,
                     threshold: float) -> None:
    """Seed every shard's cache with the join's per-member answers."""
    indexed_ids = {member.id for member in multisets}
    partners: dict = {}
    for pair in join_result.pairs:
        for multiset_id in (pair.first, pair.second):
            if multiset_id not in indexed_ids:
                raise ServingError(
                    f"join result references multiset {multiset_id!r} which "
                    "is not in the bootstrap data; cache warm-up needs the "
                    "join and the data to describe the same collection")
        partners.setdefault(pair.first, []).append(
            QueryMatch(pair.second, pair.similarity))
        partners.setdefault(pair.second, []).append(
            QueryMatch(pair.first, pair.similarity))

    warm_member_caches(service, multisets,
                       lambda member: partners.get(member.id, []), threshold)
