"""Exact in-memory similarity evaluation.

These helpers are the *reference implementation* against which the
distributed pipelines are validated: every integration test compares the
pair set produced by a MapReduce driver with :func:`all_pairs_exact` on the
same data.  :func:`all_pairs_exact` is intentionally simple (quadratic in
the number of multisets) and only suitable for small inputs;
:func:`all_pairs_inverted_index` is the one sequential filter join, which
verifies only the pairs that share an element.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping

from repro.core.interning import intern_corpus
from repro.core.multiset import Multiset, MultisetId
from repro.core.records import SimilarPair, canonical_pair
from repro.similarity.base import NominalSimilarityMeasure, validate_threshold
from repro.similarity.kernels import interned_similarity, interned_unilateral
from repro.similarity.registry import get_measure


def compute_similarity(measure: str | NominalSimilarityMeasure,
                       entity_i: Multiset, entity_j: Multiset) -> float:
    """Compute ``Sim(Mi, Mj)`` exactly for two in-memory multisets."""
    return get_measure(measure).similarity(entity_i, entity_j)


def all_pairs_exact(multisets: Iterable[Multiset] | Mapping[MultisetId, Multiset],
                    measure: str | NominalSimilarityMeasure,
                    threshold: float,
                    intern: bool = False) -> list[SimilarPair]:
    """Brute-force all-pair similarity join over in-memory multisets.

    Every unordered pair is evaluated exactly; pairs whose similarity is at
    least ``threshold`` are returned in canonical order.  This is the ground
    truth used to validate both the V-SMART-Join pipelines and the VCL
    baseline (the paper notes all algorithms produce identical pair counts).

    ``intern=True`` evaluates the same quadratic sweep on the interned
    array kernels (:mod:`repro.similarity.kernels`) instead of the
    per-element dict probes.  The results are identical; the default stays
    ``False`` so the function remains an *independent* reference for tests
    that validate the kernels themselves.  The kernel microbenchmark times
    the two modes against each other.
    """
    resolved = get_measure(measure)
    limit = validate_threshold(threshold)
    if isinstance(multisets, Mapping):
        entities = list(multisets.values())
    else:
        entities = list(multisets)
    results: list[SimilarPair] = []
    if intern and resolved.requires_disjunctive:
        # Disjunctive measures override .similarity() wholesale (their F()
        # is not computable from Uni/Conj), so the kernel path cannot apply.
        intern = False
    if intern:
        _dictionary, interned = intern_corpus(entities)
        unis = [interned_unilateral(resolved, entity) for entity in interned]
        for index_i, index_j in combinations(range(len(interned)), 2):
            similarity = interned_similarity(
                resolved, interned[index_i], interned[index_j],
                unis[index_i], unis[index_j])
            if similarity >= limit:
                results.append(SimilarPair.make(interned[index_i].id,
                                                interned[index_j].id,
                                                similarity))
        results.sort()
        return results
    for entity_i, entity_j in combinations(entities, 2):
        similarity = resolved.similarity(entity_i, entity_j)
        if similarity >= limit:
            results.append(SimilarPair.make(entity_i.id, entity_j.id, similarity))
    results.sort()
    return results


def all_pairs_inverted_index(multisets: Iterable[Multiset],
                             measure: str | NominalSimilarityMeasure,
                             threshold: float,
                             stop_word_frequency: int | None = None
                             ) -> list[SimilarPair]:
    """Exact all-pair join driven by an in-memory inverted index.

    The Sarawagi and Kirpal [29] style join, the single-machine ancestor of
    the V-SMART-Join similarity phase: an index from elements to the
    multisets holding them gives the candidate pairs (pairs sharing at
    least one element), and each candidate is verified exactly.  A
    candidate whose ``Uni`` values alone bound the similarity below the
    threshold (``similarity_upper_bound(Uni_i, Uni_j) < t``, the measure's
    own ``combine`` of a ``Conj`` bound, as Similarity1 and the serving
    index prune) is skipped, so no pair the final ``similarity >= t`` test
    would keep is lost.  With ``stop_word_frequency`` set, an element whose
    posting list is longer than it contributes no candidates (the
    sequential analogue of the paper's stop-word preprocessing, and as
    approximate).  Returns the pairs in canonical order.
    """
    resolved = get_measure(measure)
    limit = validate_threshold(threshold)
    entities = {multiset.id: multiset for multiset in multisets}
    unis = {entity_id: resolved.unilateral(entity)
            for entity_id, entity in entities.items()}
    index: dict = {}
    for entity in entities.values():
        for element in entity.underlying_set:
            index.setdefault(element, []).append(entity.id)
    candidates: set[tuple] = set()
    for postings in index.values():
        if (stop_word_frequency is not None
                and len(postings) > stop_word_frequency):
            continue
        for first_id, second_id in combinations(postings, 2):
            candidates.add(canonical_pair(first_id, second_id))
    upper_bound = resolved.similarity_upper_bound
    results: list[SimilarPair] = []
    for first_id, second_id in candidates:
        if upper_bound(unis[first_id], unis[second_id]) < limit:
            continue
        similarity = resolved.similarity(entities[first_id],
                                         entities[second_id])
        if similarity >= limit:
            results.append(SimilarPair(first_id, second_id, similarity))
    results.sort()
    return results


def pair_dictionary(pairs: Iterable[SimilarPair]) -> dict[tuple, float]:
    """Index similar pairs by their canonical identifier pair.

    Handy in tests for comparing the output of two algorithms while allowing
    tiny floating-point differences in the similarity values.
    """
    return {pair.pair: pair.similarity for pair in pairs}
