"""Sequential inverted-index similarity join (Sarawagi and Kirpal [29] style).

Builds an in-memory inverted index from elements to the multisets containing
them, generates candidate pairs from the postings (pairs sharing at least
one element) and verifies each candidate exactly.  This is the single-machine
ancestor of the V-SMART-Join similarity phase: the candidate generation is
identical, only centralised.

Two refinements from the literature are included:

* *size filtering* — a candidate whose ``Uni`` values alone bound the
  similarity below the threshold (``similarity_upper_bound(Uni_i, Uni_j) <
  t``, the measure's own ``combine`` of a ``Conj`` bound, as Similarity1 and
  the serving index prune) is skipped, so no pair the final ``similarity >=
  t`` test would keep is lost;
* *stop-word skipping* (optional) — elements whose posting list exceeds a
  frequency limit contribute no candidates (the sequential analogue of the
  paper's stop-word preprocessing).
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable, Iterable

from repro.core.multiset import Multiset
from repro.core.records import SimilarPair, canonical_pair
from repro.similarity.base import NominalSimilarityMeasure, validate_threshold
from repro.similarity.registry import get_measure


class InvertedIndexJoin:
    """Exact all-pair join driven by an in-memory inverted index.

    Runnable through the unified engine as
    ``JoinSpec(algorithm=InvertedIndexJoin.algorithm)`` (the spec's
    ``stop_word_frequency`` maps onto this class's knob of the same name).
    """

    #: The :attr:`repro.engine.spec.JoinSpec.algorithm` name of this baseline.
    algorithm = "inverted_index"

    def __init__(self, measure: str | NominalSimilarityMeasure = "ruzicka",
                 threshold: float = 0.5,
                 stop_word_frequency: int | None = None) -> None:
        self.measure = get_measure(measure)
        self.threshold = validate_threshold(threshold)
        self.stop_word_frequency = stop_word_frequency
        #: Number of candidate pairs verified in the last run (for ablations).
        self.last_candidates = 0

    def run(self, multisets: Iterable[Multiset]) -> list[SimilarPair]:
        """Return every pair with similarity at least the threshold."""
        entities = {multiset.id: multiset for multiset in multisets}
        unis = {entity_id: self.measure.unilateral(entity)
                for entity_id, entity in entities.items()}
        upper_bound = self.measure.similarity_upper_bound
        index = self._build_index(entities)
        results = []
        verified = 0
        for first_id, second_id in sorted(self._generate_candidates(index)):
            if upper_bound(unis[first_id], unis[second_id]) < self.threshold:
                continue
            verified += 1
            similarity = self.measure.similarity(entities[first_id],
                                                 entities[second_id])
            if similarity >= self.threshold:
                results.append(SimilarPair(first_id, second_id, similarity))
        self.last_candidates = verified
        return results

    def _build_index(self, entities: dict) -> dict[Hashable, list]:
        index: dict[Hashable, list] = {}
        for multiset in entities.values():
            for element in multiset.underlying_set:
                index.setdefault(element, []).append(multiset.id)
        return index

    def _generate_candidates(self, index: dict[Hashable, list]) -> set[tuple]:
        candidates: set[tuple] = set()
        for element, postings in index.items():
            if (self.stop_word_frequency is not None
                    and len(postings) > self.stop_word_frequency):
                continue
            for first_id, second_id in combinations(postings, 2):
                candidates.add(canonical_pair(first_id, second_id))
        return candidates

