"""Sequential PPJoin-style all-pairs algorithm (Xiao et al. [34] lineage).

This is the single-machine state of the art the paper's related work builds
on, and the algorithm VCL parallelises.  The implementation combines the
classical filters on top of a prefix-restricted inverted index:

* **prefix filtering** — only the prefix elements of each entity are indexed
  and probed, so candidate pairs must share a prefix element;
* **size filtering** — a candidate whose size alone bounds the similarity
  below the threshold (``similarity_upper_bound(Uni_i, Uni_j) < t``) is
  skipped (Arasu et al. [2]);
* **positional filtering** — the position of the shared prefix element in the
  canonical order bounds the achievable overlap, and a candidate whose best
  case combines below the threshold is skipped before verification.

Both filters follow the library's one rule: a pair is dropped only when the
measure's own ``combine`` of a ``Conj`` bound says it cannot reach ``t`` —
the float arithmetic of the final ``similarity >= t`` test, so no filter
loses a pair that test would keep.  The algorithm is exact: every surviving
candidate is verified with the full similarity computation.  It cuts the
weighted (multiset) prefixes with :func:`repro.vcl.prefix.prefix_length`,
as VCL does, so it supports the same measures as the rest of the library.
The positional bound is the weighted generalisation of the classical one:
splitting the common elements of a pair around the shared probe element,
the part before it is bounded by the smaller of the two already-scanned
weights and the part from it onwards by the smaller of the two remaining
weights.  That bounds a sum of minima, so it runs only on measures whose
conjunctive kernel is ``"sum_min"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.multiset import Multiset
from repro.core.records import SimilarPair
from repro.similarity.base import NominalSimilarityMeasure, Partials, validate_threshold
from repro.similarity.kernels import CONJ_SUM_MIN, conj_kernel_kind
from repro.similarity.registry import get_measure
from repro.vcl.prefix import frequency_rank_function, prefix_length


@dataclass(frozen=True)
class _IndexedEntry:
    """One posting of the prefix-restricted inverted index."""

    entity: Multiset
    uni: Partials
    before_weight: float
    remaining_weight: float


@dataclass(frozen=True)
class _OrderedView:
    """An entity's elements in canonical order with cumulative weights."""

    entity: Multiset
    uni: Partials
    size: float
    elements: tuple
    before_weights: tuple
    remaining_weights: tuple
    prefix_length: int


class PPJoin:
    """Prefix-filtered, size-filtered, position-filtered exact join.

    Runnable through the unified engine as
    ``JoinSpec(algorithm=PPJoin.algorithm)``.
    """

    #: The :attr:`repro.engine.spec.JoinSpec.algorithm` name of this baseline.
    algorithm = "ppjoin"

    def __init__(self, measure: str | NominalSimilarityMeasure = "ruzicka",
                 threshold: float = 0.5) -> None:
        self.measure = get_measure(measure)
        self.threshold = validate_threshold(threshold)
        self._positional = (conj_kernel_kind(self.measure) == CONJ_SUM_MIN
                            and not self.measure.requires_disjunctive)
        #: Number of candidate pairs verified in the last run (for ablations).
        self.last_candidates = 0

    def run(self, multisets: Iterable[Multiset]) -> list[SimilarPair]:
        """Return every pair with similarity at least the threshold."""
        entities = list(multisets)
        frequencies: dict = {}
        for entity in entities:
            for element in entity.underlying_set:
                frequencies[element] = frequencies.get(element, 0) + 1
        rank = frequency_rank_function(frequencies)
        views = [self._ordered_view(entity, rank) for entity in entities]
        # Process entities in increasing size order, PPJoin's probe order:
        # the already-indexed entities are never larger than the probe.
        views.sort(key=lambda view: (view.size, repr(view.entity.id)))

        upper_bound = self.measure.similarity_upper_bound
        threshold = self.threshold
        index: dict[object, list[_IndexedEntry]] = {}
        results: list[SimilarPair] = []
        candidates_verified = 0
        for view in views:
            candidates: dict[object, Multiset] = {}
            for position in range(view.prefix_length):
                element = view.elements[position]
                for entry in index.get(element, ()):
                    if entry.entity.id in candidates:
                        continue
                    if upper_bound(view.uni, entry.uni) < threshold:
                        continue
                    if self._positional and self._best_case(
                            view, position, entry) < threshold:
                        continue
                    candidates[entry.entity.id] = entry.entity
            for other in candidates.values():
                candidates_verified += 1
                similarity = self.measure.similarity(view.entity, other)
                if similarity >= threshold:
                    results.append(SimilarPair.make(view.entity.id, other.id, similarity))
            for position in range(view.prefix_length):
                element = view.elements[position]
                index.setdefault(element, []).append(_IndexedEntry(
                    entity=view.entity,
                    uni=view.uni,
                    before_weight=view.before_weights[position],
                    remaining_weight=view.remaining_weights[position]))
        self.last_candidates = candidates_verified
        results.sort()
        return results

    # -- helpers ---------------------------------------------------------------

    def _ordered_view(self, entity: Multiset, rank) -> _OrderedView:
        elements = tuple(sorted(entity.underlying_set, key=rank))
        weights = [self.measure.effective_multiplicity(entity.multiplicity(element))
                   for element in elements]
        size = float(sum(weights))
        before = []
        cumulative = 0.0
        for weight in weights:
            before.append(cumulative)
            cumulative += weight
        remaining = [size - value for value in before]
        return _OrderedView(entity=entity, uni=self.measure.unilateral(entity),
                            size=size, elements=elements,
                            before_weights=tuple(before),
                            remaining_weights=tuple(remaining),
                            prefix_length=prefix_length(weights, self.measure,
                                                        self.threshold))

    def _best_case(self, view: _OrderedView, position: int,
                   entry: _IndexedEntry) -> float:
        """The similarity of the pair if it overlapped as much as positions allow.

        Multiplicities are integers with sums below ``2**53``, so the
        overlap bound is exact and only ``combine`` rounds, as in the final
        test.
        """
        overlap = (min(view.before_weights[position], entry.before_weight)
                   + min(view.remaining_weights[position], entry.remaining_weight))
        return self.measure.combine(view.uni, entry.uni, (overlap,))
