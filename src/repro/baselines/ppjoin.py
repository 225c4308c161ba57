"""Sequential PPJoin-style all-pairs algorithm (Xiao et al. [34] lineage).

This is the single-machine state of the art the paper's related work builds
on, and the algorithm VCL parallelises.  The implementation combines the
classical filters on top of a prefix-restricted inverted index:

* **prefix filtering** — only the prefix elements of each entity are indexed
  and probed, so candidate pairs must share a prefix element;
* **size filtering** — entities too small relative to the probe cannot reach
  the threshold and are skipped (Arasu et al. [2]);
* **positional filtering** — the position of the shared prefix element in the
  canonical order upper-bounds the achievable overlap and prunes candidates
  before verification.

The algorithm is exact: every surviving candidate is verified with the full
similarity computation.  It cuts the weighted (multiset) prefixes with
:func:`repro.vcl.prefix.prefix_length`, as VCL does, so it supports the
same measures as the rest of the library.  The positional bound used here
is the weighted generalisation of the classical one: splitting the common
elements of a pair around the shared probe element, the part before it is
bounded by the smaller of the two already-scanned weights and the part from
it onwards by the smaller of the two remaining weights; the bound therefore
never prunes a qualifying pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.multiset import Multiset
from repro.core.records import SimilarPair
from repro.similarity.base import NominalSimilarityMeasure, validate_threshold
from repro.similarity.registry import get_measure
from repro.vcl.prefix import frequency_rank_function, prefix_length


@dataclass(frozen=True)
class _IndexedEntry:
    """One posting of the prefix-restricted inverted index."""

    entity: Multiset
    size: float
    before_weight: float
    remaining_weight: float


@dataclass(frozen=True)
class _OrderedView:
    """An entity's elements in canonical order with cumulative weights."""

    entity: Multiset
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
                 threshold: float = 0.5,
                 use_positional_filter: bool = True,
                 use_size_filter: bool = True) -> None:
        self.measure = get_measure(measure)
        self.threshold = validate_threshold(threshold)
        self.use_positional_filter = use_positional_filter
        self.use_size_filter = use_size_filter
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
        # Process entities in increasing size order so that, when probing,
        # the already-indexed entities are never larger than the probe —
        # which is what makes the one-sided size filter sufficient.
        views.sort(key=lambda view: (view.size, repr(view.entity.id)))

        index: dict[object, list[_IndexedEntry]] = {}
        results: list[SimilarPair] = []
        candidates_verified = 0
        for view in views:
            candidates: dict[object, Multiset] = {}
            for position in range(view.prefix_length):
                element = view.elements[position]
                size_bound = self.measure.size_lower_bound(view.size, self.threshold)
                for entry in index.get(element, ()):
                    if entry.entity.id in candidates:
                        continue
                    if self.use_size_filter and entry.size < size_bound:
                        continue
                    if self.use_positional_filter and not self._positional_ok(
                            view, position, entry):
                        continue
                    candidates[entry.entity.id] = entry.entity
            for other in candidates.values():
                candidates_verified += 1
                similarity = self.measure.similarity(view.entity, other)
                if similarity >= self.threshold:
                    results.append(SimilarPair.make(view.entity.id, other.id, similarity))
            for position in range(view.prefix_length):
                element = view.elements[position]
                index.setdefault(element, []).append(_IndexedEntry(
                    entity=view.entity,
                    size=view.size,
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
        return _OrderedView(entity=entity, size=size, elements=elements,
                            before_weights=tuple(before),
                            remaining_weights=tuple(remaining),
                            prefix_length=prefix_length(weights, self.measure,
                                                        self.threshold))

    def _positional_ok(self, view: _OrderedView, position: int,
                       entry: _IndexedEntry) -> bool:
        required = self.measure.minimum_overlap(view.size, entry.size, self.threshold)
        if required <= 0:
            return True
        best_case = (min(view.before_weights[position], entry.before_weight)
                     + min(view.remaining_weights[position], entry.remaining_weight))
        return best_case >= required
