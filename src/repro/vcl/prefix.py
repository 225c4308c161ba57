"""Prefix filtering for the VCL baseline (paper section 6).

VCL (Vernica, Carey and Li [33]) is a MapReduce adaptation of PPJoin+ whose
kernel step replicates every multiset once per *prefix element*.  The prefix
of an entity, under a global canonical ordering of the alphabet, is the
smallest leading portion such that two entities sharing no prefix element
cannot reach the similarity threshold.

This module implements the weighted (multiset-aware) prefix:

* elements of ``U(Mi)`` are sorted by a global rank (ascending element
  frequency, as in the paper, or a hash of the element when the frequency
  list cannot be loaded);
* the *suffix* is grown greedily from the most frequent end while its total
  multiplicity stays strictly below the measure's size lower bound
  ``size_lower_bound(|Mi|, t)`` — the smallest overlap a qualifying partner
  must reach; everything else is the prefix.

With unit multiplicities this reduces to the classical prefix length
``|U| - ceil(t |U|) + 1`` for Jaccard.  The correctness argument (any
similar pair shares its canonically smallest common element, which must lie
in both prefixes) holds for every measure providing a positive
``size_lower_bound``; measures without one fall back to "the whole entity is
the prefix", which degenerates to the exhaustive inverted-index join but
never loses pairs.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.core.multiset import Multiset
from repro.mapreduce.partitioner import stable_hash
from repro.similarity.base import NominalSimilarityMeasure, validate_threshold

RankFunction = Callable[[Hashable], tuple]


class FrequencyRank:
    """Rank elements by ascending global frequency (rare elements first).

    Ties are broken by a stable hash so the order is total and deterministic.
    """

    __slots__ = ("frequencies",)

    def __init__(self, frequencies: dict) -> None:
        self.frequencies = frequencies

    def __call__(self, element: Hashable) -> tuple:
        return (self.frequencies.get(element, 0), stable_hash(element, salt="vcl-rank"))


class HashRank:
    """Rank elements by their hash signature (no side data needed)."""

    __slots__ = ()

    def __call__(self, element: Hashable) -> tuple:
        return (stable_hash(element, salt="vcl-rank"),)


def frequency_rank_function(frequencies: dict) -> RankFunction:
    """The ordering VCL uses when the frequency-sorted alphabet fits in memory."""
    return FrequencyRank(frequencies)


def hash_rank_function() -> RankFunction:
    """The fallback ordering the paper applied on the realistic dataset.

    Needs no side data but loses the benefit of putting rare elements in the
    prefix.
    """
    return HashRank()


def ordered_elements(multiset: Multiset, rank: RankFunction) -> list:
    """Return ``U(Mi)`` sorted by the global canonical order."""
    return sorted(multiset.underlying_set, key=rank)


def prefix_elements(multiset: Multiset, rank: RankFunction,
                    measure: NominalSimilarityMeasure,
                    threshold: float) -> list:
    """Compute the prefix of ``multiset`` for ``measure`` at ``threshold``.

    Returns the prefix elements in canonical order.  The suffix (the dropped
    elements) always has total effective multiplicity strictly below the
    measure's ``size_lower_bound`` of the entity, which guarantees that any
    qualifying pair shares at least one prefix element of each side.
    """
    limit = validate_threshold(threshold)
    elements = ordered_elements(multiset, rank)
    size = sum(measure.effective_multiplicity(multiset.multiplicity(element))
               for element in elements)
    bound = measure.size_lower_bound(size, limit)
    if bound <= 0:
        return elements
    suffix_weight = 0.0
    cut = len(elements)
    for index in range(len(elements) - 1, -1, -1):
        weight = measure.effective_multiplicity(
            multiset.multiplicity(elements[index]))
        if suffix_weight + weight < bound:
            suffix_weight += weight
            cut = index
        else:
            break
    prefix = elements[:cut]
    if not prefix and elements:
        # Degenerate thresholds (t very close to 0) can make the bound
        # vacuous; keep at least one element so the pair is still generated.
        prefix = elements[:1]
    return prefix


def prefix_length_classic(underlying_cardinality: int,
                          measure: NominalSimilarityMeasure,
                          threshold: float) -> int:
    """The classical (set) prefix length ``|U| - ceil(t' |U|) + 1``.

    Exposed for tests that check the weighted prefix reduces to the
    classical one on sets.
    """
    return measure.prefix_size(underlying_cardinality, validate_threshold(threshold))
