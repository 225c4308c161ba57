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
  must reach — stepped down by :data:`SIZE_BOUND_MARGIN`; everything else
  is the prefix.

One function, :func:`prefix_length`, makes that cut for every consumer
that ranks: the kernel mapper (through :class:`PrefixFilter`, which ranks a
whole corpus once) and :func:`prefix_elements`.  The planner prices
the kernel from the prefixes as sets, and applies the same rule vectorised
to a whole corpus's interned columns (``repro.engine.planner``); tests hold
it to a :class:`PrefixFilter`'s cuts.

The correctness argument: any similar pair shares its canonically smallest
common element, which must lie in both prefixes, because a partner that
overlaps an entity only in its suffix overlaps it by less than the bound.
The bound is a float formula that can round up past the threshold (Dice's
``0.8 / 1.2 * 9`` is ``6.000000000000001``), and a pair whose similarity
rounds *up* to ``t`` passes the final test; the margin covers both, and a
smaller bound only lengthens a prefix, which adds verified candidates and
never loses a pair.  Measures without a ``size_lower_bound`` fall back to
"the whole entity is the prefix", which degenerates to the exhaustive
inverted-index join.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Hashable, Iterable, Sequence

from repro.core.hashing import stable_hash
from repro.core.interning import InternedMultiset
from repro.core.multiset import Multiset
from repro.mapreduce.types import estimate_record_bytes
from repro.similarity.base import NominalSimilarityMeasure, validate_threshold
from repro.vcl.grouping import SuperElementGrouping

RankFunction = Callable[[Hashable], tuple]

#: The relative step :func:`prefix_length` takes down from the measure's
#: ``size_lower_bound``: far above the few ulps a float bound or a float
#: similarity can be off by and, for entities below ``2**40`` in size, less
#: than the gap of one between two integer overlaps.
SIZE_BOUND_MARGIN = 1.0 - 2.0 ** -40

#: The salt of the stable hash both rank functions order elements by.
RANK_SALT = "vcl-rank"


class FrequencyRank:
    """Rank elements by ascending global frequency (rare elements first).

    Ties are broken by a stable hash so the order is total and deterministic.
    """

    __slots__ = ("frequencies",)

    def __init__(self, frequencies: dict) -> None:
        self.frequencies = frequencies

    def __call__(self, element: Hashable) -> tuple:
        return (self.frequencies.get(element, 0), stable_hash(element, salt=RANK_SALT))


class HashRank:
    """Rank elements by their hash signature (no side data needed)."""

    __slots__ = ()

    def __call__(self, element: Hashable) -> tuple:
        return (stable_hash(element, salt=RANK_SALT),)


def frequency_rank_function(frequencies: dict) -> RankFunction:
    """The ordering VCL uses when the frequency-sorted alphabet fits in memory."""
    return FrequencyRank(frequencies)


def hash_rank_function() -> RankFunction:
    """The fallback ordering the paper applied on the realistic dataset.

    Needs no side data but loses the benefit of putting rare elements in the
    prefix.
    """
    return HashRank()


def prefix_length(weights: Sequence[float],
                  measure: NominalSimilarityMeasure, threshold: float) -> int:
    """How many leading elements of an entity form its prefix.

    ``weights`` are the effective multiplicities of the entity's elements
    (or super-elements) in canonical order.  The suffix is grown from the
    end while its weight stays strictly below the measure's
    ``size_lower_bound`` of the entity, stepped down by
    :data:`SIZE_BOUND_MARGIN`; the rest is the prefix.  The kernel mapper
    and :func:`prefix_elements` both call it; the planner applies the same
    rule to a whole corpus at once.
    """
    bound = measure.size_lower_bound(sum(weights), threshold) * SIZE_BOUND_MARGIN
    count = len(weights)
    if bound <= 0:
        return count
    suffix_weight = 0.0
    cut = count
    for index in range(count - 1, -1, -1):
        weight = weights[index]
        if suffix_weight + weight < bound:
            suffix_weight += weight
            cut = index
        else:
            break
    # Degenerate thresholds (t very close to 0) can make the bound vacuous;
    # keep at least one element so the pair is still generated.
    return cut or min(count, 1)


def prefix_elements(multiset: Multiset, rank: RankFunction,
                    measure: NominalSimilarityMeasure,
                    threshold: float) -> list:
    """Compute the prefix of ``multiset`` for ``measure`` at ``threshold``.

    Returns the prefix elements in canonical order.  The suffix (the dropped
    elements) always has total effective multiplicity strictly below the
    measure's ``size_lower_bound`` of the entity (less the margin), which
    guarantees that any qualifying pair shares at least one prefix element
    of each side.
    """
    limit = validate_threshold(threshold)
    elements = sorted(multiset.underlying_set, key=rank)
    weights = [measure.effective_multiplicity(multiset.multiplicity(element))
               for element in elements]
    return elements[:prefix_length(weights, measure, limit)]


class PrefixFilter:
    """The prefixes of one corpus under one canonical order.

    Built once per corpus: every distinct element is ranked once (one
    ``rank`` call each) and the alphabet is sorted once, so an element's
    *rank id* is its position in the canonical order.  :meth:`rank` turns a
    multiset into an :class:`~repro.core.interning.InternedMultiset` whose
    ids are those ranks — ascending ids are the canonical order, Vernica et
    al.'s token-rank representation — and :meth:`cut` cuts its prefix with
    :func:`prefix_length`.

    The prefix is made of :attr:`keys`: the alphabet's elements, or with a
    super-element ``grouping`` the super-elements, ranked the same way.  A
    super-element weighs the summed *effective* multiplicities of its
    members, so grouping can only raise an overlap, under set measures too.
    :attr:`key_bytes` holds each key's estimated size.
    """

    __slots__ = ("measure", "threshold", "keys", "key_bytes", "_ids",
                 "_group_of_id")

    def __init__(self, multisets: Iterable[Multiset], rank: RankFunction,
                 measure: NominalSimilarityMeasure, threshold: float,
                 grouping: SuperElementGrouping | None = None) -> None:
        self.measure = measure
        self.threshold = validate_threshold(threshold)
        alphabet = sorted(dict.fromkeys(chain.from_iterable(multisets)),
                          key=rank)
        self._ids = {element: index for index, element in enumerate(alphabet)}
        self._group_of_id: list[int] | None = None
        if grouping is None:
            self.keys: list = alphabet
        else:
            groups = list(map(grouping.group_of, alphabet))
            self.keys = sorted(dict.fromkeys(groups), key=rank)
            position = {group: index for index, group in enumerate(self.keys)}
            self._group_of_id = [position[group] for group in groups]
        self.key_bytes = list(map(estimate_record_bytes, self.keys))

    def rank(self, multiset: Multiset) -> InternedMultiset:
        """``multiset`` on rank ids: elements in canonical order."""
        ranked = sorted(zip(map(self._ids.__getitem__, multiset.keys()),
                            multiset.values()))
        return InternedMultiset(multiset.id,
                                tuple(pair[0] for pair in ranked),
                                tuple(float(pair[1]) for pair in ranked))

    def weights(self, entity: InternedMultiset) -> tuple[Sequence[int], list]:
        """The positions in :attr:`keys` an entity touches, in canonical
        order, and the effective multiplicity each one weighs."""
        effective = self.measure.effective_multiplicity
        group_of_id = self._group_of_id
        if group_of_id is None:
            return entity.element_ids, list(map(effective, entity.multiplicities))
        grouped: dict[int, float] = {}
        for element_id, multiplicity in entity.items():
            group = group_of_id[element_id]
            grouped[group] = grouped.get(group, 0.0) + effective(multiplicity)
        positions = sorted(grouped)
        return positions, list(map(grouped.__getitem__, positions))

    def cut(self, entity: InternedMultiset) -> Sequence[int]:
        """The positions in :attr:`keys` of the entity's prefix, in
        canonical order."""
        positions, weights = self.weights(entity)
        return positions[:prefix_length(weights, self.measure, self.threshold)]

