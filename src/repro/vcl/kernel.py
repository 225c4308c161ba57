"""The VCL kernel and supporting MapReduce jobs (paper section 6.2).

The VCL baseline consists of three MapReduce steps:

* a **preprocessing** step that counts the global frequency of every
  alphabet element (needed to sort the alphabet by frequency);
* the **kernel** step: every mapper loads the frequency-ordered alphabet
  into memory, computes the prefix of each multiset and replicates the
  *entire multiset* once per prefix element; each reducer receives, for one
  element, every multiset having that element in its prefix
  (``materializes_input``), and computes the exact similarity of every pair
  in the group;
* a **deduplication** step, since a pair sharing several prefix elements is
  produced by several reducers.

The two scalability problems the paper attributes to VCL fall out of this
structure on the simulator: the map output volume is proportional to
``|Prefix(Mi)| x |U(Mi)|`` (replication of whole multisets), and both the
alphabet side data and the whole-multiset records must fit in memory.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.interning import LocalInterner
from repro.core.multiset import Multiset
from repro.core.records import SimilarPair, canonical_pair
from repro.mapreduce.job import JobSpec, Mapper, Reducer, SummingCombiner, TaskContext
from repro.similarity.base import NominalSimilarityMeasure, validate_threshold
from repro.similarity.kernels import interned_similarity, interned_unilateral
from repro.vcl.grouping import SuperElementGrouping
from repro.vcl.prefix import (
    RankFunction,
    frequency_rank_function,
    hash_rank_function,
    prefix_elements,
)


class ElementFrequencyMapper(Mapper):
    """Count element frequencies: ``<Mi, {m_ik}> -> (<a_k, 1>)*``."""

    def map(self, record: Multiset, context: TaskContext) -> Iterator[tuple]:
        # The multiset's stored element order, not a fresh set's: emission
        # order decides each emission's machine, so it must not depend on
        # the process's string hash seed.
        for element in record:
            yield (element, 1)


class ElementFrequencyReducer(Reducer):
    """Sum the per-element counts into ``<a_k, Freq(a_k)>`` records."""

    materializes_input = False

    def reduce(self, key: object, values: Sequence[int],
               context: TaskContext) -> Iterator[tuple]:
        yield (key, sum(values))


def build_frequency_job(name: str = "vcl_frequencies") -> JobSpec:
    """Build the VCL preprocessing job that counts element frequencies."""
    return JobSpec(name=name,
                   mapper=ElementFrequencyMapper(),
                   reducer=ElementFrequencyReducer(),
                   combiner=SummingCombiner())


class VCLKernelMapper(Mapper):
    """``mapVCL``: replicate each whole multiset per prefix element.

    The rank function is either frequency-based (requiring the full
    frequency map as side data) or hash-based (no side data, the fallback the
    paper tried on the realistic dataset).  With super-element grouping the
    prefix is computed on the grouped representation, which shrinks the
    alphabet but admits superfluous candidate pairs.
    """

    def __init__(self, measure: NominalSimilarityMeasure, threshold: float,
                 use_frequency_order: bool = True,
                 grouping: SuperElementGrouping | None = None) -> None:
        self.measure = measure
        self.threshold = validate_threshold(threshold)
        self.use_frequency_order = use_frequency_order
        self.grouping = grouping
        self._rank: RankFunction = hash_rank_function()

    def setup(self, context: TaskContext) -> None:
        if self.use_frequency_order:
            frequencies = context.side_data or {}
            self._rank = frequency_rank_function(frequencies)
        else:
            self._rank = hash_rank_function()

    def map(self, record: Multiset, context: TaskContext) -> Iterator[tuple]:
        if self.grouping is not None:
            prefix_source = self.grouping.group_multiset(record)
        else:
            prefix_source = record
        prefix = prefix_elements(prefix_source, self._rank,
                                 self.measure, self.threshold)
        context.increment("vcl/prefix_elements", len(prefix))
        for element in prefix:
            yield (element, record)


class VCLKernelReducer(Reducer):
    """``reduceVCL``: verify every pair of multisets sharing a prefix element.

    The reduce value list holds whole multisets and must be materialised, so
    the runner's memory budget applies; the similarity of each pair is
    computed exactly from the full multisets (no partial results needed,
    which is why VCL can afford to — and must — ship whole entities).

    Each group is interned once — a per-group
    :class:`~repro.core.interning.LocalInterner` maps elements to dense ids
    and every member becomes a sorted array — so the quadratic pair
    verification runs on the merge-scan kernels with the ``Uni`` partials
    folded once per member instead of once per pair.
    """

    materializes_input = True

    def __init__(self, measure: NominalSimilarityMeasure,
                 threshold: float) -> None:
        self.measure = measure
        self.threshold = validate_threshold(threshold)

    def reduce(self, key: object, values: Sequence[Multiset],
               context: TaskContext) -> Iterator[tuple]:
        if len(values) < 2:
            return
        measure = self.measure
        interner = LocalInterner()
        interned = [interner.intern_multiset(multiset) for multiset in values]
        unis = [interned_unilateral(measure, entity) for entity in interned]
        for index_i in range(len(interned)):
            entity_i = interned[index_i]
            for index_j in range(index_i + 1, len(interned)):
                entity_j = interned[index_j]
                if entity_i.id == entity_j.id:
                    continue
                context.increment("vcl/pairs_verified", 1)
                similarity = interned_similarity(measure, entity_i, entity_j,
                                                 unis[index_i], unis[index_j])
                if similarity >= self.threshold:
                    yield (canonical_pair(entity_i.id, entity_j.id), similarity)


def build_kernel_job(measure: NominalSimilarityMeasure, threshold: float,
                     frequencies: dict | None,
                     use_frequency_order: bool = True,
                     grouping: SuperElementGrouping | None = None,
                     name: str = "vcl_kernel") -> JobSpec:
    """Build the VCL kernel job.

    ``frequencies`` is the element-frequency map produced by the
    preprocessing job; it becomes mapper side data when frequency ordering is
    requested (and must therefore fit in every mapper's memory).
    """
    mapper = VCLKernelMapper(measure, threshold, use_frequency_order, grouping)
    side_data = frequencies if use_frequency_order else None
    return JobSpec(name=name,
                   mapper=mapper,
                   reducer=VCLKernelReducer(measure, threshold),
                   side_data=side_data)


class DeduplicationMapper(Mapper):
    """Key candidate results by their canonical pair for deduplication."""

    def map(self, record: tuple, context: TaskContext) -> Iterator[tuple]:
        pair, similarity = record
        yield (pair, similarity)


class DeduplicationReducer(Reducer):
    """Emit each similar pair exactly once (duplicates agree on the value)."""

    materializes_input = False

    def reduce(self, key: tuple, values: Sequence[float],
               context: TaskContext) -> Iterator[SimilarPair]:
        context.increment("vcl/duplicate_results", max(0, len(values) - 1))
        first, second = key
        yield SimilarPair(first, second, values[0])


def build_dedup_job(name: str = "vcl_dedup") -> JobSpec:
    """Build the VCL post-processing job removing duplicate pair results."""
    return JobSpec(name=name,
                   mapper=DeduplicationMapper(),
                   reducer=DeduplicationReducer())
