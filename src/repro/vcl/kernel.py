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

All three mappers map their task's input as one batch
(:meth:`~repro.mapreduce.job.Mapper.map_batch`).  The kernel mapper ranks
the corpus's alphabet once (:class:`~repro.vcl.prefix.PrefixFilter`), turns
each multiset into one :class:`RankedMultiset` — its elements on rank ids,
its ``Uni`` folded once — and ships that one object as every replica; the
reducer verifies the group's pairs on it directly.  Every emission is sized
once per distinct element or identifier, never by walking the record.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, Sequence

from repro.core.interning import InternedMultiset
from repro.core.multiset import Multiset
from repro.core.records import SimilarPair, canonical_pair
from repro.mapreduce.job import JobSpec, Mapper, Reducer, SummingCombiner, TaskContext
from repro.mapreduce.types import Emissions, estimate_record_bytes
from repro.similarity.base import NominalSimilarityMeasure, Partials, validate_threshold
from repro.similarity.kernels import interned_similarity, interned_unilateral
from repro.vcl.grouping import SuperElementGrouping
from repro.vcl.prefix import (
    PrefixFilter,
    RankFunction,
    frequency_rank_function,
    hash_rank_function,
)

#: What the walker charges for a tuple or a record's own container.
_CONTAINER_BYTES = 16
#: An emitted record's own bytes beyond its key and value: the container of
#: ``(key, value, secondary)`` and the empty secondary key.
_KEY_VALUE_BYTES = _CONTAINER_BYTES + 1
#: What a number (a count or a similarity) weighs.
_NUMBER_BYTES = 8
#: A ``(pair, similarity)`` record beyond its two identifiers: the record's
#: and the pair's containers and the similarity.
_PAIR_RECORD_BYTES = 2 * _CONTAINER_BYTES + _NUMBER_BYTES


class _SizeOf(dict):
    """Each key's estimated size, worked out the first time it is asked for.

    A task sizes each distinct element or multiset identifier once, however
    many records carry it.
    """

    __slots__ = ()

    def __missing__(self, key: object) -> int:
        size = self[key] = estimate_record_bytes(key)
        return size


class ElementFrequencyMapper(Mapper):
    """Count element frequencies: ``<Mi, {m_ik}> -> (<a_k, 1>)*``."""

    def map_batch(self, records: Sequence[Multiset],
                  context: TaskContext) -> Emissions:
        # The multisets' stored element order, not a fresh set's: emission
        # order decides each emission's machine, so it must not depend on
        # the process's string hash seed.
        elements = [element for record in records for element in record]
        size_of = _SizeOf()
        base = _KEY_VALUE_BYTES + _NUMBER_BYTES
        sizes = [base + size_of[element] for element in elements]
        return Emissions(elements, [1] * len(elements), None, sizes,
                         list(map(len, records)))


class ElementFrequencyCombiner(SummingCombiner):
    """Sum one machine's counts of an element: a count, like its inputs."""

    keeps_value_shape = True


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
                   combiner=ElementFrequencyCombiner())


class RankedMultiset:
    """A multiset as the kernel ships it: rank ids, ``Uni`` and its size.

    ``entity`` holds the multiset's elements on the task's rank ids,
    ``uni`` its unilateral partials, folded once.  The mapper builds one per
    multiset and every replica is that one object.  It stands for the whole
    multiset in the shuffle, so it weighs what the multiset does.
    """

    __slots__ = ("entity", "uni", "size")

    def __init__(self, entity: InternedMultiset, uni: Partials,
                 size: int) -> None:
        self.entity = entity
        self.uni = uni
        self.size = size

    def estimated_bytes(self) -> int:
        """The estimated size of the multiset this stands for."""
        return self.size


class VCLKernelMapper(Mapper):
    """``mapVCL``: replicate each whole multiset per prefix element.

    The rank function is either frequency-based (requiring the full
    frequency map as side data) or hash-based (no side data, the fallback the
    paper tried on the realistic dataset).  With super-element grouping the
    prefix is cut on the super-elements, which shrinks the alphabet but
    admits superfluous candidate pairs.

    A batch mapper: the task's alphabet is ranked once, each multiset
    becomes one :class:`RankedMultiset` and the emissions are its prefix
    keys, that one value per key and a size column — what the walker finds
    on ``(key, multiset)``.
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

    def map_batch(self, records: Sequence[Multiset],
                  context: TaskContext) -> Emissions:
        measure = self.measure
        prefixes = PrefixFilter(records, self._rank, measure, self.threshold,
                                self.grouping)
        key_of = prefixes.keys.__getitem__
        bytes_of = prefixes.key_bytes.__getitem__
        keys: list = []
        values: list = []
        sizes: list[int] = []
        counts: list[int] = []
        for multiset in records:
            entity = prefixes.rank(multiset)
            size = multiset.estimated_bytes()
            value = RankedMultiset(entity, interned_unilateral(measure, entity),
                                   size)
            prefix = prefixes.cut(entity)
            keys.extend(map(key_of, prefix))
            values.extend(repeat(value, len(prefix)))
            sizes.extend(map((_KEY_VALUE_BYTES + size).__add__,
                             map(bytes_of, prefix)))
            counts.append(len(prefix))
        if records:
            context.increment("vcl/prefix_elements", len(keys))
        return Emissions(keys, values, None, sizes, counts)


class VCLKernelReducer(Reducer):
    """``reduceVCL``: verify every pair of multisets sharing a prefix element.

    The reduce value list holds whole multisets and must be materialised, so
    the runner's memory budget applies; the similarity of each pair is
    computed exactly from the full multisets (no partial results needed,
    which is why VCL can afford to — and must — ship whole entities).

    The values are the mapper's :class:`RankedMultiset` records: every
    member is already on rank ids with its ``Uni`` folded, so the quadratic
    pair verification runs straight on the array kernels.
    The scalar kernels' sums are exact under any id order (multiplicities
    are integers), so rank ids give the similarities any other ids would.
    """

    materializes_input = True

    def __init__(self, measure: NominalSimilarityMeasure,
                 threshold: float) -> None:
        self.measure = measure
        self.threshold = validate_threshold(threshold)
        self._id_bytes = _SizeOf()

    def output_record_bytes(self, records: Sequence[tuple]) -> list[int]:
        """``(pair, similarity)`` records: each identifier sized once."""
        id_bytes = self._id_bytes
        return [_PAIR_RECORD_BYTES + id_bytes[first] + id_bytes[second]
                for (first, second), _ in records]

    def reduce(self, key: object, values: Sequence[RankedMultiset],
               context: TaskContext) -> Iterator[tuple]:
        if len(values) < 2:
            return
        measure = self.measure
        threshold = self.threshold
        verified = 0
        for index, value_i in enumerate(values):
            entity_i = value_i.entity
            uni_i = value_i.uni
            for value_j in values[index + 1:]:
                entity_j = value_j.entity
                if entity_i.id == entity_j.id:
                    continue
                verified += 1
                similarity = interned_similarity(measure, entity_i, entity_j,
                                                 uni_i, value_j.uni)
                if similarity >= threshold:
                    yield (canonical_pair(entity_i.id, entity_j.id), similarity)
        if verified:
            context.increment("vcl/pairs_verified", verified)


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

    def map_batch(self, records: Sequence[tuple],
                  context: TaskContext) -> Emissions:
        pairs = [pair for pair, _ in records]
        id_bytes = _SizeOf()
        # The record's container becomes the emitted record's.
        base = _KEY_VALUE_BYTES - _CONTAINER_BYTES + _PAIR_RECORD_BYTES
        sizes = [base + id_bytes[first] + id_bytes[second]
                 for first, second in pairs]
        return Emissions(pairs, [similarity for _, similarity in records],
                         None, sizes, [1] * len(records))


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
