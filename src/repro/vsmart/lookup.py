"""The Lookup joining algorithm (paper section 5.2).

Lookup avoids secondary keys (so it runs on stock Hadoop) by splitting the
join into two steps:

* **Lookup1** computes ``Uni(Mi)`` for every multiset with an ordinary
  sum-style MapReduce (combiners included) and materialises the result as a
  lookup table mapping ``Mi -> Uni(Mi)``;
* **Lookup2** re-reads the raw input; each mapper loads the *entire* lookup
  table into memory at setup time and joins every tuple against it.  Its
  output is already keyed by the alphabet element, so the Similarity1
  reducer consumes it directly — Lookup2 and Similarity1 fuse into a single
  MapReduce step.

The scalability limitation the paper highlights is explicit here: the lookup
table has one entry per multiset, and the whole table must fit in every
mapper's memory.  On the realistic dataset that load fails
(:class:`~repro.core.exceptions.MemoryBudgetExceeded`), which is exactly the
outcome reported in section 7.2.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterator, Sequence

from repro.core.records import PostingEntry
from repro.mapreduce.job import JobSpec, Reducer, TaskContext
from repro.mapreduce.types import Emissions
from repro.similarity.base import NominalSimilarityMeasure, Partials
from repro.similarity.partials import uni_contributions, uni_fold
from repro.vsmart.common import UniSumCombiner
from repro.vsmart.shapes import InternedInputMapper, RecordShapes


class Lookup1Mapper(InternedInputMapper):
    """``mapLookup1``: emit the per-element ``Uni`` contribution keyed by ``Mi``.

    A batch mapper: the keys are the multiset id column, the values the
    contributions of the multiplicity column.
    """

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.measure = measure
        self._kv_bytes = RecordShapes(measure).lookup1_kv
        self._contributions = uni_contributions(measure)

    def map_batch(self, records: Sequence, context: TaskContext) -> Emissions:
        columns, counts = self.positive_rows(records)
        return Emissions(columns.multiset_ids,
                         self._contributions(columns.multiplicities), None,
                         self._kv_bytes, counts)


class Lookup1Reducer(Reducer):
    """``reduceLookup1``: fold contributions into ``<Mi, Uni(Mi)>`` entries."""

    materializes_input = False

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.measure = measure
        self._fold = uni_fold(measure)
        self.output_record_bytes = RecordShapes(measure).table_entry

    def reduce(self, key: object, values: Sequence[Partials],
               context: TaskContext) -> Iterator[tuple]:
        context.increment("lookup1/multisets", 1)
        yield (key, self._fold(values))


class LookupJoinMapper(InternedInputMapper):
    """``mapLookup2``: join raw tuples against the in-memory lookup table.

    The side data is the ``{Mi: Uni(Mi)}`` dictionary produced by Lookup1.
    Output records are element-keyed postings, i.e. exactly the map output
    of Similarity1, so this mapper is plugged directly into the Similarity1
    job (saving one MapReduce step, as the paper notes).  A batch mapper: a
    tuple whose multiset has no table entry emits nothing and is counted.
    """

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.measure = measure
        self._table: dict = {}
        self._kv_bytes = RecordShapes(measure).posting_kv

    def setup(self, context: TaskContext) -> None:
        self._table = context.side_data or {}

    def map_batch(self, records: Sequence, context: TaskContext) -> Emissions:
        columns, counts = self.positive_rows(records)
        ids, elements, multiplicities = columns.columns()
        unis = list(map(self._table.get, ids))
        if None in unis:
            found = [uni is not None for uni in unis]
            context.increment("lookup2/missing_table_entries",
                              found.count(False))
            rows = iter(found)
            counts = [int(next(rows)) if count else 0 for count in counts]
            ids, elements, multiplicities, unis = (
                list(compress(column, found))
                for column in (ids, elements, multiplicities, unis))
        return Emissions(elements,
                         list(map(PostingEntry, ids, unis, multiplicities)),
                         None, self._kv_bytes, counts)


def build_lookup1_job(measure: NominalSimilarityMeasure,
                      use_combiners: bool = True,
                      name: str = "lookup1") -> JobSpec:
    """Build the Lookup1 job computing the ``Mi -> Uni(Mi)`` table."""
    combiner = UniSumCombiner(measure) if use_combiners else None
    return JobSpec(name=name,
                   mapper=Lookup1Mapper(measure),
                   reducer=Lookup1Reducer(measure),
                   combiner=combiner)


def lookup_table_from_records(records) -> dict:
    """Materialise Lookup1's output records into the lookup dictionary."""
    return {multiset_id: uni for multiset_id, uni in records}
