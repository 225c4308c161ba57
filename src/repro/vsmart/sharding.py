"""The Sharding joining algorithm (paper section 5.3).

Sharding is the hybrid of Online-Aggregation and Lookup that needs neither
secondary keys nor a lookup table covering every multiset.  It exploits the
skew in underlying cardinalities:

* **Sharding1** is Lookup1 with a filter: only multisets whose underlying
  cardinality exceeds the parameter ``C`` (the *sharded* multisets — few in
  number but individually huge) get a ``Mi -> Uni(Mi)`` table entry;
* **Sharding2** mappers load that small table.  Tuples of sharded multisets
  join against it and are keyed by ``(Mi, fingerprint(a_k))`` so their
  elements scatter randomly over all reducers; tuples of unsharded multisets
  are keyed by ``(Mi, -1)`` so one reducer receives the whole (small) value
  list, computes ``Uni(Mi)`` on the fly and emits the joined tuples.

The output feeds the shared similarity phase.  Setting ``C`` absurdly high
degenerates into Online-Aggregation without secondary keys (reducers
materialise huge lists and thrash); setting it absurdly low degenerates into
Lookup (the table stops fitting in memory) — the sensitivity analysis of
Fig. 7 sweeps exactly this trade-off.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, Sequence

from repro.core.hashing import stable_hash
from repro.core.records import JoinedColumns
from repro.mapreduce.job import JobSpec, Reducer, TaskContext
from repro.mapreduce.types import Emissions
from repro.similarity.base import NominalSimilarityMeasure, Partials
from repro.similarity.partials import uni_contributions, uni_fold
from repro.vsmart.common import UniCountCombiner, first, fourth, second, third
from repro.vsmart.shapes import InternedInputMapper, RecordShapes

#: Sentinel fingerprint routing every element of an unsharded multiset to a
#: single reducer (the paper's ``<Mi, -1>`` key).
UNSHARDED_FINGERPRINT = -1

#: Number of distinct fingerprint values used to scatter sharded multisets.
FINGERPRINT_SPACE = 1 << 20

#: Value tags distinguishing sharded and unsharded records (kept as small
#: integers so the per-record overhead stays minimal on the wire).
SHARDED_TAG = 1
UNSHARDED_TAG = 0


def element_fingerprint(element: object) -> int:
    """The fingerprint of an alphabet element (stable across processes)."""
    return stable_hash(element, salt="sharding-fingerprint") % FINGERPRINT_SPACE


class Sharding1Mapper(InternedInputMapper):
    """``mapSharding1``: emit ``Uni`` contributions plus an element count.

    A batch mapper: keyed by the multiset id column, each value is a row's
    contribution with the count 1.
    """

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.measure = measure
        self._kv_bytes = RecordShapes(measure).sharding1_kv
        self._contributions = uni_contributions(measure)

    def map_batch(self, records: Sequence, context: TaskContext) -> Emissions:
        columns, counts = self.positive_rows(records)
        values = list(zip(self._contributions(columns.multiplicities),
                          repeat(1)))
        return Emissions(columns.multiset_ids, values, None, self._kv_bytes,
                         counts)


class Sharding1Reducer(Reducer):
    """``reduceSharding1``: output table entries only for sharded multisets.

    A multiset is sharded when its underlying cardinality ``|U(Mi)|``
    (the number of distinct elements, i.e. the total count accumulated from
    the mappers) exceeds the parameter ``C``.
    """

    materializes_input = False

    def __init__(self, measure: NominalSimilarityMeasure, cardinality_threshold: int) -> None:
        if cardinality_threshold < 1:
            raise ValueError("the sharding parameter C must be at least 1")
        self.measure = measure
        self.cardinality_threshold = cardinality_threshold
        self._fold = uni_fold(measure)
        self.output_record_bytes = RecordShapes(measure).table_entry

    def reduce(self, key: object, values: Sequence[tuple[Partials, int]],
               context: TaskContext) -> Iterator[tuple]:
        context.increment("sharding1/multisets", 1)
        if sum(map(second, values)) > self.cardinality_threshold:
            context.increment("sharding1/sharded_multisets", 1)
            yield (key, self._fold(map(first, values)))


class Sharding2Mapper(InternedInputMapper):
    """``mapSharding2``: route tuples by whether their multiset is sharded.

    Sharded tuples join ``Uni(Mi)`` from the (small) lookup table and are
    scattered by element fingerprint; unsharded tuples carry no ``Uni`` and
    are all routed to the same reducer key ``(Mi, -1)``.  A batch mapper:
    with an empty table every emission is an unsharded one, of one declared
    size; otherwise each carries its own.
    """

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.measure = measure
        self._table: dict = {}
        shapes = RecordShapes(measure)
        self._sharded_kv_bytes = shapes.sharded_kv
        self._unsharded_kv_bytes = shapes.unsharded_kv

    def setup(self, context: TaskContext) -> None:
        self._table = context.side_data or {}

    def map_batch(self, records: Sequence, context: TaskContext) -> Emissions:
        columns, counts = self.positive_rows(records)
        ids, elements, multiplicities = columns.columns()
        table = self._table
        if not table:
            return Emissions(list(zip(ids, repeat(UNSHARDED_FINGERPRINT))),
                             list(zip(repeat(UNSHARDED_TAG), elements,
                                      multiplicities)),
                             None, self._unsharded_kv_bytes, counts)
        keys: list[tuple] = []
        values: list[tuple] = []
        sizes: list[int] = []
        for multiset_id, element, multiplicity in zip(ids, elements,
                                                      multiplicities):
            uni = table.get(multiset_id)
            if uni is not None:
                keys.append((multiset_id, element_fingerprint(element)))
                values.append((SHARDED_TAG, uni, element, multiplicity))
                sizes.append(self._sharded_kv_bytes)
            else:
                keys.append((multiset_id, UNSHARDED_FINGERPRINT))
                values.append((UNSHARDED_TAG, element, multiplicity))
                sizes.append(self._unsharded_kv_bytes)
        return Emissions(keys, values, None, sizes, counts)


class Sharding2Reducer(Reducer):
    """``reduceSharding2``: emit joined tuples for both kinds of multisets.

    Sharded groups already carry ``Uni(Mi)`` and are streamed through.
    Unsharded groups are materialised (they fit in memory by construction,
    since ``|U(Mi)| <= C``), scanned once to compute ``Uni(Mi)`` and a second
    time to emit the joined tuples — the two-scan behaviour described in the
    paper.  Each group's joined tuples are one :class:`JoinedColumns` block.
    """

    materializes_input = True

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.measure = measure
        self._fold = uni_fold(measure)
        self._contributions = uni_contributions(measure)
        self.output_record_bytes = RecordShapes(measure).joined_tuple

    def new_output(self) -> JoinedColumns:
        return JoinedColumns()

    def reduce(self, key: tuple, values: Sequence[tuple],
               context: TaskContext) -> JoinedColumns:
        multiset_id, fingerprint = key
        ids = [multiset_id] * len(values)
        if fingerprint != UNSHARDED_FINGERPRINT:
            context.increment("sharding2/sharded_tuples", len(values))
            return JoinedColumns(ids, list(map(second, values)),
                                 list(map(third, values)),
                                 list(map(fourth, values)))
        multiplicities = list(map(third, values))
        uni = self._fold(self._contributions(multiplicities))
        context.increment("sharding2/unsharded_tuples", len(values))
        return JoinedColumns(ids, [uni] * len(values),
                             list(map(second, values)), multiplicities)


def build_sharding1_job(measure: NominalSimilarityMeasure,
                        cardinality_threshold: int,
                        use_combiners: bool = True,
                        name: str = "sharding1") -> JobSpec:
    """Build the Sharding1 job producing the sharded-multiset table."""
    combiner = UniCountCombiner(measure) if use_combiners else None
    return JobSpec(name=name,
                   mapper=Sharding1Mapper(measure),
                   reducer=Sharding1Reducer(measure, cardinality_threshold),
                   combiner=combiner)


def build_sharding2_job(measure: NominalSimilarityMeasure,
                        sharded_table: dict,
                        name: str = "sharding2") -> JobSpec:
    """Build the Sharding2 job, with the sharded table as side data."""
    return JobSpec(name=name,
                   mapper=Sharding2Mapper(measure),
                   reducer=Sharding2Reducer(measure),
                   side_data=sharded_table,
                   side_data_bytes=RecordShapes(measure).table(
                       len(sharded_table)))
