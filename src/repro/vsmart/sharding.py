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

from typing import Iterator, Sequence

from repro.core.records import InputTuple, JoinedTuple
from repro.mapreduce.job import JobSpec, Reducer, TaskContext
from repro.mapreduce.partitioner import stable_hash
from repro.mapreduce.types import KeyValue, sized_key_value
from repro.similarity.base import NominalSimilarityMeasure, Partials
from repro.vsmart.common import (
    UniCountCombiner,
    fold_uni_counts,
    uni_contribution,
)
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
    """``mapSharding1``: emit ``Uni`` contributions plus an element count."""

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.measure = measure
        self._kv_bytes = RecordShapes(measure).sharding1_kv

    def map(self, record: InputTuple, context: TaskContext) -> Iterator[KeyValue]:
        if record.multiplicity <= 0:
            return
        yield sized_key_value(
            record.multiset_id,
            (uni_contribution(self.measure, record.multiplicity), 1),
            None, self._kv_bytes)


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
        shapes = RecordShapes(measure)
        self._uni_zero = shapes.uni_zero
        self.output_record_bytes = shapes.table_entry

    def reduce(self, key: object, values: Sequence[tuple[Partials, int]],
               context: TaskContext) -> Iterator[tuple]:
        uni, count = fold_uni_counts(self.measure, self._uni_zero, values)
        context.increment("sharding1/multisets", 1)
        if count > self.cardinality_threshold:
            context.increment("sharding1/sharded_multisets", 1)
            yield (key, uni)


class Sharding2Mapper(InternedInputMapper):
    """``mapSharding2``: route tuples by whether their multiset is sharded.

    Sharded tuples join ``Uni(Mi)`` from the (small) lookup table and are
    scattered by element fingerprint; unsharded tuples carry no ``Uni`` and
    are all routed to the same reducer key ``(Mi, -1)``.
    """

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.measure = measure
        self._table: dict = {}
        shapes = RecordShapes(measure)
        self._sharded_kv_bytes = shapes.sharded_kv
        self._unsharded_kv_bytes = shapes.unsharded_kv

    def setup(self, context: TaskContext) -> None:
        self._table = context.side_data or {}

    def map(self, record: InputTuple, context: TaskContext) -> Iterator[KeyValue]:
        if record.multiplicity <= 0:
            return
        uni = self._table.get(record.multiset_id)
        if uni is not None:
            key = (record.multiset_id, element_fingerprint(record.element))
            yield sized_key_value(
                key, (SHARDED_TAG, uni, record.element, record.multiplicity),
                None, self._sharded_kv_bytes)
        else:
            key = (record.multiset_id, UNSHARDED_FINGERPRINT)
            yield sized_key_value(
                key, (UNSHARDED_TAG, record.element, record.multiplicity),
                None, self._unsharded_kv_bytes)


class Sharding2Reducer(Reducer):
    """``reduceSharding2``: emit joined tuples for both kinds of multisets.

    Sharded groups already carry ``Uni(Mi)`` and are streamed through.
    Unsharded groups are materialised (they fit in memory by construction,
    since ``|U(Mi)| <= C``), scanned once to compute ``Uni(Mi)`` and a second
    time to emit the joined tuples — the two-scan behaviour described in the
    paper.
    """

    materializes_input = True

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.measure = measure
        shapes = RecordShapes(measure)
        self._uni_zero = shapes.uni_zero
        self.output_record_bytes = shapes.joined_tuple

    def reduce(self, key: tuple, values: Sequence[tuple],
               context: TaskContext) -> Iterator[JoinedTuple]:
        multiset_id, fingerprint = key
        if fingerprint != UNSHARDED_FINGERPRINT:
            for value in values:
                _tag, uni, element, multiplicity = value
                context.increment("sharding2/sharded_tuples", 1)
                yield JoinedTuple(multiset_id, uni, element, multiplicity)
            return
        materialised = list(values)
        uni = self._uni_zero
        for _tag, _element, multiplicity in materialised:
            uni = self.measure.uni_merge(
                uni, uni_contribution(self.measure, multiplicity))
        for _tag, element, multiplicity in materialised:
            context.increment("sharding2/unsharded_tuples", 1)
            yield JoinedTuple(multiset_id, uni, element, multiplicity)


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
