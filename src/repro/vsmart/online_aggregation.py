"""The Online-Aggregation joining algorithm (paper section 5.1).

Online-Aggregation joins ``Uni(Mi)`` to the elements of ``Mi`` in a single
MapReduce step by exploiting *secondary keys*: for every raw input tuple the
mapper emits (a) the information needed to compute ``Uni(Mi)`` under
secondary key 0 and (b) the element itself under secondary key 1.  Because
the shuffle sorts each reduce value list by the secondary key, the reducer
sees all the ``Uni`` information before the first element and can stream the
joined tuples out without materialising anything.

Secondary keys are supported by the Google MapReduce but not by stock
Hadoop, which is the paper's motivation for the Lookup and Sharding
alternatives; running this job on a Hadoop-profile cluster raises
:class:`~repro.core.exceptions.UnsupportedFeatureError`.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.records import InputTuple, JoinedTuple
from repro.mapreduce.job import Combiner, JobSpec, Reducer, TaskContext
from repro.mapreduce.types import KeyValue, sized_key_value
from repro.similarity.base import NominalSimilarityMeasure
from repro.vsmart.common import merge_uni, uni_contribution
from repro.vsmart.shapes import InternedInputMapper, RecordShapes

#: Secondary key of the records carrying ``Uni`` information.
UNI_SECONDARY = 0
#: Secondary key of the records carrying the elements themselves.
ELEMENT_SECONDARY = 1

#: Value tags distinguishing the two record kinds inside a reduce value list
#: (small integers to keep the shuffled records compact).
UNI_TAG = 0
ELEMENT_TAG = 1


class OnlineAggregationMapper(InternedInputMapper):
    """``mapOnline-Aggregation1``: emit Uni information and elements per tuple.

    ``<Mi, m_ik>  ->  <Mi, 0, g(f_ik)>, <Mi, 1, m_ik>``  (for ``f_ik > 0``)
    """

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.measure = measure
        shapes = RecordShapes(measure)
        self._uni_kv_bytes = shapes.oa_uni_kv
        self._element_kv_bytes = shapes.oa_element_kv

    def map(self, record: InputTuple, context: TaskContext) -> Iterator[KeyValue]:
        if record.multiplicity <= 0:
            return
        contribution = uni_contribution(self.measure, record.multiplicity)
        yield sized_key_value(record.multiset_id, (UNI_TAG, contribution),
                              UNI_SECONDARY, self._uni_kv_bytes)
        yield sized_key_value(record.multiset_id,
                              (ELEMENT_TAG, record.element, record.multiplicity),
                              ELEMENT_SECONDARY, self._element_kv_bytes)


class OnlineAggregationCombiner(Combiner):
    """Dedicated combiner: pre-aggregate the ``Uni`` records, pass elements.

    The runner invokes combiners per ``(key, secondary key)`` group, so a
    group holds either only ``Uni`` contributions (merged into one) or only
    element records (passed through untouched): either way a value of the
    group's own shape.
    """

    keeps_value_shape = True

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.measure = measure
        self._uni_zero = measure.uni_zero()

    def combine(self, key: object, values: Sequence[tuple],
                context: TaskContext) -> Iterator[tuple]:
        first_tag = values[0][0] if values else None
        if first_tag == UNI_TAG:
            merged = merge_uni(self.measure, [value[1] for value in values],
                               self._uni_zero)
            yield (UNI_TAG, merged)
            return
        yield from values


class OnlineAggregationReducer(Reducer):
    """``reduceOnline-Aggregation1``: stream out joined tuples.

    The reduce value list arrives sorted by secondary key, so every ``Uni``
    record precedes every element record; the reducer accumulates ``Uni(Mi)``
    and then emits ``<Mi, Uni(Mi), m_ik>`` for each element without ever
    holding the element list in memory.
    """

    materializes_input = False

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.measure = measure
        shapes = RecordShapes(measure)
        self._uni_zero = shapes.uni_zero
        self.output_record_bytes = shapes.joined_tuple

    def reduce(self, key: object, values: Sequence[tuple],
               context: TaskContext) -> Iterator[JoinedTuple]:
        uni = self._uni_zero
        for value in values:
            tag = value[0]
            if tag == UNI_TAG:
                uni = self.measure.uni_merge(uni, value[1])
            else:
                _tag, element, multiplicity = value
                yield JoinedTuple(key, uni, element, multiplicity)
        context.increment("online_aggregation/multisets", 1)


def build_online_aggregation_job(measure: NominalSimilarityMeasure,
                                 use_combiners: bool = True,
                                 name: str = "online_aggregation") -> JobSpec:
    """Build the single-step Online-Aggregation joining job."""
    combiner = OnlineAggregationCombiner(measure) if use_combiners else None
    return JobSpec(name=name,
                   mapper=OnlineAggregationMapper(measure),
                   reducer=OnlineAggregationReducer(measure),
                   combiner=combiner,
                   requires_secondary_keys=True)
