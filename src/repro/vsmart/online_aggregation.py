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

from itertools import takewhile
from typing import Iterable, Sequence

from repro.core.records import JoinedColumns
from repro.mapreduce.job import Combiner, JobSpec, Reducer, TaskContext
from repro.mapreduce.types import Emissions
from repro.similarity.base import NominalSimilarityMeasure
from repro.similarity.partials import uni_contributions, uni_fold
from repro.vsmart.common import second, third
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

    A batch mapper: each tuple's two emissions are interleaved in the
    columns, ``Uni`` first, so each lands on the combine machine it would
    record by record.
    """

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.measure = measure
        shapes = RecordShapes(measure)
        self._sizes = [shapes.oa_uni_kv, shapes.oa_element_kv]
        self._contributions = uni_contributions(measure)

    def map_batch(self, records: Sequence, context: TaskContext) -> Emissions:
        columns, counts = self.positive_rows(records)
        rows = len(columns)
        keys: list = [None] * (2 * rows)
        keys[0::2] = keys[1::2] = columns.multiset_ids
        values: list = [None] * (2 * rows)
        values[0::2] = [(UNI_TAG, contribution) for contribution in
                        self._contributions(columns.multiplicities)]
        values[1::2] = [(ELEMENT_TAG, element, multiplicity)
                        for element, multiplicity in zip(
                            columns.elements, columns.multiplicities)]
        return Emissions(keys, values,
                         [UNI_SECONDARY, ELEMENT_SECONDARY] * rows,
                         self._sizes * rows, [2 * count for count in counts])


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
        self._fold = uni_fold(measure)

    def combine(self, key: object, values: Sequence[tuple],
                context: TaskContext) -> Iterable[tuple]:
        if values and values[0][0] == UNI_TAG:
            return ((UNI_TAG, self._fold(map(second, values))),)
        return values


class OnlineAggregationReducer(Reducer):
    """``reduceOnline-Aggregation1``: stream out joined tuples.

    The reduce value list arrives sorted by secondary key, so every ``Uni``
    record precedes every element record; the reducer folds ``Uni(Mi)`` from
    the leading ``Uni`` records and emits ``<Mi, Uni(Mi), m_ik>`` for each
    element after them, as one :class:`JoinedColumns` block, without ever
    holding more than the value list it is handed.
    """

    materializes_input = False

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.measure = measure
        self._fold = uni_fold(measure)
        self.output_record_bytes = RecordShapes(measure).joined_tuple

    def new_output(self) -> JoinedColumns:
        return JoinedColumns()

    def reduce(self, key: object, values: Sequence[tuple],
               context: TaskContext) -> JoinedColumns:
        unis = list(takewhile(_is_uni, values))
        elements = values[len(unis):]
        uni = self._fold(map(second, unis))
        context.increment("online_aggregation/multisets", 1)
        return JoinedColumns([key] * len(elements), [uni] * len(elements),
                             list(map(second, elements)),
                             list(map(third, elements)))


def _is_uni(value: tuple) -> bool:
    return value[0] == UNI_TAG


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
