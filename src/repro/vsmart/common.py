"""Shared helpers for the joining-phase algorithms.

All three joining algorithms accumulate the unilateral partial results
``Uni(Mi)`` by summing per-element contributions; these helpers centralise
that logic together with the dedicated combiners that pre-aggregate the
contributions on the mapper machines (the paper's main lever for balancing
the reducers that handle multisets with vast underlying cardinalities).

Every combiner and reducer of the joining phase folds ``Uni`` with
:func:`~repro.similarity.partials.uni_fold`: a measure with a scalar
unilateral kernel has its contributions added as one column of floats, in
value-list order, any other is merged with its own ``uni_merge``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Sequence

from repro.mapreduce.job import Combiner, TaskContext
from repro.similarity.base import NominalSimilarityMeasure, Partials
from repro.similarity.partials import uni_fold

#: Field readers of the joining jobs' value tuples.
first, second, third, fourth = map(itemgetter, range(4))


class UniSumCombiner(Combiner):
    """Dedicated combiner summing ``Uni`` contribution tuples per multiset.

    Used by Lookup1, whose map output values are plain contribution tuples.
    """

    keeps_value_shape = True

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.measure = measure
        self._fold = uni_fold(measure)

    def combine(self, key: object, values: Sequence[Partials],
                context: TaskContext) -> Iterable[Partials]:
        return (self._fold(values),)


class UniCountCombiner(Combiner):
    """Dedicated combiner for ``(Uni contribution, element count)`` values.

    Used by Sharding1, which needs both ``Uni(Mi)`` and the underlying
    cardinality ``|U(Mi)|`` (to compare against the sharding threshold C).
    """

    keeps_value_shape = True

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.measure = measure
        self._fold = uni_fold(measure)

    def combine(self, key: object, values: Sequence[tuple[Partials, int]],
                context: TaskContext) -> Iterable[tuple[Partials, int]]:
        return ((self._fold(map(first, values)), sum(map(second, values))),)
