"""Shared helpers for the joining-phase algorithms.

All three joining algorithms accumulate the unilateral partial results
``Uni(Mi)`` by summing per-element contributions; these helpers centralise
that logic together with the dedicated combiners that pre-aggregate the
contributions on the mapper machines (the paper's main lever for balancing
the reducers that handle multisets with vast underlying cardinalities).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.mapreduce.job import Combiner, TaskContext
from repro.similarity.base import NominalSimilarityMeasure, Partials

# The pure accumulation helpers are measure-only code shared with the online
# serving index; they live in repro.similarity.partials and are re-exported
# here for the joining algorithms (and backwards compatibility).
from repro.similarity.partials import (  # noqa: F401
    merge_uni,
    uni_contribution,
)


class UniSumCombiner(Combiner):
    """Dedicated combiner summing ``Uni`` contribution tuples per multiset.

    Used by Lookup1, whose map output values are plain contribution tuples.
    """

    keeps_value_shape = True

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.measure = measure
        self._uni_zero = measure.uni_zero()

    def combine(self, key: object, values: Sequence[Partials],
                context: TaskContext) -> Iterator[Partials]:
        yield merge_uni(self.measure, values, self._uni_zero)


class UniCountCombiner(Combiner):
    """Dedicated combiner for ``(Uni contribution, element count)`` values.

    Used by Sharding1, which needs both ``Uni(Mi)`` and the underlying
    cardinality ``|U(Mi)|`` (to compare against the sharding threshold C).
    """

    keeps_value_shape = True

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.measure = measure
        self._uni_zero = measure.uni_zero()

    def combine(self, key: object, values: Sequence[tuple[Partials, int]],
                context: TaskContext) -> Iterator[tuple[Partials, int]]:
        yield fold_uni_counts(self.measure, self._uni_zero, values)


def fold_uni_counts(measure: NominalSimilarityMeasure, uni_zero: Partials,
                    values: Iterable[tuple[Partials, int]]
                    ) -> tuple[Partials, int]:
    """Fold ``(Uni contribution, element count)`` values into their sums."""
    merge = measure.uni_merge
    uni = uni_zero
    count = 0
    for contribution, elements in values:
        uni = merge(uni, contribution)
        count += elements
    return uni, count
