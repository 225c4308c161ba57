"""Measure-agnostic accumulation of partial results.

Every consumer of the decomposition accumulates the unilateral partial
results ``Uni(Mi)`` the same way: apply the measure's effective-multiplicity
mapping to each element, convert it to a contribution tuple and fold the
contributions with the measure's associative merge.  The MapReduce
pipelines do it column-wise: :func:`uni_contributions` turns a column of
multiplicities into contribution tuples and :func:`uni_fold` folds a value
list of them, the measure's scalar kernel inlined when it declares one.
Whole-entity consumers fold in one pass: the exact evaluators (the oracle)
with :meth:`~repro.similarity.base.NominalSimilarityMeasure.unilateral`, the
serving tier — stored side and query side alike — with
:func:`fold_uni_multiplicities`.  The two agree exactly while the integer
sums stay below 2**53 (the scalar kernels sum ints and convert once,
``unilateral`` adds floats); beyond that neither is exact.
"""

from __future__ import annotations

from functools import reduce
from operator import add, itemgetter
from typing import Callable, Iterable, Sequence

from repro.similarity.base import NominalSimilarityMeasure, Partials
from repro.similarity.kernels import (
    UNI_GENERIC,
    UNI_SUM,
    UNI_SUM_SQUARES,
    uni_kernel_kind,
)


def uni_contribution(measure: NominalSimilarityMeasure,
                     multiplicity: float) -> Partials:
    """Per-element contribution of a multiplicity to ``Uni(Mi)``.

    Applies the measure's effective-multiplicity mapping first, so set
    measures contribute one per distinct element regardless of multiplicity.
    """
    return measure.uni_from_multiplicity(measure.effective_multiplicity(multiplicity))


def uni_contributions(measure: NominalSimilarityMeasure
                      ) -> Callable[[Sequence[float]], list[Partials]]:
    """Each row's :func:`uni_contribution`, from a column of positive
    multiplicities.

    A measure with a scalar unilateral kernel has it worked out inline — the
    same float, as the kernel declaration promises (a set measure's
    contribution is one shared tuple); a ``generic`` one is called per row.
    """
    kind = uni_kernel_kind(measure)
    if kind == UNI_GENERIC:
        return lambda multiplicities: [uni_contribution(measure, multiplicity)
                                       for multiplicity in multiplicities]
    if measure.uses_underlying_set:
        unit = uni_contribution(measure, 1.0)
        return lambda multiplicities: [unit] * len(multiplicities)
    if kind == UNI_SUM:
        return lambda multiplicities: [(value,) for value in
                                       map(float, multiplicities)]
    return lambda multiplicities: [(value * value,) for value in
                                   map(float, multiplicities)]


def uni_fold(measure: NominalSimilarityMeasure
             ) -> Callable[[Iterable[Partials]], Partials]:
    """Fold a value list of ``Uni`` contributions from ``uni_zero``.

    In value-list order, as ``uni_merge`` folds: a scalar kernel's
    contributions are one-element sums, so the fold adds their floats from
    ``uni_zero`` in that order — ``uni_merge``'s IEEE sequence — in one C
    loop; a ``generic`` measure's are merged with ``uni_merge``.  Every
    joining combiner and reducer folds ``Uni`` through this.
    """
    zero = measure.uni_zero()
    if uni_kernel_kind(measure) != UNI_GENERIC:
        (start,) = zero

        def fold_scalar(values: Iterable[Partials]) -> Partials:
            return (reduce(add, map(_first, values), start),)

        return fold_scalar
    merge = measure.uni_merge

    def fold(values: Iterable[Partials]) -> Partials:
        accumulator = zero
        for value in values:
            accumulator = merge(accumulator, value)
        return accumulator

    return fold


_first = itemgetter(0)


def fold_uni_multiplicities(measure: NominalSimilarityMeasure,
                            multiplicities: Sequence[float]) -> Partials:
    """Fold raw multiplicities straight into ``Uni(Mi)``.

    Semantically ``uni_fold(measure)(uni_contribution(measure, m) ...)``
    over the positive multiplicities, but measures declaring a scalar
    unilateral kernel (:mod:`repro.similarity.kernels`) skip the
    per-element tuple churn and reduce in one pass; all supported measures
    produce identical tuples either way (integer-valued multiplicities sum
    exactly).
    """
    kind = uni_kernel_kind(measure)
    if kind == UNI_SUM:
        if measure.uses_underlying_set:
            return (float(sum(1 for multiplicity in multiplicities
                              if multiplicity > 0)),)
        return (float(sum(multiplicity for multiplicity in multiplicities
                          if multiplicity > 0)),)
    if kind == UNI_SUM_SQUARES and not measure.uses_underlying_set:
        return (float(sum(multiplicity * multiplicity
                          for multiplicity in multiplicities
                          if multiplicity > 0)),)
    accumulator = measure.uni_zero()
    for multiplicity in multiplicities:
        effective = measure.effective_multiplicity(multiplicity)
        if effective > 0:
            accumulator = measure.uni_merge(
                accumulator, measure.uni_from_multiplicity(effective))
    return accumulator
