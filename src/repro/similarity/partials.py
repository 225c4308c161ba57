"""Measure-agnostic accumulation of partial results.

Every consumer of the decomposition accumulates the unilateral partial
results ``Uni(Mi)`` the same way: apply the measure's effective-multiplicity
mapping to each element, convert it to a contribution tuple and fold the
contributions with the measure's associative merge.  These helpers express
that per-contribution form for the record-at-a-time MapReduce pipelines.
Whole-entity consumers fold in one pass: the exact evaluators (the oracle)
with :meth:`~repro.similarity.base.NominalSimilarityMeasure.unilateral`, the
serving tier — stored side and query side alike — with
:func:`fold_uni_multiplicities`.  The two agree exactly while the integer
sums stay below 2**53 (the scalar kernels sum ints and convert once,
``unilateral`` adds floats); beyond that neither is exact.

(The helpers used to live in :mod:`repro.vsmart.common`, which still
re-exports them; they moved here because they depend only on the measure
API, not on the MapReduce machinery.)
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.similarity.base import NominalSimilarityMeasure, Partials


def uni_contribution(measure: NominalSimilarityMeasure,
                     multiplicity: float) -> Partials:
    """Per-element contribution of a multiplicity to ``Uni(Mi)``.

    Applies the measure's effective-multiplicity mapping first, so set
    measures contribute one per distinct element regardless of multiplicity.
    """
    return measure.uni_from_multiplicity(measure.effective_multiplicity(multiplicity))


def merge_uni(measure: NominalSimilarityMeasure,
              contributions: Iterable[Partials],
              uni_zero: Partials | None = None) -> Partials:
    """Fold ``Uni`` contributions with the measure's merge.

    ``uni_zero`` is the measure's identity element when the caller has read
    it already (a combiner or reducer reads it once per job, not per group).
    """
    merge = measure.uni_merge
    accumulator = measure.uni_zero() if uni_zero is None else uni_zero
    for contribution in contributions:
        accumulator = merge(accumulator, contribution)
    return accumulator


def fold_uni_multiplicities(measure: NominalSimilarityMeasure,
                            multiplicities: Sequence[float]) -> Partials:
    """Fold raw multiplicities straight into ``Uni(Mi)``.

    Semantically ``merge_uni(measure, [uni_contribution(measure, m) ...])``,
    but measures declaring a scalar unilateral kernel
    (:mod:`repro.similarity.kernels`) skip the per-element tuple churn and
    reduce in one pass; all supported measures produce identical tuples
    either way (integer-valued multiplicities sum exactly).
    """
    kind = getattr(measure, "uni_kernel", "generic")
    if kind == "sum":
        if measure.uses_underlying_set:
            return (float(sum(1 for multiplicity in multiplicities
                              if multiplicity > 0)),)
        return (float(sum(multiplicity for multiplicity in multiplicities
                          if multiplicity > 0)),)
    if kind == "sum_squares" and not measure.uses_underlying_set:
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
