"""Concrete Nominal Similarity Measures.

Every measure discussed in the paper is implemented here in the decomposed
(Eqn. 1) form the V-SMART-Join framework consumes:

* Ruzicka (the multiset generalisation of Jaccard) — the measure used in the
  paper's IP/cookie experiments — rewritten, as in section 3.2, to avoid its
  disjunctive ``max`` partial:
  ``|Mi ∩ Mj| / (|Mi| + |Mj| - |Mi ∩ Mj|)``;
* Jaccard on underlying sets;
* Dice and cosine, in both set and multiset flavours;
* vector cosine on raw multiplicities;
* the overlap coefficient;
* ``DirectRuzicka``, the textbook min/max formulation that *does* require a
  disjunctive partial; it is mathematically identical to Ruzicka and exists
  to exercise the framework's rejection path and to cross-check the rewrite.

Every filter prunes with the measure's own arithmetic: ``combine`` of a
``Conj`` bound (:meth:`~NominalSimilarityMeasure.conj_upper_bound`), the
float operations the final ``similarity >= t`` test runs.  The one other
bound, ``size_lower_bound``, only sizes prefixes (Chaudhuri et al. [10]),
where a rounding margin can lengthen a prefix but never drop a pair.
"""

from __future__ import annotations

import math

from repro.core.multiset import Multiset
from repro.similarity.base import (
    NominalSimilarityMeasure,
    PartialDescriptor,
    PartialKind,
    Partials,
)


class _MinIntersectionMeasure(NominalSimilarityMeasure):
    """Shared bound for measures whose conjunctive partial is ``sum min``.

    For these measures ``|Mi ∩ Mj| = sum_k min(f_ik, f_jk)`` never exceeds
    the smaller cardinality, giving the serving index a similarity upper
    bound from the ``Uni`` tuples alone.  Each concrete measure declares
    the scalar kernels beside the methods they stand for: ``Uni`` is the
    (effective) cardinality and ``Conj`` a sum of minima, so the array
    kernels can run them as plain probes.
    """

    def conj_upper_bound(self, uni_i: Partials,
                         uni_j: Partials) -> Partials | None:
        return (min(uni_i[0], uni_j[0]),)


class RuzickaSimilarity(_MinIntersectionMeasure):
    """Ruzicka similarity — generalised (weighted) Jaccard for multisets.

    ``Sim = |Mi ∩ Mj| / (|Mi| + |Mj| - |Mi ∩ Mj|)`` where the intersection
    cardinality is ``sum_k min(f_ik, f_jk)``.  This is the measure used in
    the paper's experiments (section 7).
    """

    name = "ruzicka"
    uses_underlying_set = False
    conj_kernel = "sum_min"
    uni_kernel = "sum"
    bound_kernel = "min_over_union"

    def uni_from_multiplicity(self, multiplicity: float) -> Partials:
        return (multiplicity,)

    def conj_from_pair(self, multiplicity_i: float,
                       multiplicity_j: float) -> Partials:
        return (min(multiplicity_i, multiplicity_j),)

    def combine(self, uni_i: Partials, uni_j: Partials,
                conj: Partials) -> float:
        intersection = conj[0]
        union = uni_i[0] + uni_j[0] - intersection
        if union <= 0:
            return 0.0
        return intersection / union

    def partial_descriptors(self) -> list[PartialDescriptor]:
        return [
            PartialDescriptor("|Mi|", PartialKind.UNILATERAL, "sum",
                              "cardinality of the first multiset"),
            PartialDescriptor("|Mj|", PartialKind.UNILATERAL, "sum",
                              "cardinality of the second multiset"),
            PartialDescriptor("|Mi ∩ Mj|", PartialKind.CONJUNCTIVE, "sum",
                              "sum of per-element minimum multiplicities"),
        ]

    def size_lower_bound(self, size: float, threshold: float) -> float:
        return threshold * size


class JaccardSimilarity(RuzickaSimilarity):
    """Jaccard similarity on underlying sets: ``|Si ∩ Sj| / |Si ∪ Sj|``."""

    name = "jaccard"
    uses_underlying_set = True


class MultisetDiceSimilarity(_MinIntersectionMeasure):
    """Dice similarity generalised to multisets: ``2|Mi ∩ Mj| / (|Mi|+|Mj|)``."""

    name = "dice"
    uses_underlying_set = False
    conj_kernel = "sum_min"
    uni_kernel = "sum"

    def uni_from_multiplicity(self, multiplicity: float) -> Partials:
        return (multiplicity,)

    def conj_from_pair(self, multiplicity_i: float,
                       multiplicity_j: float) -> Partials:
        return (min(multiplicity_i, multiplicity_j),)

    def combine(self, uni_i: Partials, uni_j: Partials,
                conj: Partials) -> float:
        denominator = uni_i[0] + uni_j[0]
        if denominator <= 0:
            return 0.0
        return 2.0 * conj[0] / denominator

    def partial_descriptors(self) -> list[PartialDescriptor]:
        return [
            PartialDescriptor("|Mi|", PartialKind.UNILATERAL, "sum"),
            PartialDescriptor("|Mj|", PartialKind.UNILATERAL, "sum"),
            PartialDescriptor("|Mi ∩ Mj|", PartialKind.CONJUNCTIVE, "sum"),
        ]

    def size_lower_bound(self, size: float, threshold: float) -> float:
        return threshold / (2.0 - threshold) * size


class SetDiceSimilarity(MultisetDiceSimilarity):
    """Dice similarity on underlying sets: ``2|Si ∩ Sj| / (|Si|+|Sj|)``."""

    name = "set_dice"
    uses_underlying_set = True


class MultisetCosineSimilarity(_MinIntersectionMeasure):
    """Cosine similarity generalised to multisets via the set expansion.

    ``Sim = |Mi ∩ Mj| / sqrt(|Mi| * |Mj|)`` — the intersection is the sum of
    per-element minimum multiplicities (paper section 3.1).
    """

    name = "cosine"
    uses_underlying_set = False
    conj_kernel = "sum_min"
    uni_kernel = "sum"

    def uni_from_multiplicity(self, multiplicity: float) -> Partials:
        return (multiplicity,)

    def conj_from_pair(self, multiplicity_i: float,
                       multiplicity_j: float) -> Partials:
        return (min(multiplicity_i, multiplicity_j),)

    def combine(self, uni_i: Partials, uni_j: Partials,
                conj: Partials) -> float:
        denominator = math.sqrt(uni_i[0] * uni_j[0])
        if denominator <= 0:
            return 0.0
        return conj[0] / denominator

    def partial_descriptors(self) -> list[PartialDescriptor]:
        return [
            PartialDescriptor("|Mi|", PartialKind.UNILATERAL, "sum"),
            PartialDescriptor("|Mj|", PartialKind.UNILATERAL, "sum"),
            PartialDescriptor("|Mi ∩ Mj|", PartialKind.CONJUNCTIVE, "sum"),
        ]

    def size_lower_bound(self, size: float, threshold: float) -> float:
        return threshold * threshold * size


class SetCosineSimilarity(MultisetCosineSimilarity):
    """Cosine similarity on underlying sets: ``|Si ∩ Sj| / sqrt(|Si| |Sj|)``."""

    name = "set_cosine"
    uses_underlying_set = True


class VectorCosineSimilarity(NominalSimilarityMeasure):
    """Cosine similarity of the raw multiplicity vectors.

    ``Sim = sum_k f_ik f_jk / (||Mi||_2 ||Mj||_2)``.  The unilateral partial
    is the sum of squared multiplicities; the conjunctive partial is the dot
    product over shared elements.
    """

    name = "vector_cosine"
    uses_underlying_set = False
    conj_kernel = "sum_product"
    uni_kernel = "sum_squares"

    def uni_from_multiplicity(self, multiplicity: float) -> Partials:
        return (multiplicity * multiplicity,)

    def conj_from_pair(self, multiplicity_i: float,
                       multiplicity_j: float) -> Partials:
        return (multiplicity_i * multiplicity_j,)

    def combine(self, uni_i: Partials, uni_j: Partials,
                conj: Partials) -> float:
        denominator = math.sqrt(uni_i[0]) * math.sqrt(uni_j[0])
        if denominator <= 0:
            return 0.0
        # Rounding can put a vector's cosine with itself one ulp above 1.0.
        return min(conj[0] / denominator, 1.0)

    def partial_descriptors(self) -> list[PartialDescriptor]:
        return [
            PartialDescriptor("sum f_ik^2", PartialKind.UNILATERAL, "sum",
                              "squared L2 norm of the first vector"),
            PartialDescriptor("sum f_jk^2", PartialKind.UNILATERAL, "sum",
                              "squared L2 norm of the second vector"),
            PartialDescriptor("sum f_ik f_jk", PartialKind.CONJUNCTIVE, "sum",
                              "dot product over shared dimensions"),
        ]

    # No conj_upper_bound override: the Cauchy–Schwarz bound sqrt(uni_i uni_j)
    # always combines to ~1.0, so it prunes nothing — and float rounding can
    # land it one ulp *below* 1.0, wrongly pruning exact matches at t = 1.0.
    # The inherited default (no bound, similarity_upper_bound = 1.0) is both
    # safe and equally tight.


class OverlapSimilarity(NominalSimilarityMeasure):
    """Overlap (Szymkiewicz–Simpson) coefficient: ``|Mi ∩ Mj| / min(|Mi|, |Mj|)``.

    Not a :class:`_MinIntersectionMeasure`: the min-intersection bound
    combines to ``min / min`` = 1.0 identically, so it would never prune —
    the inherited no-bound default costs nothing and is equally tight.
    """

    name = "overlap"
    uses_underlying_set = False
    conj_kernel = "sum_min"
    uni_kernel = "sum"

    def uni_from_multiplicity(self, multiplicity: float) -> Partials:
        return (multiplicity,)

    def conj_from_pair(self, multiplicity_i: float,
                       multiplicity_j: float) -> Partials:
        return (min(multiplicity_i, multiplicity_j),)

    def combine(self, uni_i: Partials, uni_j: Partials,
                conj: Partials) -> float:
        denominator = min(uni_i[0], uni_j[0])
        if denominator <= 0:
            return 0.0
        return conj[0] / denominator

    def partial_descriptors(self) -> list[PartialDescriptor]:
        return [
            PartialDescriptor("|Mi|", PartialKind.UNILATERAL, "sum"),
            PartialDescriptor("|Mj|", PartialKind.UNILATERAL, "sum"),
            PartialDescriptor("|Mi ∩ Mj|", PartialKind.CONJUNCTIVE, "sum"),
        ]


class SetOverlapSimilarity(OverlapSimilarity):
    """Overlap coefficient on underlying sets."""

    name = "set_overlap"
    uses_underlying_set = True


class DirectRuzickaSimilarity(NominalSimilarityMeasure):
    """The textbook min/max Ruzicka formulation with a disjunctive partial.

    ``Sim = sum_k min(f_ik, f_jk) / sum_k max(f_ik, f_jk)``.  The denominator
    requires scanning the *union* of the two underlying sets, so this measure
    cannot be handled by the MapReduce drivers (they raise
    :class:`~repro.core.exceptions.MeasureNotApplicableError`).

    It stays although no distributed path runs it.  It is the paper's one
    disjunctive measure (the only one registered with
    ``requires_disjunctive``), so the drivers' refusal is tested against
    it.  And it shows that the paper's conjunctive rewrite of Ruzicka is
    exact: ``max(a, b) = a + b - min(a, b)`` turns the union sum into
    ``|Mi| + |Mj| - sum_k min(f_ik, f_jk)``, which
    :class:`RuzickaSimilarity` computes, and the two forms agree.
    """

    name = "direct_ruzicka"
    uses_underlying_set = False
    requires_disjunctive = True
    conj_kernel = "sum_min"

    def uni_from_multiplicity(self, multiplicity: float) -> Partials:
        return ()

    def conj_from_pair(self, multiplicity_i: float,
                       multiplicity_j: float) -> Partials:
        return (min(multiplicity_i, multiplicity_j),)

    def uni_zero(self) -> Partials:
        return ()

    def combine(self, uni_i: Partials, uni_j: Partials,
                conj: Partials) -> float:
        raise NotImplementedError(
            "DirectRuzicka has a disjunctive partial; use .similarity() "
            "for exact in-memory evaluation")

    def similarity(self, entity_i: Multiset, entity_j: Multiset) -> float:
        union = entity_i.union_cardinality(entity_j)
        if union <= 0:
            return 0.0
        return entity_i.intersection_cardinality(entity_j) / union

    def partial_descriptors(self) -> list[PartialDescriptor]:
        return [
            PartialDescriptor("sum min(f_ik, f_jk)", PartialKind.CONJUNCTIVE, "sum"),
            PartialDescriptor("sum max(f_ik, f_jk)", PartialKind.DISJUNCTIVE, "sum",
                              "requires scanning the union of the two multisets"),
        ]
