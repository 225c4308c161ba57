"""Array-backed similarity kernels over interned multisets.

The generic decomposition path accumulates ``Conj(Mi, Mj)`` one shared
element at a time: two dict probes, two ``effective_multiplicity`` calls,
one ``conj_from_pair`` tuple allocation and one ``conj_merge`` tuple
allocation per element.  For the measures the paper actually uses, the
conjunctive partial is a single scalar (a sum of minima or a sum of
products), so all of that per-element machinery collapses into a merge scan
over two sorted id arrays accumulating one float — no hashing, no tuples,
no per-element function calls.

Measures declare which scalar kernel applies through two class attributes
(:attr:`~repro.similarity.base.NominalSimilarityMeasure.conj_kernel` and
:attr:`~repro.similarity.base.NominalSimilarityMeasure.uni_kernel`); any
measure that declares nothing falls back to a merge scan that calls the
measure's own hooks per shared element, so custom measures stay correct,
just not accelerated.

All kernels are *exact*, not approximate: multiplicities are integer-valued
(:class:`~repro.core.multiset.Multiset` enforces this), so the float sums
are order-independent and the kernels reproduce the dict-based reference
path bit for bit.  Large operands are handed to NumPy when it is available;
both code paths compute the identical sums.
"""

from __future__ import annotations

from typing import Callable

from repro.core.interning import InternedMultiset
from repro.similarity.base import NominalSimilarityMeasure, Partials

try:  # NumPy ships with the dev environment but stays optional.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

#: Conjunctive kernel kinds a measure may declare.
CONJ_SUM_MIN = "sum_min"
CONJ_SUM_PRODUCT = "sum_product"
CONJ_GENERIC = "generic"
CONJ_KERNELS = (CONJ_SUM_MIN, CONJ_SUM_PRODUCT, CONJ_GENERIC)

#: Unilateral kernel kinds a measure may declare.
UNI_SUM = "sum"
UNI_SUM_SQUARES = "sum_squares"
UNI_GENERIC = "generic"
UNI_KERNELS = (UNI_SUM, UNI_SUM_SQUARES, UNI_GENERIC)

#: Closed forms of the similarity upper bound a measure may declare.
BOUND_MIN_OVER_UNION = "min_over_union"
BOUND_GENERIC = "generic"
BOUND_KERNELS = (BOUND_MIN_OVER_UNION, BOUND_GENERIC)

#: Operand size (sum of both underlying cardinalities) above which the
#: vectorised NumPy intersection beats the pure-Python merge scan.
NUMPY_THRESHOLD = 192


def conj_kernel_kind(measure: NominalSimilarityMeasure) -> str:
    """The scalar conjunctive kernel declared by ``measure``."""
    return getattr(measure, "conj_kernel", CONJ_GENERIC)


def uni_kernel_kind(measure: NominalSimilarityMeasure) -> str:
    """The scalar unilateral kernel declared by ``measure``."""
    return getattr(measure, "uni_kernel", UNI_GENERIC)


#: The methods a bound's closed form stands for.
_BOUND_METHODS = ("combine", "conj_upper_bound", "similarity_upper_bound")


def bound_kernel_kind(measure: NominalSimilarityMeasure) -> str:
    """The closed form of the similarity upper bound declared by ``measure``.

    A class's declaration holds for its subclasses only while they keep its
    ``combine``, ``conj_upper_bound`` and ``similarity_upper_bound``: a
    subclass that overrides one of them and does not declare the bound
    again gets ``"generic"``, the called bound.
    """
    kind = getattr(measure, "bound_kernel", BOUND_GENERIC)
    if kind == BOUND_GENERIC or "bound_kernel" in vars(measure):
        return kind
    cls = type(measure)
    declaring = next(owner for owner in cls.__mro__
                     if "bound_kernel" in vars(owner))
    if any(getattr(cls, name) is not getattr(declaring, name)
           for name in _BOUND_METHODS):
        return BOUND_GENERIC
    return kind


# ---------------------------------------------------------------------------
# Scalar merge scans (the hot loops)
# ---------------------------------------------------------------------------


def _scan_sum_min(ids_i: tuple, mults_i: tuple,
                  ids_j: tuple, mults_j: tuple) -> float:
    """``sum_k min(f_ik, f_jk)`` over the shared elements (merge scan)."""
    i = j = 0
    size_i = len(ids_i)
    size_j = len(ids_j)
    total = 0.0
    while i < size_i and j < size_j:
        a = ids_i[i]
        b = ids_j[j]
        if a == b:
            x = mults_i[i]
            y = mults_j[j]
            total += x if x <= y else y
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return total


def _scan_count_common(ids_i: tuple, ids_j: tuple) -> float:
    """``|U(Mi) ∩ U(Mj)|`` — the set-measure flavour of ``sum_min``."""
    i = j = 0
    size_i = len(ids_i)
    size_j = len(ids_j)
    total = 0
    while i < size_i and j < size_j:
        a = ids_i[i]
        b = ids_j[j]
        if a == b:
            total += 1
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return float(total)


def _scan_sum_product(ids_i: tuple, mults_i: tuple,
                      ids_j: tuple, mults_j: tuple) -> float:
    """``sum_k f_ik * f_jk`` over the shared elements (merge scan)."""
    i = j = 0
    size_i = len(ids_i)
    size_j = len(ids_j)
    total = 0.0
    while i < size_i and j < size_j:
        a = ids_i[i]
        b = ids_j[j]
        if a == b:
            total += mults_i[i] * mults_j[j]
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return total


def _numpy_scalar_conj(kind: str, set_mode: bool,
                       entity_i: InternedMultiset,
                       entity_j: InternedMultiset) -> float:
    """Vectorised intersection path for large operands.

    ``intersect1d`` on the (already unique, already sorted) id arrays yields
    the aligned positions of the shared elements; the scalar reduction is
    then a single vector op.  Integer-valued inputs make the vectorised sums
    exactly equal to the sequential ones.
    """
    ids_i = _np.asarray(entity_i.element_ids, dtype=_np.int64)
    ids_j = _np.asarray(entity_j.element_ids, dtype=_np.int64)
    common, where_i, where_j = _np.intersect1d(
        ids_i, ids_j, assume_unique=True, return_indices=True)
    if set_mode:
        return float(len(common))
    mults_i = _np.asarray(entity_i.multiplicities, dtype=_np.float64)[where_i]
    mults_j = _np.asarray(entity_j.multiplicities, dtype=_np.float64)[where_j]
    if kind == CONJ_SUM_MIN:
        return float(_np.minimum(mults_i, mults_j).sum())
    return float((mults_i * mults_j).sum())


# ---------------------------------------------------------------------------
# Public kernel API
# ---------------------------------------------------------------------------


def interned_conjunctive(measure: NominalSimilarityMeasure,
                         entity_i: InternedMultiset,
                         entity_j: InternedMultiset) -> Partials:
    """``Conj(Mi, Mj)`` from the array representations.

    Dispatches on the measure's declared conjunctive kernel; equals
    :meth:`~repro.similarity.base.NominalSimilarityMeasure.conjunctive` on
    the corresponding :class:`~repro.core.multiset.Multiset` pair exactly.
    """
    kind = conj_kernel_kind(measure)
    if kind == CONJ_GENERIC:
        return _generic_conjunctive(measure, entity_i, entity_j)
    set_mode = measure.uses_underlying_set
    if (_np is not None
            and len(entity_i) + len(entity_j) >= NUMPY_THRESHOLD):
        return (_numpy_scalar_conj(kind, set_mode, entity_i, entity_j),)
    if set_mode:
        return (_scan_count_common(entity_i.element_ids,
                                   entity_j.element_ids),)
    if kind == CONJ_SUM_MIN:
        return (_scan_sum_min(entity_i.element_ids, entity_i.multiplicities,
                              entity_j.element_ids, entity_j.multiplicities),)
    return (_scan_sum_product(entity_i.element_ids, entity_i.multiplicities,
                              entity_j.element_ids, entity_j.multiplicities),)


def _generic_conjunctive(measure: NominalSimilarityMeasure,
                         entity_i: InternedMultiset,
                         entity_j: InternedMultiset) -> Partials:
    """Merge scan calling the measure's own per-element hooks (any measure)."""
    effective = measure.effective_multiplicity
    conj_from_pair = measure.conj_from_pair
    conj_merge = measure.conj_merge
    accumulator = measure.conj_zero()
    ids_i = entity_i.element_ids
    ids_j = entity_j.element_ids
    mults_i = entity_i.multiplicities
    mults_j = entity_j.multiplicities
    i = j = 0
    size_i = len(ids_i)
    size_j = len(ids_j)
    while i < size_i and j < size_j:
        a = ids_i[i]
        b = ids_j[j]
        if a == b:
            accumulator = conj_merge(
                accumulator,
                conj_from_pair(effective(mults_i[i]), effective(mults_j[j])))
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return accumulator


def interned_unilateral(measure: NominalSimilarityMeasure,
                        entity: InternedMultiset) -> Partials:
    """``Uni(Mi)`` from the array representation.

    Equals
    :meth:`~repro.similarity.base.NominalSimilarityMeasure.unilateral` on
    the corresponding multiset exactly.
    """
    kind = uni_kernel_kind(measure)
    if kind == UNI_SUM:
        if measure.uses_underlying_set:
            return (float(len(entity)),)
        return (entity.cardinality,)
    if kind == UNI_SUM_SQUARES:
        mults = entity.multiplicities
        if measure.uses_underlying_set:
            return (float(len(entity)),)
        return (float(sum(m * m for m in mults)),)
    return measure.unilateral(entity.items())


def interned_similarity(measure: NominalSimilarityMeasure,
                        entity_i: InternedMultiset,
                        entity_j: InternedMultiset,
                        uni_i: Partials | None = None,
                        uni_j: Partials | None = None) -> float:
    """``Sim(Mi, Mj)`` from the array representations.

    Callers comparing one entity against many (the VCL kernel reducer)
    pass precomputed ``Uni`` tuples to avoid refolding them per pair.
    """
    if uni_i is None:
        uni_i = interned_unilateral(measure, entity_i)
    if uni_j is None:
        uni_j = interned_unilateral(measure, entity_j)
    return measure.combine(uni_i, uni_j,
                           interned_conjunctive(measure, entity_i, entity_j))


# ---------------------------------------------------------------------------
# Scalar accumulators (for streaming consumers like the serving index)
# ---------------------------------------------------------------------------


def scalar_conj_functions(
        measure: NominalSimilarityMeasure,
) -> tuple[Callable[[float, float], float], Callable[[float, float, float], float]] | None:
    """Streaming scalar accumulation for measures with a scalar kernel.

    Returns ``(seed, accumulate)`` where ``seed(fi, fj)`` starts a scalar
    ``Conj`` accumulator from the first shared element and
    ``accumulate(total, fi, fj)`` folds another shared element in, or
    ``None`` for measures without a scalar kernel.  The scalar stands for
    the measure's one-tuple ``Conj`` — wrap it as ``(total,)`` before
    calling ``combine``.  Avoids one tuple allocation per (element,
    candidate) posting hit on the serving hot path.
    """
    kind = conj_kernel_kind(measure)
    if kind == CONJ_SUM_MIN:
        def seed_min(multiplicity_i: float, multiplicity_j: float) -> float:
            return multiplicity_i if multiplicity_i <= multiplicity_j else multiplicity_j

        def accumulate_min(total: float, multiplicity_i: float,
                           multiplicity_j: float) -> float:
            return total + (multiplicity_i
                            if multiplicity_i <= multiplicity_j
                            else multiplicity_j)

        return seed_min, accumulate_min
    if kind == CONJ_SUM_PRODUCT:
        def seed_product(multiplicity_i: float, multiplicity_j: float) -> float:
            return multiplicity_i * multiplicity_j

        def accumulate_product(total: float, multiplicity_i: float,
                               multiplicity_j: float) -> float:
            return total + multiplicity_i * multiplicity_j

        return seed_product, accumulate_product
    return None
