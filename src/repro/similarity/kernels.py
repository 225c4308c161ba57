"""Array-backed similarity kernels over interned multisets.

The generic decomposition path accumulates ``Conj(Mi, Mj)`` one shared
element at a time: two dict probes, two ``effective_multiplicity`` calls,
one ``conj_from_pair`` tuple allocation and one ``conj_merge`` tuple
allocation per element.  For the measures the paper actually uses, the
conjunctive partial is a single scalar (a sum of minima or a sum of
products), so all of that per-element machinery collapses into one loop
over the smaller operand's ``id -> multiplicity`` map, probing the larger
one and accumulating one float — no tuples, no per-element function calls.

Measures declare which scalar kernel applies through two class attributes
(:attr:`~repro.similarity.base.NominalSimilarityMeasure.conj_kernel` and
:attr:`~repro.similarity.base.NominalSimilarityMeasure.uni_kernel`); any
measure that declares nothing — or overrides a method its inherited
declaration stands for (:func:`uni_kernel_kind`, :func:`conj_kernel_kind`)
— falls back to a probe that calls the measure's own hooks per shared
element, so custom measures stay correct, just not accelerated.

All kernels are *exact*, not approximate: multiplicities are integer-valued
(:class:`~repro.core.multiset.Multiset` enforces this), so the float sums
are order-independent and the kernels reproduce the dict-based reference
path bit for bit.  The shared elements are visited in ascending id order
(the maps are built from the sorted arrays), so a generic measure's
``conj_merge`` folds in that order whatever the operands' sizes.
"""

from __future__ import annotations

from typing import Callable

from repro.core.interning import InternedMultiset
from repro.similarity.base import NominalSimilarityMeasure, Partials

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


#: The methods each declaration stands for: a subclass that overrides one of
#: them does not inherit the declaration.
_CONJ_METHODS = ("conj_from_pair", "conj_merge", "conj_zero",
                 "effective_multiplicity")
_UNI_METHODS = ("uni_from_multiplicity", "uni_merge", "uni_zero",
                "effective_multiplicity")
_BOUND_METHODS = ("combine", "conj_upper_bound", "similarity_upper_bound")


class _DeclaredKinds(dict):
    """Measure class -> the kernel kind its declaration holds for.

    Resolved the first time a class is asked for, then kept: a declaration
    is a class attribute, and it holds for a subclass only while the
    subclass keeps every method it stands for.  A subclass that overrides
    one of them and does not declare the kernel again gets ``"generic"``.
    """

    __slots__ = ("attribute", "methods", "generic")

    def __init__(self, attribute: str, methods: tuple[str, ...],
                 generic: str) -> None:
        super().__init__()
        self.attribute = attribute
        self.methods = methods
        self.generic = generic

    def __missing__(self, cls: type) -> str:
        kind = getattr(cls, self.attribute, self.generic)
        if kind != self.generic:
            declaring = next(owner for owner in cls.__mro__
                             if self.attribute in vars(owner))
            if any(getattr(cls, name) is not getattr(declaring, name)
                   for name in self.methods):
                kind = self.generic
        self[cls] = kind
        return kind


_CONJ_KINDS = _DeclaredKinds("conj_kernel", _CONJ_METHODS, CONJ_GENERIC)
_UNI_KINDS = _DeclaredKinds("uni_kernel", _UNI_METHODS, UNI_GENERIC)
_BOUND_KINDS = _DeclaredKinds("bound_kernel", _BOUND_METHODS, BOUND_GENERIC)


def conj_kernel_kind(measure: NominalSimilarityMeasure) -> str:
    """The scalar conjunctive kernel ``measure`` declares, and keeps.

    The declaration stands for ``conj_from_pair``, ``conj_merge``,
    ``conj_zero`` and ``effective_multiplicity``; a subclass overriding
    one of them without declaring again gets ``"generic"``.
    """
    return _CONJ_KINDS[type(measure)]


def uni_kernel_kind(measure: NominalSimilarityMeasure) -> str:
    """The scalar unilateral kernel ``measure`` declares, and keeps.

    The declaration stands for ``uni_from_multiplicity``, ``uni_merge``,
    ``uni_zero`` and ``effective_multiplicity``; a subclass overriding one
    of them without declaring again gets ``"generic"``.
    """
    return _UNI_KINDS[type(measure)]


def bound_kernel_kind(measure: NominalSimilarityMeasure) -> str:
    """The closed form of the similarity upper bound declared by ``measure``.

    The declaration stands for ``combine``, ``conj_upper_bound`` and
    ``similarity_upper_bound``; a subclass overriding one of them without
    declaring the bound again gets ``"generic"``, the called bound.
    """
    return _BOUND_KINDS[type(measure)]


# ---------------------------------------------------------------------------
# Scalar probes (the hot loops)
# ---------------------------------------------------------------------------


def _probe_sum_min(small: dict, large: dict) -> float:
    """``sum_k min(f_ik, f_jk)`` over the shared elements.

    Walks the smaller map and probes the larger: the cost is the smaller
    operand's size, not the sum of both.
    """
    get = large.get
    total = 0.0
    for element_id, x in small.items():
        y = get(element_id)
        if y is not None:
            total += x if x <= y else y
    return total


def _probe_sum_product(small: dict, large: dict) -> float:
    """``sum_k f_ik * f_jk`` over the shared elements."""
    get = large.get
    total = 0.0
    for element_id, x in small.items():
        y = get(element_id)
        if y is not None:
            total += x * y
    return total


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
    small = entity_i.counts()
    large = entity_j.counts()
    if len(small) > len(large):
        small, large = large, small
    if measure.uses_underlying_set:
        return (float(len(small.keys() & large.keys())),)
    if kind == CONJ_SUM_MIN:
        return (_probe_sum_min(small, large),)
    return (_probe_sum_product(small, large),)


def _generic_conjunctive(measure: NominalSimilarityMeasure,
                         entity_i: InternedMultiset,
                         entity_j: InternedMultiset) -> Partials:
    """A probe calling the measure's own per-element hooks (any measure).

    Walks ``entity_i`` in ascending id order, so ``conj_from_pair`` sees
    ``(f_ik, f_jk)`` in argument order and ``conj_merge`` folds the shared
    elements in ascending id order.
    """
    effective = measure.effective_multiplicity
    conj_from_pair = measure.conj_from_pair
    conj_merge = measure.conj_merge
    accumulator = measure.conj_zero()
    get = entity_j.counts().get
    for element_id, multiplicity_i in entity_i.counts().items():
        multiplicity_j = get(element_id)
        if multiplicity_j is not None:
            accumulator = conj_merge(
                accumulator,
                conj_from_pair(effective(multiplicity_i), effective(multiplicity_j)))
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

    Callers comparing one entity against many (the exact all-pairs join,
    the VCL kernel reducer) pass precomputed ``Uni`` tuples to avoid
    refolding them per pair.
    """
    if uni_i is None:
        uni_i = interned_unilateral(measure, entity_i)
    if uni_j is None:
        uni_j = interned_unilateral(measure, entity_j)
    return measure.combine(uni_i, uni_j,
                           interned_conjunctive(measure, entity_i, entity_j))


# ---------------------------------------------------------------------------
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
