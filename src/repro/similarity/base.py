"""The Nominal Similarity Measure (NSM) framework of the paper's Eqn. 1.

Section 3 of the paper observes that every similarity measure in common use
for sets, multisets and vectors is *nominal* — agnostic to the order of the
alphabet (the Shuffling Invariant Property) — and can therefore be written
as

    Sim(Mi, Mj) = F( agg_1(g_1(f_ik, f_jk)), ..., agg_L(g_L(f_ik, f_jk)) )

where each ``g_l`` is a per-element function of the two multiplicities and
each aggregator folds the per-element values over the alphabet.  The key
insight (section 3.2) is a classification of the ``g_l`` functions:

* **unilateral** — computable from a scan of one multiset only
  (e.g. ``|Mi|``), so they can be accumulated for all multisets in a single
  pass over the dataset;
* **conjunctive** — computable from a scan of the intersection
  ``U(Mi ∩ Mj)`` (e.g. ``|Mi ∩ Mj|``), so they can be accumulated for all
  candidate pairs from an inverted index;
* **disjunctive** — require a scan of the union ``U(Mi ∪ Mj)``
  (e.g. ``max(f_ik, f_jk)``); neither V-SMART-Join nor any published
  distributed algorithm handles these in general, and the paper rewrites
  measures (Ruzicka) to avoid them.

:class:`NominalSimilarityMeasure` captures exactly the hooks the
V-SMART-Join framework needs:

* :meth:`uni_from_multiplicity` / :meth:`uni_merge` — streaming computation
  of the unilateral partial results ``Uni(Mi)`` (associative merge so that
  MapReduce combiners can pre-aggregate);
* :meth:`conj_from_pair` / :meth:`conj_merge` — streaming computation of the
  conjunctive partial results ``Conj(Mi, Mj)`` over shared elements;
* :meth:`combine` — the ``F()`` function producing the final similarity.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Tuple

from repro.core.exceptions import MeasureNotApplicableError
from repro.core.multiset import Multiset

Partials = Tuple[float, ...]


class PartialKind(Enum):
    """Classification of a partial-result function ``g_l`` (paper §3.2)."""

    UNILATERAL = "unilateral"
    CONJUNCTIVE = "conjunctive"
    DISJUNCTIVE = "disjunctive"


@dataclass(frozen=True)
class PartialDescriptor:
    """A human-readable description of one ``g_l`` / aggregator pair.

    These descriptors document how a measure decomposes into Eqn. 1 and are
    used by tests to check that no supported measure declares a disjunctive
    partial.
    """

    name: str
    kind: PartialKind
    aggregator: str = "sum"
    description: str = ""


class NominalSimilarityMeasure(ABC):
    """Base class for all Nominal Similarity Measures.

    Concrete measures define how the unilateral and conjunctive partial
    results are accumulated per element and how ``F()`` combines them.  The
    default merge operations are element-wise sums, which matches every
    measure discussed in the paper and keeps combiner semantics trivial.
    """

    #: Unique registry name of the measure (e.g. ``"ruzicka"``).
    name: str = "abstract"

    #: Whether the measure operates on the underlying set (multiplicities
    #: collapsed to one) rather than on raw multiplicities.
    uses_underlying_set: bool = False

    #: Whether the measure fundamentally needs a disjunctive partial.  Such
    #: measures can still be evaluated exactly in memory but are rejected by
    #: the MapReduce drivers.
    requires_disjunctive: bool = False

    #: Scalar kernel the conjunctive partial reduces to, if any (see
    #: :mod:`repro.similarity.kernels`): ``"sum_min"`` for sum-of-minima
    #: intersections, ``"sum_product"`` for dot products, ``"generic"``
    #: (the safe default) for everything else.  Declaring a kind lets the
    #: array kernels and the serving index accumulate ``Conj`` as a single
    #: float instead of per-element partial tuples; the declaration must
    #: match :meth:`conj_from_pair` exactly.
    conj_kernel: str = "generic"

    #: Scalar kernel the unilateral partial reduces to, if any: ``"sum"``
    #: (of effective multiplicities), ``"sum_squares"`` or ``"generic"``.
    uni_kernel: str = "generic"

    #: Closed form of :meth:`similarity_upper_bound` over the two scalar
    #: ``Uni`` values ``a = uni_i[0]`` and ``b = uni_j[0]``, if any:
    #: ``"min_over_union"`` is ``m / (a + b - m)`` with ``m = min(a, b)``,
    #: ``0.0`` when that union is not positive — Ruzicka's ``combine`` of its
    #: ``conj_upper_bound``.  Declaring it lets the candidate loops inline the
    #: bound; the declaration must compute exactly what
    #: ``combine(uni_i, uni_j, conj_upper_bound(uni_i, uni_j))`` computes, in
    #: the same IEEE operation order.  ``"generic"`` (the default): the loops
    #: call :meth:`similarity_upper_bound`.  A subclass that overrides one of
    #: those three methods does not inherit the declaration
    #: (:func:`~repro.similarity.kernels.bound_kernel_kind`).
    bound_kernel: str = "generic"

    # -- per-element hooks ---------------------------------------------------

    @abstractmethod
    def uni_from_multiplicity(self, multiplicity: float) -> Partials:
        """Per-element contribution of ``f_{i,k}`` to ``Uni(Mi)``."""

    @abstractmethod
    def conj_from_pair(self, multiplicity_i: float,
                       multiplicity_j: float) -> Partials:
        """Per-shared-element contribution of ``(f_ik, f_jk)`` to ``Conj``."""

    @abstractmethod
    def combine(self, uni_i: Partials, uni_j: Partials,
                conj: Partials) -> float:
        """The ``F()`` function of Eqn. 1: combine partials into a similarity."""

    @abstractmethod
    def partial_descriptors(self) -> list[PartialDescriptor]:
        """Describe the ``g_l`` functions this measure aggregates."""

    # -- merge operations (associative; combiner-safe) -----------------------

    def uni_zero(self) -> Partials:
        """The identity element for :meth:`uni_merge`."""
        return tuple(0.0 for _ in self.uni_from_multiplicity(1.0))

    def conj_zero(self) -> Partials:
        """The identity element for :meth:`conj_merge`."""
        return tuple(0.0 for _ in self.conj_from_pair(1.0, 1.0))

    def uni_merge(self, left: Partials, right: Partials) -> Partials:
        """Merge two partial ``Uni`` accumulations (element-wise sum)."""
        return tuple(a + b for a, b in zip(left, right, strict=True))

    def conj_merge(self, left: Partials, right: Partials) -> Partials:
        """Merge two partial ``Conj`` accumulations (element-wise sum)."""
        return tuple(a + b for a, b in zip(left, right, strict=True))

    # -- effective multiplicities ---------------------------------------------

    def effective_multiplicity(self, multiplicity: float) -> float:
        """Map a raw multiplicity to the value the measure operates on.

        Set-flavoured measures collapse every positive multiplicity to one,
        implementing the paper's note that sets are the special case of
        multisets with unit multiplicities.
        """
        if multiplicity <= 0:
            return 0.0
        return 1.0 if self.uses_underlying_set else float(multiplicity)

    # -- whole-entity convenience API ----------------------------------------

    def unilateral(self, entity: Multiset | Iterable[tuple[object, float]]) -> Partials:
        """Compute ``Uni(Mi)`` by scanning one entity.

        Accepts a :class:`Multiset` or any iterable of
        ``(element, multiplicity)`` pairs.
        """
        items = entity.items() if isinstance(entity, Multiset) else entity
        accumulator = self.uni_zero()
        for _element, multiplicity in items:
            effective = self.effective_multiplicity(multiplicity)
            if effective > 0:
                accumulator = self.uni_merge(
                    accumulator, self.uni_from_multiplicity(effective))
        return accumulator

    def conjunctive(self, entity_i: Multiset, entity_j: Multiset) -> Partials:
        """Compute ``Conj(Mi, Mj)`` by scanning the shared elements."""
        accumulator = self.conj_zero()
        for element in entity_i.common_elements(entity_j):
            effective_i = self.effective_multiplicity(entity_i.multiplicity(element))
            effective_j = self.effective_multiplicity(entity_j.multiplicity(element))
            accumulator = self.conj_merge(
                accumulator, self.conj_from_pair(effective_i, effective_j))
        return accumulator

    def similarity(self, entity_i: Multiset, entity_j: Multiset) -> float:
        """Exact similarity of two in-memory multisets (reference path)."""
        return self.combine(self.unilateral(entity_i),
                            self.unilateral(entity_j),
                            self.conjunctive(entity_i, entity_j))

    # -- upper bounds: the one pruning rule -----------------------------------
    #
    # Every filter in the library -- Similarity1's candidate check, the
    # serving index's scan, the size and positional filters of PPJoin and
    # the inverted-index join -- drops a pair only when ``combine`` of a
    # ``Conj`` bound is below ``t``.  That is the same float arithmetic the
    # final ``similarity >= t`` test runs, and ``combine`` never decreases
    # as ``Conj`` grows, so no filter rejects a pair the test would accept.

    def conj_upper_bound(self, uni_i: Partials,
                         uni_j: Partials) -> Partials | None:
        """An upper bound on ``Conj(Mi, Mj)`` given the two ``Uni`` tuples.

        The filters use this to bound the similarity of a candidate pair
        *before* (or without) scanning their shared elements: for the
        sum-of-minima family ``|Mi ∩ Mj| <= min(|Mi|, |Mj|)``, for the dot
        product the Cauchy–Schwarz bound applies, and so on.  Measures that
        admit no bound return ``None``, which disables upper-bound pruning
        (the safe default).  Overrides must guarantee
        ``combine(uni_i, uni_j, bound) >= combine(uni_i, uni_j, conj)`` for
        every reachable ``conj``.
        """
        return None

    def similarity_upper_bound(self, uni_i: Partials, uni_j: Partials) -> float:
        """An upper bound on ``Sim(Mi, Mj)`` from the ``Uni`` tuples alone.

        Falls back to ``1.0`` (no pruning — every supported measure is
        bounded by one) when :meth:`conj_upper_bound` returns ``None``.
        """
        bound = self.conj_upper_bound(uni_i, uni_j)
        if bound is None:
            return 1.0
        return self.combine(uni_i, uni_j, bound)

    def size_lower_bound(self, size: float, threshold: float) -> float:
        """Smallest overlap a partner needs to reach ``threshold`` with ``size``.

        The size bound of Arasu et al. [2], read only by the prefix cut
        (:func:`repro.vcl.prefix.prefix_length`), which steps it down by a
        fixed relative margin to absorb its rounding.  Measures that do not
        admit one return zero: the whole entity is its prefix.
        """
        return 0.0

    # -- misc -----------------------------------------------------------------

    def check_supported(self) -> None:
        """Raise if this measure cannot be handled by the MapReduce drivers."""
        if self.requires_disjunctive:
            raise MeasureNotApplicableError(
                f"measure {self.name!r} requires a disjunctive partial result "
                "and cannot be computed by the V-SMART-Join framework "
                "(paper section 3.2); use the exact in-memory evaluator instead")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def validate_threshold(threshold: float) -> float:
    """Validate a similarity threshold ``t`` and return it as a float.

    Thresholds must lie in ``(0, 1]``; the paper sweeps 0.1 – 0.9.
    """
    value = float(threshold)
    if not (0.0 < value <= 1.0) or not math.isfinite(value):
        raise ValueError(f"similarity threshold must be in (0, 1], got {threshold!r}")
    return value
