"""Registry of Nominal Similarity Measures, addressable by name.

The experiment harness and the example scripts refer to measures by short
names (``"ruzicka"``, ``"jaccard"``, ...).  The registry keeps a single
shared instance per measure since measures are stateless.
"""

from __future__ import annotations

from repro.core.exceptions import UnknownMeasureError
from repro.similarity.base import NominalSimilarityMeasure
from repro.similarity.kernels import BOUND_KERNELS, CONJ_KERNELS, UNI_KERNELS
from repro.similarity.measures import (
    DirectRuzickaSimilarity,
    JaccardSimilarity,
    MultisetCosineSimilarity,
    MultisetDiceSimilarity,
    OverlapSimilarity,
    RuzickaSimilarity,
    SetCosineSimilarity,
    SetDiceSimilarity,
    SetOverlapSimilarity,
    VectorCosineSimilarity,
)

_MEASURE_CLASSES: tuple[type[NominalSimilarityMeasure], ...] = (
    RuzickaSimilarity,
    JaccardSimilarity,
    MultisetDiceSimilarity,
    SetDiceSimilarity,
    MultisetCosineSimilarity,
    SetCosineSimilarity,
    VectorCosineSimilarity,
    OverlapSimilarity,
    SetOverlapSimilarity,
    DirectRuzickaSimilarity,
)

_REGISTRY: dict[str, NominalSimilarityMeasure] = {
    cls.name: cls() for cls in _MEASURE_CLASSES
}


def get_measure(name: str | NominalSimilarityMeasure) -> NominalSimilarityMeasure:
    """Look up a measure by name; measure instances pass through unchanged.

    Lookup is case-insensitive (``"Ruzicka"`` and ``"RUZICKA"`` both resolve
    to the measure registered as ``"ruzicka"``); an exact match is preferred
    so user-registered measures with case-sensitive names keep working.
    """
    if isinstance(name, NominalSimilarityMeasure):
        return name
    try:
        measure = _REGISTRY.get(name)
    except TypeError:  # an unhashable name names no measure
        measure = None
    if measure is None and isinstance(name, str):
        measure = _REGISTRY.get(name.lower())
    if measure is None:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownMeasureError(
            f"unknown similarity measure {name!r}; known measures: {known}")
    return measure


def list_measures(supported_only: bool = False) -> list[str]:
    """The measure names a :class:`~repro.engine.spec.JoinSpec` accepts.

    The discovery companion of
    :func:`~repro.engine.spec.available_algorithms`: with
    ``supported_only=True`` only measures the distributed MapReduce
    pipelines can compute are returned (measures requiring disjunctive
    partials are excluded, matching the paper's scope); the default lists
    every registered measure (``algorithm="exact"`` accepts them all).
    Names are sorted.
    """
    return sorted(name for name, measure in _REGISTRY.items()
                  if not (supported_only and measure.requires_disjunctive))


def register_measure(measure: NominalSimilarityMeasure,
                     replace: bool = False) -> None:
    """Register a user-defined measure instance under ``measure.name``.

    The measure's declared kernel kinds are validated here: a typo'd
    ``conj_kernel`` would silently fall back nowhere (the kernels dispatch
    on exact strings), so unknown declarations are rejected at registration
    instead of producing wrong fast-path results at query time.
    """
    if not replace and measure.name in _REGISTRY:
        raise UnknownMeasureError(
            f"measure name {measure.name!r} is already registered; "
            "pass replace=True to overwrite")
    if getattr(measure, "conj_kernel", "generic") not in CONJ_KERNELS:
        raise UnknownMeasureError(
            f"measure {measure.name!r} declares unknown conj_kernel "
            f"{measure.conj_kernel!r}; expected one of {CONJ_KERNELS}")
    if getattr(measure, "uni_kernel", "generic") not in UNI_KERNELS:
        raise UnknownMeasureError(
            f"measure {measure.name!r} declares unknown uni_kernel "
            f"{measure.uni_kernel!r}; expected one of {UNI_KERNELS}")
    if getattr(measure, "bound_kernel", "generic") not in BOUND_KERNELS:
        raise UnknownMeasureError(
            f"measure {measure.name!r} declares unknown bound_kernel "
            f"{measure.bound_kernel!r}; expected one of {BOUND_KERNELS}")
    _REGISTRY[measure.name] = measure
