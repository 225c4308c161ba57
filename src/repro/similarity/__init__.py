"""Nominal Similarity Measures and exact evaluation helpers."""

from repro.similarity.base import (
    NominalSimilarityMeasure,
    PartialDescriptor,
    PartialKind,
    validate_threshold,
)
from repro.similarity.exact import (
    all_pairs_exact,
    compute_similarity,
    pair_dictionary,
)
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
from repro.similarity.kernels import (
    conj_kernel_kind,
    interned_similarity,
    interned_unilateral,
    uni_kernel_kind,
)
from repro.similarity.partials import (
    fold_uni_multiplicities,
    uni_fold,
)
from repro.similarity.registry import (
    get_measure,
    list_measures,
    register_measure,
)

__all__ = [
    "DirectRuzickaSimilarity",
    "JaccardSimilarity",
    "MultisetCosineSimilarity",
    "MultisetDiceSimilarity",
    "NominalSimilarityMeasure",
    "OverlapSimilarity",
    "PartialDescriptor",
    "PartialKind",
    "RuzickaSimilarity",
    "SetCosineSimilarity",
    "SetDiceSimilarity",
    "SetOverlapSimilarity",
    "VectorCosineSimilarity",
    "all_pairs_exact",
    "compute_similarity",
    "conj_kernel_kind",
    "fold_uni_multiplicities",
    "get_measure",
    "interned_similarity",
    "interned_unilateral",
    "list_measures",
    "uni_kernel_kind",
    "pair_dictionary",
    "register_measure",
    "uni_fold",
    "validate_threshold",
]
