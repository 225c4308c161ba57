"""Nominal Similarity Measures and exact evaluation helpers."""

from repro.similarity.base import (
    NominalSimilarityMeasure,
    PartialDescriptor,
    PartialKind,
    validate_threshold,
)
from repro.similarity.exact import (
    all_pairs_exact,
    compute_partials,
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
    WeightedJaccardSimilarity,
)
from repro.similarity.kernels import (
    conj_kernel_kind,
    interned_conjunctive,
    interned_similarity,
    interned_unilateral,
    uni_kernel_kind,
)
from repro.similarity.partials import (
    fold_uni_multiplicities,
    uni_fold,
)
from repro.similarity.registry import (
    available_measures,
    get_measure,
    iter_measures,
    list_measures,
    register_measure,
    supported_measures,
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
    "WeightedJaccardSimilarity",
    "all_pairs_exact",
    "available_measures",
    "compute_partials",
    "compute_similarity",
    "conj_kernel_kind",
    "fold_uni_multiplicities",
    "get_measure",
    "interned_conjunctive",
    "interned_similarity",
    "interned_unilateral",
    "iter_measures",
    "list_measures",
    "uni_kernel_kind",
    "pair_dictionary",
    "register_measure",
    "supported_measures",
    "uni_fold",
    "validate_threshold",
]
