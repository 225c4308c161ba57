"""Community discovery post-processing: similarity graphs, clusters, proxies."""

from repro.communities.clustering import (
    UnionFind,
    clusters_from_pairs,
    connected_components,
    dense_clusters,
)
from repro.communities.graph import SimilarityGraph
from repro.communities.proxies import (
    discovered_proxy_groups,
    evaluate_proxy_discovery,
    filter_small_multisets,
    ground_truth_pairs,
)

__all__ = [
    "SimilarityGraph",
    "UnionFind",
    "clusters_from_pairs",
    "connected_components",
    "dense_clusters",
    "discovered_proxy_groups",
    "evaluate_proxy_discovery",
    "filter_small_multisets",
    "ground_truth_pairs",
]
