"""Community discovery post-processing: similarity graphs, clusters, proxies."""

from repro.communities.clustering import clusters_from_pairs
from repro.communities.graph import SimilarityGraph
from repro.communities.proxies import (
    discovered_proxy_groups,
    evaluate_proxy_discovery,
    filter_small_multisets,
)

__all__ = [
    "SimilarityGraph",
    "clusters_from_pairs",
    "discovered_proxy_groups",
    "evaluate_proxy_discovery",
    "filter_small_multisets",
]
