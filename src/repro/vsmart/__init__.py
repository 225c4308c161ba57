"""The V-SMART-Join framework: joining algorithms and the similarity phase."""

from repro.vsmart.driver import (
    JOINING_ALGORITHMS,
    LOOKUP,
    ONLINE_AGGREGATION,
    SHARDING,
    VSmartJoin,
)
from repro.vsmart.lookup import (
    build_lookup1_job,
    lookup_table_from_records,
)
from repro.vsmart.online_aggregation import build_online_aggregation_job
from repro.vsmart.preprocessing import build_stop_word_job
from repro.vsmart.sharding import (
    build_sharding1_job,
    build_sharding2_job,
    element_fingerprint,
)
from repro.vsmart.similarity_phase import (
    SimilarityPhaseConfig,
    build_similarity1_job,
    build_similarity2_job,
)

__all__ = [
    "JOINING_ALGORITHMS",
    "LOOKUP",
    "ONLINE_AGGREGATION",
    "SHARDING",
    "SimilarityPhaseConfig",
    "VSmartJoin",
    "build_lookup1_job",
    "build_online_aggregation_job",
    "build_sharding1_job",
    "build_sharding2_job",
    "build_similarity1_job",
    "build_similarity2_job",
    "build_stop_word_job",
    "element_fingerprint",
    "lookup_table_from_records",
]
