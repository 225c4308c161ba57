"""The V-SMART-Join framework: joining algorithms and the similarity phase."""

from repro.vsmart.driver import (
    JOINING_ALGORITHMS,
    LOOKUP,
    ONLINE_AGGREGATION,
    SHARDING,
    VSmartJoin,
)
from repro.vsmart.lookup import (
    Lookup1Mapper,
    Lookup1Reducer,
    LookupJoinMapper,
    build_lookup1_job,
    lookup_table_from_records,
)
from repro.vsmart.online_aggregation import (
    OnlineAggregationCombiner,
    OnlineAggregationMapper,
    OnlineAggregationReducer,
    build_online_aggregation_job,
)
from repro.vsmart.preprocessing import (
    StopWordMapper,
    StopWordReducer,
    build_stop_word_job,
    remove_small_multisets,
)
from repro.vsmart.sharding import (
    Sharding1Mapper,
    Sharding1Reducer,
    Sharding2Mapper,
    Sharding2Reducer,
    build_sharding1_job,
    build_sharding2_job,
    element_fingerprint,
)
from repro.vsmart.similarity_phase import (
    ChunkPairRecord,
    ConjunctiveCombiner,
    Similarity1Mapper,
    Similarity1Reducer,
    Similarity2Mapper,
    Similarity2Reducer,
    SimilarityPhaseConfig,
    build_similarity1_job,
    build_similarity2_job,
)

__all__ = [
    "ChunkPairRecord",
    "ConjunctiveCombiner",
    "JOINING_ALGORITHMS",
    "LOOKUP",
    "Lookup1Mapper",
    "Lookup1Reducer",
    "LookupJoinMapper",
    "ONLINE_AGGREGATION",
    "OnlineAggregationCombiner",
    "OnlineAggregationMapper",
    "OnlineAggregationReducer",
    "SHARDING",
    "Sharding1Mapper",
    "Sharding1Reducer",
    "Sharding2Mapper",
    "Sharding2Reducer",
    "Similarity1Mapper",
    "Similarity1Reducer",
    "Similarity2Mapper",
    "Similarity2Reducer",
    "SimilarityPhaseConfig",
    "StopWordMapper",
    "StopWordReducer",
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
    "remove_small_multisets",
]
