"""Synthetic workload generators and dataset statistics."""

from repro.datasets.documents import (
    DocumentCorpusConfig,
    generate_document_corpus,
)
from repro.datasets.ip_cookie import (
    IPCookieConfig,
    generate_ip_cookie_dataset,
    generate_preset,
    input_tuples,
    realistic_dataset_config,
    small_dataset_config,
)
from repro.datasets.stats import (
    DistributionSummary,
    elements_per_multiset,
    log_binned_histogram,
    multisets_per_element,
    skew_ratio,
    summarise_distribution,
)
from repro.datasets.workload import (
    MutationStreamConfig,
    QueryWorkloadConfig,
    RequestWorkloadConfig,
    generate_mutation_stream,
    generate_open_loop_arrivals,
    generate_query_workload,
    generate_request_workload,
)
from repro.datasets.zipf import BoundedZipf, clipped_zipf_sizes

__all__ = [
    "BoundedZipf",
    "DistributionSummary",
    "DocumentCorpusConfig",
    "IPCookieConfig",
    "MutationStreamConfig",
    "QueryWorkloadConfig",
    "RequestWorkloadConfig",
    "clipped_zipf_sizes",
    "elements_per_multiset",
    "generate_document_corpus",
    "generate_ip_cookie_dataset",
    "generate_mutation_stream",
    "generate_open_loop_arrivals",
    "generate_preset",
    "generate_query_workload",
    "generate_request_workload",
    "input_tuples",
    "log_binned_histogram",
    "multisets_per_element",
    "realistic_dataset_config",
    "skew_ratio",
    "small_dataset_config",
    "summarise_distribution",
]
