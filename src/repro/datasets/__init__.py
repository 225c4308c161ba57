"""Synthetic workload generators, dataset statistics and TSV loaders."""

from repro.datasets.documents import (
    DocumentCorpusConfig,
    generate_document_corpus,
    shingle_document,
)
from repro.datasets.ip_cookie import (
    IPCookieConfig,
    dataset_label,
    generate_ip_cookie_dataset,
    generate_preset,
    input_tuples,
    realistic_dataset_config,
    scaled_memory_budget,
    small_dataset_config,
)
from repro.datasets.loaders import (
    read_input_tuples,
    read_multisets,
    write_input_tuples,
    write_multisets,
    write_similar_pairs,
)
from repro.datasets.stats import (
    DistributionSummary,
    elements_per_multiset,
    frequency_histogram,
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
    workload_statistics,
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
    "dataset_label",
    "elements_per_multiset",
    "frequency_histogram",
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
    "read_input_tuples",
    "read_multisets",
    "realistic_dataset_config",
    "scaled_memory_budget",
    "shingle_document",
    "skew_ratio",
    "small_dataset_config",
    "summarise_distribution",
    "workload_statistics",
    "write_input_tuples",
    "write_multisets",
    "write_similar_pairs",
]
