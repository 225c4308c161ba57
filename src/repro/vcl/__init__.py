"""The VCL baseline: a MapReduce adaptation of PPJoin+ (Vernica et al.)."""

from repro.vcl.driver import (
    FREQUENCY_ORDER,
    HASH_ORDER,
    VCLJoin,
)
from repro.vcl.grouping import SuperElementGrouping
from repro.vcl.kernel import (
    DeduplicationMapper,
    DeduplicationReducer,
    ElementFrequencyMapper,
    ElementFrequencyReducer,
    VCLKernelMapper,
    VCLKernelReducer,
    build_dedup_job,
    build_frequency_job,
    build_kernel_job,
)
from repro.vcl.prefix import (
    frequency_rank_function,
    hash_rank_function,
    ordered_elements,
    prefix_elements,
    prefix_length_classic,
)

__all__ = [
    "DeduplicationMapper",
    "DeduplicationReducer",
    "ElementFrequencyMapper",
    "ElementFrequencyReducer",
    "FREQUENCY_ORDER",
    "HASH_ORDER",
    "SuperElementGrouping",
    "VCLJoin",
    "VCLKernelMapper",
    "VCLKernelReducer",
    "build_dedup_job",
    "build_frequency_job",
    "build_kernel_job",
    "frequency_rank_function",
    "hash_rank_function",
    "ordered_elements",
    "prefix_elements",
    "prefix_length_classic",
]
