"""A small, deterministic MapReduce simulator.

This package is the substrate the paper's algorithms run on.  It executes
mappers, dedicated combiners and reducers exactly (results are real), while
per-machine loads, memory/disk budgets and a calibrated cost model provide a
deterministic *simulated* run time used by the figure benchmarks.
"""

from repro.mapreduce.backends import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    DiskShuffleBackend,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    available_backends,
    get_backend,
)
from repro.mapreduce.cluster import (
    GIGABYTE,
    GOOGLE_MAPREDUCE,
    HADOOP,
    MEGABYTE,
    Cluster,
    ClusterProfile,
    laptop_cluster,
    paper_cluster,
)
from repro.mapreduce.costmodel import (
    DEFAULT_COST_PARAMETERS,
    CostBreakdown,
    CostModel,
    CostParameters,
)
from repro.mapreduce.counters import Counters
from repro.mapreduce.dfs import Dataset
from repro.mapreduce.job import (
    Combiner,
    IdentityMapper,
    JobSpec,
    Mapper,
    Reducer,
    SummingCombiner,
    TaskContext,
)
from repro.mapreduce.partitioner import hash_partitioner, stable_hash
from repro.mapreduce.runner import JobResult, LocalJobRunner, PipelineResult
from repro.mapreduce.shuffle import ExternalGrouper
from repro.mapreduce.types import (
    JobStats,
    KeyValue,
    PhaseStats,
    estimate_record_bytes,
)

__all__ = [
    "Cluster",
    "ClusterProfile",
    "Combiner",
    "CostBreakdown",
    "CostModel",
    "CostParameters",
    "Counters",
    "DEFAULT_COST_PARAMETERS",
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "Dataset",
    "DiskShuffleBackend",
    "ExecutionBackend",
    "ExternalGrouper",
    "GIGABYTE",
    "GOOGLE_MAPREDUCE",
    "HADOOP",
    "IdentityMapper",
    "JobResult",
    "JobSpec",
    "JobStats",
    "KeyValue",
    "LocalJobRunner",
    "MEGABYTE",
    "Mapper",
    "PhaseStats",
    "PipelineResult",
    "ProcessBackend",
    "Reducer",
    "SerialBackend",
    "SummingCombiner",
    "TaskContext",
    "available_backends",
    "estimate_record_bytes",
    "get_backend",
    "hash_partitioner",
    "laptop_cluster",
    "paper_cluster",
    "stable_hash",
]
