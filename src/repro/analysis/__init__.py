"""Experiment harness and reporting used by the figure benchmarks."""

from repro.analysis.experiments import (
    ALGORITHMS,
    STATUS_OK,
    STATUS_OUT_OF_DISK,
    STATUS_OUT_OF_MEMORY,
    STATUS_TIMEOUT,
    STATUS_UNSUPPORTED,
    AlgorithmOutcome,
    agreement_check,
    machine_sweep,
    run_algorithm,
    sharding_parameter_sweep,
    threshold_sweep,
)
from repro.analysis.reporting import (
    format_sweep_table,
    format_table,
    outcome_cell,
    relative_drop,
    speedup,
)

__all__ = [
    "ALGORITHMS",
    "AlgorithmOutcome",
    "STATUS_OK",
    "STATUS_OUT_OF_DISK",
    "STATUS_OUT_OF_MEMORY",
    "STATUS_TIMEOUT",
    "STATUS_UNSUPPORTED",
    "agreement_check",
    "format_sweep_table",
    "format_table",
    "machine_sweep",
    "outcome_cell",
    "relative_drop",
    "run_algorithm",
    "sharding_parameter_sweep",
    "speedup",
    "threshold_sweep",
]
