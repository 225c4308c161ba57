"""High-level driver for the VCL baseline.

:class:`VCLJoin` chains the frequency preprocessing, kernel and
deduplication jobs and returns the same result shape as
:class:`repro.vsmart.driver.VSmartJoin`, so the benchmarks can run both
frameworks side by side.  Unlike V-SMART-Join, VCL consumes whole multisets
as single records — the representation responsible for its memory and
replication bottlenecks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.exceptions import JobConfigurationError
from repro.core.multiset import Multiset
from repro.core.records import SimilarPair
from repro.mapreduce.backends import ExecutionBackend
from repro.mapreduce.cluster import Cluster, laptop_cluster
from repro.mapreduce.costmodel import DEFAULT_COST_PARAMETERS, CostParameters
from repro.mapreduce.dfs import Dataset
from repro.mapreduce.runner import LocalJobRunner, PipelineResult
from repro.similarity.base import NominalSimilarityMeasure, validate_threshold
from repro.similarity.registry import get_measure
from repro.vcl.grouping import SuperElementGrouping
from repro.vcl.kernel import build_dedup_job, build_frequency_job, build_kernel_job

#: Canonical-order modes for the VCL alphabet.
FREQUENCY_ORDER = "frequency"
HASH_ORDER = "hash"


@dataclass(frozen=True)
class VCLConfig:
    """Configuration of a VCL run.

    ``element_order`` selects how the alphabet is canonically ordered:
    ``"frequency"`` (requires loading the whole frequency map into every
    kernel mapper, the paper's default) or ``"hash"`` (the fallback used on
    the realistic dataset).  ``super_element_groups`` enables grouping with
    the given number of super-elements; ``None`` disables grouping (one
    element per group, the configuration the VCL authors recommend).
    """

    measure: str | NominalSimilarityMeasure = "ruzicka"
    threshold: float = 0.5
    element_order: str = FREQUENCY_ORDER
    super_element_groups: int | None = None

    def __post_init__(self) -> None:
        validate_threshold(self.threshold)
        if self.element_order not in (FREQUENCY_ORDER, HASH_ORDER):
            raise JobConfigurationError(
                f"element_order must be {FREQUENCY_ORDER!r} or {HASH_ORDER!r}, "
                f"got {self.element_order!r}")
        if self.super_element_groups is not None and self.super_element_groups < 1:
            raise JobConfigurationError("super_element_groups must be >= 1")

    def resolved_measure(self) -> NominalSimilarityMeasure:
        """Resolve and validate the configured measure."""
        measure = get_measure(self.measure)
        measure.check_supported()
        return measure

    def grouping(self) -> SuperElementGrouping | None:
        """The super-element grouping, or ``None`` when disabled."""
        if self.super_element_groups is None:
            return None
        return SuperElementGrouping(self.super_element_groups)


@dataclass
class VCLJoinResult:
    """The outcome of a VCL run."""

    pairs: list[SimilarPair]
    pipeline: PipelineResult
    config: VCLConfig

    @property
    def simulated_seconds(self) -> float:
        """Total simulated run time of the VCL pipeline."""
        return self.pipeline.simulated_seconds

    def counters(self) -> dict[str, int]:
        """All job counters summed over the pipeline."""
        return self.pipeline.counters()


class VCLJoin:
    """Run the VCL baseline on a simulated cluster.

    ``backend`` selects the execution backend, exactly as for
    :class:`~repro.vsmart.driver.VSmartJoin`; results are backend-invariant.
    """

    def __init__(self, config: VCLConfig | None = None,
                 cluster: Cluster | None = None,
                 cost_parameters: CostParameters = DEFAULT_COST_PARAMETERS,
                 enforce_budgets: bool = True,
                 backend: str | ExecutionBackend = "serial") -> None:
        self.config = config or VCLConfig()
        self.cluster = cluster or laptop_cluster()
        self.runner = LocalJobRunner(self.cluster, cost_parameters,
                                     enforce_budgets=enforce_budgets,
                                     backend=backend)

    def close(self) -> None:
        """Release the execution backend when the driver created it."""
        self.runner.close()

    def __enter__(self) -> "VCLJoin":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def run(self, multisets: Iterable[Multiset] | Dataset) -> VCLJoinResult:
        """Execute the VCL pipeline and return the similar pairs."""
        measure = self.config.resolved_measure()
        dataset = multisets if isinstance(multisets, Dataset) else Dataset(
            "vcl_input", list(multisets))
        job_stats = []

        frequencies: dict | None = None
        use_frequency_order = self.config.element_order == FREQUENCY_ORDER
        if use_frequency_order:
            frequency_result = self.runner.run(build_frequency_job(), dataset)
            job_stats.append(frequency_result.stats)
            frequencies = dict(frequency_result.output.records)

        kernel_job = build_kernel_job(measure, self.config.threshold,
                                      frequencies,
                                      use_frequency_order=use_frequency_order,
                                      grouping=self.config.grouping())
        kernel_result = self.runner.run(kernel_job, dataset)
        job_stats.append(kernel_result.stats)

        dedup_result = self.runner.run(build_dedup_job(), kernel_result.output)
        job_stats.append(dedup_result.stats)

        pairs = sorted(dedup_result.output.records)
        pipeline = PipelineResult(
            name="vcl",
            output=dedup_result.output,
            job_stats=job_stats,
            artifacts={
                "measure": measure.name,
                "threshold": self.config.threshold,
                "element_order": self.config.element_order,
            },
        )
        return VCLJoinResult(pairs=pairs, pipeline=pipeline, config=self.config)

