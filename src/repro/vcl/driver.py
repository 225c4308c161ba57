"""The VCL baseline pipeline, as the engine runs it.

:class:`VCLJoin` chains the frequency preprocessing, kernel and
deduplication jobs and returns the same ``(pairs, pipeline)`` shape as
:class:`repro.vsmart.driver.VSmartJoin`, so the engine runs both frameworks
side by side.  Like that driver it is the engine's internal: it reads the
:class:`~repro.engine.spec.JoinSpec` it is handed, runs on the
:class:`~repro.mapreduce.runner.LocalJobRunner` it is handed (cluster, cost
model, budgets and backend in one object that knows whether the backend is
its own to close) and owns nothing.  Unlike V-SMART-Join, VCL consumes whole
multisets as single records — the representation responsible for its memory
and replication bottlenecks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.multiset import Multiset
from repro.core.records import SimilarPair
from repro.mapreduce.dfs import Dataset
from repro.mapreduce.runner import LocalJobRunner, PipelineResult
from repro.vcl.grouping import SuperElementGrouping
from repro.vcl.kernel import build_dedup_job, build_frequency_job, build_kernel_job

if TYPE_CHECKING:  # engine.spec imports this module's constants
    from repro.engine.spec import JoinSpec

#: Canonical-order modes for the VCL alphabet: ``"frequency"`` (requires
#: loading the whole frequency map into every kernel mapper, the paper's
#: default) or ``"hash"`` (the fallback used on the realistic dataset).
FREQUENCY_ORDER = "frequency"
HASH_ORDER = "hash"


class VCLJoin:
    """Run the VCL baseline of ``spec`` on ``runner``.

    ``spec.vcl_super_element_groups`` enables grouping with the given number
    of super-elements; ``None`` disables it (one element per group, the
    configuration the VCL authors recommend).  Results do not depend on the
    runner's backend.
    """

    def __init__(self, spec: JoinSpec, runner: LocalJobRunner) -> None:
        self.spec = spec
        self.runner = runner

    def run(self, multisets: Sequence[Multiset]
            ) -> tuple[list[SimilarPair], PipelineResult]:
        """Execute the VCL pipeline: the sorted similar pairs and its stats."""
        spec = self.spec
        measure = spec.resolved_measure()
        dataset = Dataset("vcl_input", list(multisets))
        job_stats = []

        frequencies: dict | None = None
        use_frequency_order = spec.vcl_element_order == FREQUENCY_ORDER
        if use_frequency_order:
            frequency_result = self.runner.run(build_frequency_job(), dataset)
            job_stats.append(frequency_result.stats)
            frequencies = dict(frequency_result.output.records)

        grouping = (None if spec.vcl_super_element_groups is None
                    else SuperElementGrouping(spec.vcl_super_element_groups))
        kernel_job = build_kernel_job(measure, spec.threshold, frequencies,
                                      use_frequency_order=use_frequency_order,
                                      grouping=grouping)
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
                "threshold": spec.threshold,
                "element_order": spec.vcl_element_order,
            },
        )
        return pairs, pipeline
