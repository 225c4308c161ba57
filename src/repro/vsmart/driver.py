"""The V-SMART-Join pipelines, as the engine runs them.

:class:`VSmartJoin` wires a joining algorithm (Online-Aggregation, Lookup or
Sharding) to the shared two-step similarity phase.  It is the engine's
internal: :meth:`SimilarityEngine.run <repro.engine.engine.SimilarityEngine.run>`
(one-call form :func:`repro.join`) validates the
:class:`~repro.engine.spec.JoinSpec`, normalises the input and hands the
driver the spec, the multisets and a
:class:`~repro.mapreduce.runner.LocalJobRunner` — the one object that is
the cluster, the cost model, the budgets and the execution backend.  The
driver owns nothing: it runs its jobs on that runner and returns the similar pairs with
the pipeline's per-job statistics (including the joining / similarity phase
split the paper reports separately in Fig. 6).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.exceptions import JobConfigurationError
from repro.core.interning import InterningContext, PairCodec
from repro.core.multiset import Multiset
from repro.core.records import InputColumns, SimilarPair
from repro.mapreduce.dfs import Dataset
from repro.mapreduce.job import JobSpec
from repro.mapreduce.runner import JobResult, LocalJobRunner, PipelineResult
from repro.similarity.base import NominalSimilarityMeasure
from repro.vsmart.lookup import (
    LookupJoinMapper,
    build_lookup1_job,
    lookup_table_from_records,
)
from repro.vsmart.online_aggregation import build_online_aggregation_job
from repro.vsmart.preprocessing import build_stop_word_job
from repro.vsmart.shapes import INPUT_TUPLE_BYTES, RecordShapes
from repro.vsmart.sharding import build_sharding1_job, build_sharding2_job
from repro.vsmart.similarity_phase import (
    Similarity1Reducer,
    SimilarityPhaseConfig,
    build_similarity1_job,
    build_similarity2_job,
)

if TYPE_CHECKING:  # engine.spec imports this module's constants
    from repro.engine.spec import JoinSpec

#: Names of the three joining algorithms.
ONLINE_AGGREGATION = "online_aggregation"
LOOKUP = "lookup"
SHARDING = "sharding"

JOINING_ALGORITHMS = (ONLINE_AGGREGATION, LOOKUP, SHARDING)


class VSmartJoin:
    """Run one V-SMART-Join pipeline of ``spec`` on ``runner``.

    ``algorithm`` names the joining algorithm when the spec itself leaves
    it to the planner (``"auto"``).  Results, counters and simulated run
    times do not depend on the runner's backend; only wall-clock time does.

    The jobs see the multisets only interned: elements and multiset
    identifiers mapped to dense integers (elements in ascending
    document-frequency order), candidate pair keys packing both ids into a
    single int, and the final pairs mapped back to the original
    identifiers.  The :class:`~repro.core.interning.InterningContext` is
    the one the engine's plan profiled when the engine planned this run
    itself (``algorithm="auto"``), and so are the interned tuples;
    otherwise the run makes its own interning pass.  The multisets' tuples
    are written straight into :class:`~repro.core.records.InputColumns`,
    and from there to Similarity1 the jobs hand each other columns, not
    tuples.
    """

    def __init__(self, spec: JoinSpec, runner: LocalJobRunner,
                 algorithm: str | None = None) -> None:
        self.spec = spec
        self.runner = runner
        self.algorithm = algorithm or spec.algorithm
        if self.algorithm not in JOINING_ALGORITHMS:
            raise JobConfigurationError(
                f"{self.algorithm!r} is not a V-SMART-Join joining algorithm; "
                f"expected one of {JOINING_ALGORITHMS}")

    def run(self, multisets: Sequence[Multiset],
            interning: InterningContext | None = None,
            columns: InputColumns | None = None,
            ) -> tuple[list[SimilarPair], PipelineResult]:
        """Execute the full pipeline: the sorted similar pairs and its stats.

        ``interning`` must be the context
        :meth:`InterningContext.from_multisets
        <repro.core.interning.InterningContext.from_multisets>` builds from
        these very ``multisets``, and ``columns`` what its
        :meth:`~repro.core.interning.InterningContext.intern_multisets`
        makes of them (the jobs only read it); without them the run builds
        them.
        """
        spec = self.spec
        measure = spec.resolved_measure()
        phase_config = SimilarityPhaseConfig(chunk_size=spec.chunk_size,
                                             use_combiners=spec.use_combiners)

        if interning is None:
            interning = InterningContext.from_multisets(multisets)
        records = (interning.intern_multisets(multisets) if columns is None
                   else columns)
        dataset = Dataset("interned_input", records,
                          [INPUT_TUPLE_BYTES] * len(records))

        job_stats = []
        joining_names: list[str] = []

        if spec.stop_word_frequency is not None:
            result = self.runner.run(
                build_stop_word_job(spec.stop_word_frequency), dataset)
            job_stats.append(result.stats)
            joining_names.append(result.stats.job_name)
            dataset = result.output

        sim1_result, joining_results = self._run_joining_and_similarity1(
            measure, phase_config, dataset, interning.codec)
        for result in joining_results:
            job_stats.append(result.stats)
            joining_names.append(result.stats.job_name)
        job_stats.append(sim1_result.stats)

        sim2_job = build_similarity2_job(
            measure, spec.threshold, phase_config,
            prune_chunks=spec.prune_candidates,
            pair_codec=interning.codec)
        sim2_result = self.runner.run(sim2_job, sim1_result.output)
        job_stats.append(sim2_result.stats)

        pairs = interning.restore_pairs(sim2_result.output.records)
        pairs.sort()
        joining_seconds = sum(stats.simulated_seconds for stats in job_stats
                              if stats.job_name in joining_names)
        similarity_seconds = sum(stats.simulated_seconds for stats in job_stats
                                 if stats.job_name not in joining_names)
        pipeline = PipelineResult(
            name=f"vsmart-{self.algorithm}",
            output=sim2_result.output,
            job_stats=job_stats,
            artifacts={
                "joining_seconds": joining_seconds,
                "similarity_seconds": similarity_seconds,
                "algorithm": self.algorithm,
                "measure": measure.name,
                "threshold": spec.threshold,
            },
        )
        return pairs, pipeline

    # -- joining algorithms ----------------------------------------------------

    def _run_joining_and_similarity1(
            self, measure: NominalSimilarityMeasure,
            phase_config: SimilarityPhaseConfig, dataset: Dataset,
            pair_codec: PairCodec) -> tuple[JobResult, list[JobResult]]:
        spec = self.spec
        # Without a threshold Similarity1 prunes nothing; it is always told
        # the measure, whose arity is what its records' sizes follow from.
        prune_threshold = spec.threshold if spec.prune_candidates else None
        if self.algorithm == ONLINE_AGGREGATION:
            joining = self.runner.run(
                build_online_aggregation_job(measure, spec.use_combiners),
                dataset)
            sim1 = self.runner.run(
                build_similarity1_job(phase_config, measure=measure,
                                      threshold=prune_threshold,
                                      pair_codec=pair_codec),
                joining.output)
            return sim1, [joining]
        if self.algorithm == LOOKUP:
            lookup1 = self.runner.run(
                build_lookup1_job(measure, spec.use_combiners), dataset)
            table = lookup_table_from_records(lookup1.output.records)
            fused = JobSpec(name="lookup2+similarity1",
                            mapper=LookupJoinMapper(measure),
                            reducer=Similarity1Reducer(
                                phase_config, measure=measure,
                                threshold=prune_threshold,
                                pair_codec=pair_codec),
                            side_data=table,
                            side_data_bytes=RecordShapes(measure).table(
                                len(table)))
            sim1 = self.runner.run(fused, dataset)
            return sim1, [lookup1]
        # Sharding
        sharding1 = self.runner.run(
            build_sharding1_job(measure, spec.sharding_threshold,
                                spec.use_combiners), dataset)
        sharded_table = lookup_table_from_records(sharding1.output.records)
        sharding2 = self.runner.run(
            build_sharding2_job(measure, sharded_table), dataset)
        sim1 = self.runner.run(
            build_similarity1_job(phase_config, measure=measure,
                                  threshold=prune_threshold,
                                  pair_codec=pair_codec),
            sharding2.output)
        return sim1, [sharding1, sharding2]
