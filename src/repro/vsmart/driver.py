"""High-level driver for the V-SMART-Join framework.

:class:`VSmartJoin` wires a joining algorithm (Online-Aggregation, Lookup or
Sharding) to the shared two-step similarity phase and runs the resulting
pipeline on a simulated cluster.  The result carries the similar pairs, the
per-job statistics (including simulated run times) and the joining /
similarity phase split the paper reports separately in Fig. 6.

The one-call form is :func:`repro.join` (``join(multisets, algorithm=...,
threshold=...).pairs``), which plans and runs through this driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.exceptions import JobConfigurationError
from repro.core.interning import InterningContext, PairCodec
from repro.core.multiset import Multiset
from repro.core.records import (
    InputTuple,
    SimilarPair,
    explode_multisets,
    resolve_record_type,
)
from repro.mapreduce.backends import ExecutionBackend
from repro.mapreduce.cluster import Cluster, laptop_cluster
from repro.mapreduce.costmodel import DEFAULT_COST_PARAMETERS, CostParameters
from repro.mapreduce.dfs import Dataset
from repro.mapreduce.job import JobSpec
from repro.mapreduce.runner import JobResult, LocalJobRunner, PipelineResult
from repro.similarity.base import NominalSimilarityMeasure, validate_threshold
from repro.similarity.registry import get_measure
from repro.vsmart.lookup import (
    LookupJoinMapper,
    build_lookup1_job,
    lookup_table_from_records,
)
from repro.vsmart.online_aggregation import build_online_aggregation_job
from repro.vsmart.preprocessing import build_stop_word_job
from repro.vsmart.sharding import build_sharding1_job, build_sharding2_job
from repro.vsmart.similarity_phase import (
    Similarity1Reducer,
    SimilarityPhaseConfig,
    build_similarity1_job,
    build_similarity2_job,
)

#: Names of the three joining algorithms.
ONLINE_AGGREGATION = "online_aggregation"
LOOKUP = "lookup"
SHARDING = "sharding"

JOINING_ALGORITHMS = (ONLINE_AGGREGATION, LOOKUP, SHARDING)


@dataclass(frozen=True)
class VSmartJoinConfig:
    """Configuration of a V-SMART-Join run.

    Parameters
    ----------
    algorithm:
        One of ``"online_aggregation"``, ``"lookup"`` or ``"sharding"``.
    measure:
        Similarity measure name (see :mod:`repro.similarity.registry`) or a
        measure instance.  Must not require disjunctive partials.
    threshold:
        Similarity threshold ``t`` in ``(0, 1]``.
    sharding_threshold:
        The Sharding parameter ``C`` — multisets with more than ``C``
        distinct elements are handled through the lookup table.
    stop_word_frequency:
        Optional ``q``: when set, a preprocessing job discards elements
        shared by more than ``q`` multisets before the joining phase.
    chunk_size:
        Optional chunked-Similarity1 threshold ``T``-chunking: posting lists
        longer than this many entries are dissected into chunk pairs instead
        of being expanded on a single reducer.
    use_combiners:
        Whether dedicated combiners run (the paper's default is yes; the
        ablation benchmark flips this off).
    prune_candidates:
        Apply exact upper-bound candidate pruning in the Similarity1
        reducer (and in chunk expansion): pairs whose similarity upper
        bound — computed from the two ``Uni`` tuples — cannot reach the
        threshold are never emitted.  Unlike stop words this never changes
        the output; ``False`` restores the unpruned candidate stream.
    """

    algorithm: str = ONLINE_AGGREGATION
    measure: str | NominalSimilarityMeasure = "ruzicka"
    threshold: float = 0.5
    sharding_threshold: int = 1024
    stop_word_frequency: int | None = None
    chunk_size: int | None = None
    use_combiners: bool = True
    prune_candidates: bool = True

    def __post_init__(self) -> None:
        if self.algorithm not in JOINING_ALGORITHMS:
            raise JobConfigurationError(
                f"unknown joining algorithm {self.algorithm!r}; "
                f"expected one of {JOINING_ALGORITHMS}")
        validate_threshold(self.threshold)
        if self.sharding_threshold < 1:
            raise JobConfigurationError("sharding_threshold (C) must be >= 1")

    def resolved_measure(self) -> NominalSimilarityMeasure:
        """Resolve and validate the configured measure."""
        measure = get_measure(self.measure)
        measure.check_supported()
        return measure

    def similarity_phase_config(self) -> SimilarityPhaseConfig:
        """The similarity-phase tunables derived from this configuration."""
        return SimilarityPhaseConfig(chunk_size=self.chunk_size,
                                     use_combiners=self.use_combiners)


@dataclass
class VSmartJoinResult:
    """The outcome of a V-SMART-Join run."""

    pairs: list[SimilarPair]
    pipeline: PipelineResult
    config: VSmartJoinConfig

    @property
    def simulated_seconds(self) -> float:
        """Total simulated run time of the whole pipeline."""
        return self.pipeline.simulated_seconds

    @property
    def joining_seconds(self) -> float:
        """Simulated run time of the joining phase only (Fig. 6 split)."""
        return self.pipeline.artifacts.get("joining_seconds", 0.0)

    @property
    def similarity_seconds(self) -> float:
        """Simulated run time of the shared similarity phase only."""
        return self.pipeline.artifacts.get("similarity_seconds", 0.0)

    def counters(self) -> dict[str, int]:
        """All job counters summed over the pipeline."""
        return self.pipeline.counters()


class VSmartJoin:
    """Run the V-SMART-Join pipeline on a simulated cluster.

    ``backend`` selects the execution backend every job of the pipeline runs
    on (``"serial"``, ``"process"``, ``"disk"`` or an
    :class:`~repro.mapreduce.backends.ExecutionBackend` instance).  Results,
    counters and simulated run times are identical across backends; only
    real wall-clock time changes.  Call :meth:`close` (or use the driver as
    a context manager) to release pooled workers.

    Every run starts with the interning pass: elements and multiset
    identifiers are mapped to dense integers (elements in ascending
    document-frequency order), candidate pair keys pack both ids into a
    single int, and the final pairs are mapped back to the original
    identifiers.  That interned form is the only one the jobs ever see.
    """

    def __init__(self, config: VSmartJoinConfig | None = None,
                 cluster: Cluster | None = None,
                 cost_parameters: CostParameters = DEFAULT_COST_PARAMETERS,
                 enforce_budgets: bool = True,
                 backend: str | ExecutionBackend = "serial") -> None:
        self.config = config or VSmartJoinConfig()
        self.cluster = cluster or laptop_cluster()
        self.runner = LocalJobRunner(self.cluster, cost_parameters,
                                     enforce_budgets=enforce_budgets,
                                     backend=backend)

    def close(self) -> None:
        """Release the execution backend when the driver created it."""
        self.runner.close()

    def __enter__(self) -> "VSmartJoin":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- public API -----------------------------------------------------------

    def run(self, data: Iterable[Multiset] | Dataset | Sequence[InputTuple]) -> VSmartJoinResult:
        """Execute the full pipeline and return the similar pairs."""
        measure = self.config.resolved_measure()
        dataset = normalise_input(data)

        records = list(dataset.records)
        interning = InterningContext.from_input_tuples(records)
        dataset = Dataset("interned_input", interning.intern_records(records))

        job_stats = []
        joining_names: list[str] = []

        if self.config.stop_word_frequency is not None:
            result = self.runner.run(
                build_stop_word_job(self.config.stop_word_frequency), dataset)
            job_stats.append(result.stats)
            joining_names.append(result.stats.job_name)
            dataset = result.output

        sim1_result, joining_results = self._run_joining_and_similarity1(
            measure, dataset, interning.codec)
        for result in joining_results:
            job_stats.append(result.stats)
            joining_names.append(result.stats.job_name)
        job_stats.append(sim1_result.stats)

        sim2_job = build_similarity2_job(
            measure, self.config.threshold,
            self.config.similarity_phase_config(),
            prune_chunks=self.config.prune_candidates,
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
            name=f"vsmart-{self.config.algorithm}",
            output=sim2_result.output,
            job_stats=job_stats,
            artifacts={
                "joining_seconds": joining_seconds,
                "similarity_seconds": similarity_seconds,
                "algorithm": self.config.algorithm,
                "measure": measure.name,
                "threshold": self.config.threshold,
            },
        )
        return VSmartJoinResult(pairs=pairs, pipeline=pipeline, config=self.config)

    # -- joining algorithms ----------------------------------------------------

    def _run_joining_and_similarity1(
            self, measure: NominalSimilarityMeasure, dataset: Dataset,
            pair_codec: PairCodec) -> tuple[JobResult, list[JobResult]]:
        algorithm = self.config.algorithm
        phase_config = self.config.similarity_phase_config()
        prune_measure = measure if self.config.prune_candidates else None
        prune_threshold = (self.config.threshold
                           if self.config.prune_candidates else None)
        if algorithm == ONLINE_AGGREGATION:
            joining = self.runner.run(
                build_online_aggregation_job(measure, self.config.use_combiners),
                dataset)
            sim1 = self.runner.run(
                build_similarity1_job(phase_config, measure=prune_measure,
                                      threshold=prune_threshold,
                                      pair_codec=pair_codec),
                joining.output)
            return sim1, [joining]
        if algorithm == LOOKUP:
            lookup1 = self.runner.run(
                build_lookup1_job(measure, self.config.use_combiners), dataset)
            table = lookup_table_from_records(lookup1.output.records)
            fused = JobSpec(name="lookup2+similarity1",
                            mapper=LookupJoinMapper(measure),
                            reducer=Similarity1Reducer(
                                phase_config, measure=prune_measure,
                                threshold=prune_threshold,
                                pair_codec=pair_codec),
                            side_data=table)
            sim1 = self.runner.run(fused, dataset)
            return sim1, [lookup1]
        # Sharding
        sharding1 = self.runner.run(
            build_sharding1_job(measure, self.config.sharding_threshold,
                                self.config.use_combiners), dataset)
        sharded_table = lookup_table_from_records(sharding1.output.records)
        sharding2 = self.runner.run(
            build_sharding2_job(measure, sharded_table), dataset)
        sim1 = self.runner.run(
            build_similarity1_job(phase_config, measure=prune_measure,
                                  threshold=prune_threshold,
                                  pair_codec=pair_codec),
            sharding2.output)
        return sim1, [sharding1, sharding2]


def normalise_input(data: Iterable[Multiset] | Dataset | Sequence[InputTuple]) -> Dataset:
    """Normalise pipeline input into a dataset of raw :class:`InputTuple`.

    Accepts a :class:`~repro.mapreduce.dfs.Dataset` of input tuples, a
    sequence of input tuples, or any iterable of multisets (which are
    exploded into one tuple per element).
    """
    if isinstance(data, Dataset):
        return data
    materialised = list(data)
    if not materialised:
        return Dataset("raw_input", [])
    record_type = resolve_record_type(materialised, (InputTuple, Multiset),
                                      JobConfigurationError)
    if record_type is InputTuple:
        return Dataset("raw_input", materialised)
    return Dataset("raw_input", explode_multisets(materialised))

