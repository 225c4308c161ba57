"""The cost-model-driven join planner.

Given a :class:`~repro.engine.spec.JoinSpec` and a corpus, the
:class:`Planner` does what a database optimizer does for a query: it
*predicts* what each candidate execution pipeline would cost and picks the
cheapest.  The prediction reuses the exact machinery the simulator charges
real runs with — :class:`~repro.mapreduce.costmodel.CostModel` over
per-job :class:`~repro.mapreduce.types.JobStats` — but the statistics are
*estimated* from a one-pass :class:`CorpusProfile` (record counts, the
document-frequency profile of an
:class:`~repro.core.interning.ElementDictionary`, the per-multiset
cardinality distribution from :mod:`repro.datasets.stats`) instead of
measured by executing the pipeline.

The estimates deliberately mirror the runner's accounting:

* per-record map work is ``bytes_in + bytes_out + overhead * (1 + emitted)``;
* per-group reduce work is ``bytes_in + bytes_out + overhead * group_size``;
* a phase's critical path is ``max(total_work / machines, largest unit)``;
* the shuffle pays aggregate bandwidth plus the single link of the largest
  group's receiver — which is how skew (one hot element, one huge multiset)
  surfaces in the prediction exactly as it does in the measurement.

For the VCL baseline the planner computes the *real* prefixes (the same
:func:`repro.vcl.prefix.prefix_elements` the kernel mappers use) in one
pass, so the kernel's replication volume and its largest reduce group —
the two quantities the paper blames for VCL's collapse — are estimated
from actual prefix document frequencies rather than guessed.

Candidate-pair volume is estimated *unpruned* (``sum_e C(df_e, 2)``): the
upper-bound pruning rate depends on the pairwise ``Uni`` values, which a
planner that refuses to do quadratic work cannot know.  The overestimate
applies identically to all three V-SMART-Join pipelines, so their relative
order — the decision ``algorithm="auto"`` has to get right — is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.interning import ElementDictionary
from repro.core.multiset import Multiset
from repro.datasets.stats import (
    DistributionSummary,
    elements_per_multiset,
    skew_ratio,
    summarise_distribution,
)
from repro.baselines.minhash import SUPPORTED_MEASURES as MINHASH_MEASURES
from repro.baselines.sampled import sample_rate_for_recall
from repro.engine.spec import (
    APPROXIMATE_ALGORITHMS,
    AUTO,
    PLANNABLE_ALGORITHMS,
    SEQUENTIAL_ALGORITHMS,
    VCL,
    JoinSpec,
)
from repro.mapreduce.cluster import Cluster
from repro.mapreduce.costmodel import (
    DEFAULT_COST_PARAMETERS,
    CostBreakdown,
    CostModel,
    CostParameters,
)
from repro.mapreduce.types import JobStats, estimate_record_bytes
from repro.similarity.base import NominalSimilarityMeasure
from repro.vcl.prefix import frequency_rank_function, prefix_elements
from repro.vsmart.driver import LOOKUP, ONLINE_AGGREGATION, SHARDING
from repro.vsmart.shapes import RecordShapes

#: Size charged for a dataclass/tuple container by the byte estimator.
_CONTAINER = 16
#: Size of a dense integer key / an int or float field.
_WORD = 8


@dataclass(frozen=True)
class CorpusProfile:
    """One-pass statistics of a corpus, sufficient for cost prediction."""

    num_multisets: int
    #: Total ``(multiset, element)`` incidences — the raw input tuples.
    num_records: int
    alphabet_size: int
    #: Fig. 2 distribution: distinct elements per multiset.
    elements_per_multiset: DistributionSummary
    #: Fig. 3 distribution: multisets per element (document frequency).
    multisets_per_element: DistributionSummary
    #: ``sum_e C(df_e, 2)`` — the unpruned candidate-record volume.
    candidate_records: int
    #: Max-to-mean ratio of the document frequencies (load-imbalance lever).
    element_skew: float
    avg_element_bytes: float
    avg_id_bytes: float
    #: Per-multiset underlying cardinalities, in input order.
    cardinalities: tuple[int, ...]
    #: Estimated whole-multiset bytes, parallel to :attr:`cardinalities`.
    multiset_bytes: tuple[int, ...]
    #: The document-frequency-ordered element dictionary of the corpus.
    dictionary: ElementDictionary

    @classmethod
    def from_multisets(cls, multisets: Sequence[Multiset]) -> "CorpusProfile":
        """Profile a corpus in one pass (plus the dictionary sort)."""
        dictionary = ElementDictionary.from_multisets(multisets)
        frequencies = [dictionary.frequency_of(element)
                       for element in dictionary]
        cardinalities = tuple(elements_per_multiset(multisets))
        element_bytes = sum(estimate_record_bytes(element)
                            for element in dictionary)
        id_bytes = sum(estimate_record_bytes(multiset.id)
                       for multiset in multisets)
        return cls(
            num_multisets=len(multisets),
            num_records=sum(cardinalities),
            alphabet_size=len(dictionary),
            elements_per_multiset=summarise_distribution(cardinalities),
            multisets_per_element=summarise_distribution(frequencies),
            candidate_records=sum(df * (df - 1) // 2 for df in frequencies),
            element_skew=skew_ratio(frequencies),
            avg_element_bytes=(element_bytes / len(dictionary)
                               if dictionary else 0.0),
            avg_id_bytes=id_bytes / len(multisets) if multisets else 0.0,
            cardinalities=cardinalities,
            multiset_bytes=tuple(multiset.estimated_bytes()
                                 for multiset in multisets),
            dictionary=dictionary,
        )

    @property
    def max_cardinality(self) -> int:
        """``max_m |U(Mi)|`` — the largest multiset."""
        return self.elements_per_multiset.maximum

    @property
    def max_document_frequency(self) -> int:
        """``max_e Freq(a_e)`` — the hottest element."""
        return self.multisets_per_element.maximum


@dataclass(frozen=True)
class PlannedJob:
    """One predicted MapReduce step: estimated stats plus their cost."""

    name: str
    stats: JobStats
    cost: CostBreakdown
    #: Whether the job's reducer materialises whole groups in memory (the
    #: thrashing risk the paper describes) — only such jobs are held to the
    #: per-machine memory budget in the feasibility check.
    materialises_groups: bool = False

    @property
    def predicted_seconds(self) -> float:
        """Predicted simulated run time of this job."""
        return self.cost.total_seconds


@dataclass(frozen=True)
class PlanCandidate:
    """The predicted pipeline of one candidate algorithm.

    ``exclusion_reason`` marks pipelines the planner predicts the cluster
    cannot run at all — a joining algorithm needing engine features the
    cluster profile lacks, side data that cannot fit the per-machine memory
    budget, or a job the simulated scheduler would kill.  These mirror the
    "never succeeded to finish" rows of the paper's figures; ``auto`` never
    picks an infeasible candidate while a feasible one exists.
    """

    algorithm: str
    jobs: tuple[PlannedJob, ...]
    exclusion_reason: str | None = None

    @property
    def feasible(self) -> bool:
        """Whether the planner predicts the pipeline can finish."""
        return self.exclusion_reason is None

    @property
    def predicted_seconds(self) -> float:
        """Predicted simulated run time of the whole pipeline."""
        return sum(job.predicted_seconds for job in self.jobs)


@dataclass(frozen=True)
class JoinPlan:
    """An inspectable, executable decision: which algorithm, at what cost.

    ``candidates`` holds every pipeline the planner evaluated (a single
    entry when the spec named its algorithm explicitly), sorted cheapest
    first; ``algorithm`` is the chosen one.  :meth:`explain` renders the
    decision the way ``EXPLAIN`` renders a query plan.
    """

    spec: JoinSpec
    algorithm: str
    cluster: Cluster
    profile: CorpusProfile
    candidates: tuple[PlanCandidate, ...]
    reason: str

    @property
    def chosen(self) -> PlanCandidate:
        """The candidate the plan selected."""
        return self.candidate_for(self.algorithm)

    @property
    def predicted_seconds(self) -> float:
        """Predicted simulated run time of the chosen pipeline."""
        return self.chosen.predicted_seconds

    def candidate_for(self, algorithm: str) -> PlanCandidate:
        """The evaluated candidate for ``algorithm``."""
        for candidate in self.candidates:
            if candidate.algorithm == algorithm:
                return candidate
        available = ", ".join(repr(c.algorithm) for c in self.candidates)
        raise KeyError(f"no candidate for algorithm {algorithm!r}; "
                       f"evaluated: {available}")

    def explain(self) -> str:
        """Render the plan: decision, candidate ranking, per-job breakdown."""
        profile = self.profile
        lines = [
            f"JoinPlan: algorithm={self.algorithm!r} "
            f"(predicted {self.predicted_seconds:,.0f} simulated seconds)",
            f"  reason: {self.reason}",
            f"  corpus: {profile.num_multisets} multisets, "
            f"{profile.num_records} input tuples, "
            f"{profile.alphabet_size} distinct elements, "
            f"max |U(M)|={profile.max_cardinality}, "
            f"max Freq(a)={profile.max_document_frequency}, "
            f"df skew={profile.element_skew:.1f}x",
            f"  cluster: {self.cluster.num_machines} machines "
            f"({self.cluster.profile.name})",
        ]
        if len(self.candidates) > 1:
            lines.append("  candidates (cheapest first):")
            for rank, candidate in enumerate(self.candidates, start=1):
                marker = "*" if candidate.algorithm == self.algorithm else " "
                note = ("" if candidate.feasible
                        else f"  [infeasible: {candidate.exclusion_reason}]")
                lines.append(
                    f"   {marker}{rank}. {candidate.algorithm:<19} "
                    f"{candidate.predicted_seconds:>12,.0f} s  "
                    f"({len(candidate.jobs)} jobs){note}")
        lines.append(f"  per-job predicted cost ({self.algorithm}):")
        # The disk column only appears when the calibration prices disk
        # spill (CostParameters.disk_bandwidth set): an all-zero column
        # would just be noise under the default in-memory calibration.
        show_disk = any(job.cost.disk_seconds for job in self.chosen.jobs)
        header = (f"    {'job':<22} {'total':>10} {'overhead':>9} "
                  f"{'side':>8} {'map':>9} {'shuffle':>9} {'reduce':>9}"
                  + (f" {'disk':>9}" if show_disk else ""))
        lines.append(header)
        for job in self.chosen.jobs:
            cost = job.cost
            lines.append(
                f"    {job.name:<22} {cost.total_seconds:>10,.1f} "
                f"{cost.overhead_seconds:>9,.1f} "
                f"{cost.side_data_seconds:>8,.1f} "
                f"{cost.map_seconds:>9,.1f} "
                f"{cost.shuffle_seconds:>9,.1f} "
                f"{cost.reduce_seconds:>9,.1f}"
                + (f" {cost.disk_seconds:>9,.1f}" if show_disk else ""))
        return "\n".join(lines)


class Planner:
    """Choose (or cost) a join pipeline from corpus statistics.

    The planner is deliberately *read-only*: it never runs a candidate, it
    only profiles the corpus (one linear pass, plus the prefix scan for the
    VCL candidate) and prices the pipelines through the same
    :class:`~repro.mapreduce.costmodel.CostModel` that prices real runs.

    With a :class:`~repro.engine.calibration.CalibrationProfile` attached,
    pricing uses the profile's learned
    :meth:`~repro.engine.calibration.CalibrationProfile.calibrated_parameters`
    instead of the construction-time constants, and follows the profile as
    it keeps learning (the effective parameters refresh whenever the
    profile's version moves).
    """

    def __init__(self,
                 cost_parameters: CostParameters = DEFAULT_COST_PARAMETERS,
                 calibration=None) -> None:
        self.base_parameters = cost_parameters
        self.calibration = calibration
        self._calibration_version: int | None = None
        self.cost_parameters = cost_parameters
        self.cost_model = CostModel(cost_parameters)
        self._refresh_calibration()

    def _refresh_calibration(self) -> None:
        """Re-derive the effective parameters when the profile has learned."""
        if self.calibration is None:
            return
        if self._calibration_version == self.calibration.version:
            return
        self.cost_parameters = self.calibration.calibrated_parameters()
        self.cost_model = CostModel(self.cost_parameters)
        self._calibration_version = self.calibration.version

    # -- public API ---------------------------------------------------------

    def plan(self, spec: JoinSpec, multisets: Sequence[Multiset],
             cluster: Cluster, profile: CorpusProfile | None = None,
             enforce_budgets: bool = True) -> JoinPlan:
        """Produce the :class:`JoinPlan` for ``spec`` over ``multisets``.

        ``enforce_budgets`` mirrors the runner's switch: with it off, the
        memory-budget feasibility checks are skipped (the cluster-profile
        and scheduler-limit checks still apply, as the runner enforces
        those unconditionally).
        """
        self._refresh_calibration()
        profile = profile or CorpusProfile.from_multisets(multisets)
        if spec.algorithm == AUTO:
            pool = self._auto_candidates(spec)
            candidates = tuple(sorted(
                (self._checked(
                    self.estimate(algorithm, spec, multisets, cluster,
                                  profile),
                    cluster, enforce_budgets)
                 for algorithm in pool),
                key=lambda candidate: (not candidate.feasible,
                                       candidate.predicted_seconds)))
            chosen = candidates[0]
            if not chosen.feasible:
                reason = ("no candidate is predicted feasible; "
                          f"{chosen.algorithm!r} has the lowest predicted "
                          f"cost ({chosen.exclusion_reason})")
            else:
                runner_up = (candidates[1] if len(candidates) > 1 else chosen)
                reason = (f"lowest predicted cost of {len(candidates)} "
                          f"candidates ({chosen.predicted_seconds:,.0f} s vs "
                          f"{runner_up.predicted_seconds:,.0f} s for "
                          f"{runner_up.algorithm!r})")
                if chosen.algorithm in APPROXIMATE_ALGORITHMS:
                    reason += (f"; approximate tier admitted by "
                               f"recall={spec.recall}")
            return JoinPlan(spec=spec, algorithm=chosen.algorithm,
                            cluster=cluster, profile=profile,
                            candidates=candidates, reason=reason)
        candidate = self._checked(
            self.estimate(spec.algorithm, spec, multisets, cluster, profile),
            cluster, enforce_budgets)
        return JoinPlan(spec=spec, algorithm=spec.algorithm, cluster=cluster,
                        profile=profile, candidates=(candidate,),
                        reason=f"algorithm {spec.algorithm!r} requested "
                               "explicitly")

    def _auto_candidates(self, spec: JoinSpec) -> tuple[str, ...]:
        """The candidate pool ``algorithm="auto"`` prices for this spec.

        Always the four distributed contenders; a spec that allows
        inexactness (``recall < 1``) widens the pool with the approximate
        tier — ``minhash`` only for the Jaccard-family measures its
        signatures can estimate, ``sampled`` for every measure.
        """
        if not spec.allows_inexact:
            return PLANNABLE_ALGORITHMS
        from repro.similarity.registry import get_measure
        pool = list(PLANNABLE_ALGORITHMS)
        if get_measure(spec.measure).name in MINHASH_MEASURES:
            pool.append("minhash")
        pool.append("sampled")
        return tuple(pool)

    def _checked(self, candidate: PlanCandidate, cluster: Cluster,
                 enforce_budgets: bool) -> PlanCandidate:
        """Attach the predicted-infeasibility verdict to a candidate."""
        if candidate.algorithm in SEQUENTIAL_ALGORITHMS:
            # In-memory algorithms run outside the simulated cluster: no
            # scheduler, no per-machine budgets — never exclude them.
            return candidate
        reason = self._exclusion_reason(candidate, cluster, enforce_budgets)
        if reason is None:
            return candidate
        return PlanCandidate(algorithm=candidate.algorithm,
                             jobs=candidate.jobs, exclusion_reason=reason)

    def _exclusion_reason(self, candidate: PlanCandidate, cluster: Cluster,
                          enforce_budgets: bool) -> str | None:
        if (candidate.algorithm == ONLINE_AGGREGATION
                and not cluster.profile.supports_secondary_keys):
            return (f"requires secondary keys, which the "
                    f"{cluster.profile.name!r} profile does not support")
        for job in candidate.jobs:
            if job.predicted_seconds > cluster.scheduler_limit_seconds:
                return (f"job {job.name!r} predicted to run "
                        f"{job.predicted_seconds:,.0f} s, beyond the "
                        f"scheduler limit of "
                        f"{cluster.scheduler_limit_seconds:,.0f} s")
            if not enforce_budgets:
                continue
            budget = cluster.memory_per_machine
            if job.stats.side_data_bytes > budget:
                return (f"job {job.name!r} needs "
                        f"{job.stats.side_data_bytes:,} bytes of side data "
                        f"per machine against a budget of {budget:,}")
            if job.materialises_groups and job.stats.max_group_bytes > budget:
                return (f"job {job.name!r} must materialise a "
                        f"{job.stats.max_group_bytes:,}-byte reduce group "
                        f"against a budget of {budget:,}")
        return None

    def estimate(self, algorithm: str, spec: JoinSpec,
                 multisets: Sequence[Multiset], cluster: Cluster,
                 profile: CorpusProfile | None = None) -> PlanCandidate:
        """Predict the pipeline of one algorithm without executing it."""
        self._refresh_calibration()
        profile = profile or CorpusProfile.from_multisets(multisets)
        measure = spec.resolved_measure()
        sizes = RecordShapes(measure)
        if algorithm == "minhash":
            jobs = self._estimate_minhash(spec, profile)
        elif algorithm == "sampled":
            jobs = self._estimate_sampled(spec, profile)
        elif algorithm in SEQUENTIAL_ALGORITHMS:
            jobs = self._estimate_sequential(algorithm, profile, cluster)
        elif algorithm == ONLINE_AGGREGATION:
            jobs = (self._estimate_online_aggregation(profile, sizes, cluster)
                    + self._similarity_phase(profile, sizes, cluster))
        elif algorithm == LOOKUP:
            jobs = self._estimate_lookup(profile, sizes, cluster)
        elif algorithm == SHARDING:
            jobs = (self._estimate_sharding(spec, profile, sizes, cluster)
                    + self._similarity_phase(profile, sizes, cluster))
        elif algorithm == VCL:
            jobs = self._estimate_vcl(spec, measure, multisets, profile,
                                      cluster)
        else:
            raise KeyError(f"no cost estimate for algorithm {algorithm!r}")
        return PlanCandidate(algorithm=algorithm, jobs=tuple(jobs))

    # -- shared machinery ---------------------------------------------------

    def _job(self, name: str, cluster: Cluster, *,
             map_records: float = 0, map_bytes_in: float = 0,
             map_bytes_out: float = 0, map_emitted: float = 0,
             map_max_unit: float = 0.0,
             extra_map_work: float = 0.0,
             reduce_records: float = 0, reduce_groups: float = 0,
             reduce_bytes_in: float = 0, reduce_bytes_out: float = 0,
             reduce_max_unit: float = 0.0,
             shuffle_bytes: float = 0, max_group_bytes: float = 0,
             side_data_bytes: float = 0,
             materialises_groups: bool = False) -> PlannedJob:
        """Assemble an estimated :class:`JobStats` and price it.

        ``extra_map_work`` folds combiner work into the map phase, exactly
        where the runner charges it.
        """
        overhead = self.cost_parameters.record_overhead_bytes
        machines = max(1, cluster.num_machines)
        stats = JobStats(job_name=name, num_machines=machines)

        map_total = (map_bytes_in + map_bytes_out
                     + overhead * (map_records + map_emitted)
                     + extra_map_work)
        stats.map.records_in = int(map_records)
        stats.map.records_out = int(map_emitted)
        stats.map.bytes_in = int(map_bytes_in)
        stats.map.bytes_out = int(map_bytes_out)
        stats.map.work_units = map_total
        stats.map.max_unit_work = map_max_unit
        stats.map.machine_work = {0: max(map_total / machines, map_max_unit)}

        reduce_total = (reduce_bytes_in + reduce_bytes_out
                        + overhead * reduce_records)
        stats.reduce.records_in = int(reduce_records)
        stats.reduce.bytes_in = int(reduce_bytes_in)
        stats.reduce.bytes_out = int(reduce_bytes_out)
        stats.reduce.work_units = reduce_total
        stats.reduce.max_unit_work = reduce_max_unit
        stats.reduce.machine_work = {
            0: max(reduce_total / machines, reduce_max_unit)}

        stats.shuffle_bytes = int(shuffle_bytes)
        # As in the runner: the map-side spill writes exactly the shuffled
        # bytes, which is what the disk-I/O cost term (when calibrated)
        # charges for.
        stats.spilled_bytes = int(shuffle_bytes)
        stats.max_group_bytes = int(max_group_bytes)
        stats.reduce_groups = int(reduce_groups)
        stats.side_data_bytes = int(side_data_bytes)
        return PlannedJob(name=name, stats=stats,
                          cost=self.cost_model.job_cost(stats, cluster),
                          materialises_groups=materialises_groups)

    def _similarity_phase(self, profile: CorpusProfile, sizes: RecordShapes,
                          cluster: Cluster,
                          fused_sim1: bool = False) -> list[PlannedJob]:
        """The shared Similarity1 + Similarity2 steps (paper section 4).

        With ``fused_sim1`` the Similarity1 *reduce* side is priced alone
        (Lookup fuses its own mapper into the job, priced by the caller).
        """
        machines = max(1, cluster.num_machines)
        posting_kv = sizes.posting_kv
        pair_record = sizes.pair_record
        overhead = self.cost_parameters.record_overhead_bytes

        records = profile.num_records
        candidates = profile.candidate_records
        max_df = profile.max_document_frequency
        shuffle = records * posting_kv
        max_group = max_df * posting_kv
        hot_pairs = max_df * (max_df - 1) // 2
        reduce_in = shuffle
        reduce_out = candidates * pair_record
        sim1_reduce = dict(
            reduce_records=records,
            reduce_groups=profile.alphabet_size,
            reduce_bytes_in=reduce_in,
            reduce_bytes_out=reduce_out,
            reduce_max_unit=(max_group + hot_pairs * pair_record
                             + overhead * max_df),
            shuffle_bytes=shuffle,
            max_group_bytes=max_group,
            materialises_groups=True,
        )
        jobs = []
        if not fused_sim1:
            jobs.append(self._job(
                "similarity1", cluster,
                map_records=records,
                map_bytes_in=records * sizes.joined_tuple,
                map_bytes_out=shuffle,
                map_emitted=records,
                map_max_unit=sizes.joined_tuple + posting_kv + 2 * overhead,
                **sim1_reduce))
        else:
            jobs.append(self._job("lookup2+similarity1", cluster,
                                  **sim1_reduce))

        pair_kv = sizes.pair_kv
        sim2_shuffle = candidates * pair_kv
        # Combiners cap any one pair's reduce group at one record per mapper
        # machine; the largest group belongs to the pair sharing the most
        # elements, bounded by the largest multiset.
        max_shared = min(profile.max_cardinality, machines)
        jobs.append(self._job(
            "similarity2", cluster,
            map_records=candidates,
            map_bytes_in=candidates * pair_record,
            map_bytes_out=sim2_shuffle,
            map_emitted=candidates,
            map_max_unit=pair_record + pair_kv + 2 * overhead,
            extra_map_work=(2 * sim2_shuffle + overhead * candidates),
            reduce_records=candidates,
            reduce_groups=candidates,
            reduce_bytes_in=sim2_shuffle,
            reduce_bytes_out=0,
            reduce_max_unit=max_shared * pair_kv + overhead * max_shared,
            shuffle_bytes=sim2_shuffle,
            max_group_bytes=max_shared * pair_kv,
        ))
        return jobs

    def _combined_uni_records(self, profile: CorpusProfile,
                              cluster: Cluster) -> float:
        """Post-combiner count of per-multiset ``Uni`` partial records.

        A multiset spread round-robin across the mappers leaves at most one
        combined record per machine it touched: ``sum_m min(|U(Mi)|, M)``.
        """
        machines = max(1, cluster.num_machines)
        return float(sum(min(cardinality, machines)
                         for cardinality in profile.cardinalities))

    # -- per-algorithm estimates --------------------------------------------

    def _estimate_online_aggregation(self, profile: CorpusProfile,
                                     sizes: RecordShapes,
                                     cluster: Cluster) -> list[PlannedJob]:
        overhead = self.cost_parameters.record_overhead_bytes
        records = profile.num_records
        kv_uni = sizes.oa_uni_kv
        kv_element = sizes.oa_element_kv
        map_out = records * (kv_uni + kv_element)
        combined_uni = self._combined_uni_records(profile, cluster)
        shuffle = records * kv_element + combined_uni * kv_uni
        max_u = profile.max_cardinality
        machines = max(1, cluster.num_machines)
        max_group = (max_u * kv_element + min(max_u, machines) * kv_uni)
        max_group_records = max_u + min(max_u, machines)
        return [self._job(
            "online_aggregation", cluster,
            map_records=records,
            map_bytes_in=records * sizes.input_tuple,
            map_bytes_out=map_out,
            map_emitted=2 * records,
            map_max_unit=sizes.input_tuple + kv_uni + kv_element + 3 * overhead,
            extra_map_work=(map_out + shuffle + overhead * 2 * records),
            reduce_records=records + combined_uni,
            reduce_groups=profile.num_multisets,
            reduce_bytes_in=shuffle,
            reduce_bytes_out=records * sizes.joined_tuple,
            reduce_max_unit=(max_group + max_u * sizes.joined_tuple
                             + overhead * max_group_records),
            shuffle_bytes=shuffle,
            max_group_bytes=max_group,
        )]

    def _estimate_lookup(self, profile: CorpusProfile, sizes: RecordShapes,
                         cluster: Cluster) -> list[PlannedJob]:
        overhead = self.cost_parameters.record_overhead_bytes
        machines = max(1, cluster.num_machines)
        records = profile.num_records
        kv_uni = sizes.lookup1_kv
        combined = self._combined_uni_records(profile, cluster)
        shuffle = combined * kv_uni
        table_entry = sizes.table_entry
        max_u = profile.max_cardinality
        lookup1 = self._job(
            "lookup1", cluster,
            map_records=records,
            map_bytes_in=records * sizes.input_tuple,
            map_bytes_out=records * kv_uni,
            map_emitted=records,
            map_max_unit=sizes.input_tuple + kv_uni + 2 * overhead,
            extra_map_work=(records * kv_uni + shuffle + overhead * records),
            reduce_records=combined,
            reduce_groups=profile.num_multisets,
            reduce_bytes_in=shuffle,
            reduce_bytes_out=profile.num_multisets * table_entry,
            reduce_max_unit=(min(max_u, machines) * kv_uni + table_entry
                             + overhead * min(max_u, machines)),
            shuffle_bytes=shuffle,
            max_group_bytes=min(max_u, machines) * kv_uni,
        )

        # Lookup2 fuses with Similarity1: one job maps every raw tuple
        # against the in-memory table and reduces element posting lists.
        table_bytes = sizes.table(profile.num_multisets)
        posting_kv = sizes.posting_kv
        fused, similarity2 = self._similarity_phase(profile, sizes, cluster,
                                                    fused_sim1=True)
        fused_map = self._job(
            "_fused_map", cluster,
            map_records=records,
            map_bytes_in=records * sizes.input_tuple,
            map_bytes_out=records * posting_kv,
            map_emitted=records,
            map_max_unit=sizes.input_tuple + posting_kv + 2 * overhead,
        )
        merged_stats = fused.stats
        merged_stats.map = fused_map.stats.map
        merged_stats.side_data_bytes = int(table_bytes)
        fused = PlannedJob(name=fused.name, stats=merged_stats,
                           cost=self.cost_model.job_cost(merged_stats, cluster),
                           materialises_groups=True)
        return [lookup1, fused, similarity2]

    def _estimate_sharding(self, spec: JoinSpec, profile: CorpusProfile,
                           sizes: RecordShapes,
                           cluster: Cluster) -> list[PlannedJob]:
        overhead = self.cost_parameters.record_overhead_bytes
        machines = max(1, cluster.num_machines)
        records = profile.num_records
        threshold_c = spec.sharding_threshold
        sharded = [u for u in profile.cardinalities if u > threshold_c]
        unsharded = [u for u in profile.cardinalities if u <= threshold_c]
        sharded_records = sum(sharded)
        unsharded_records = records - sharded_records

        kv_contribution = sizes.sharding1_kv
        combined = self._combined_uni_records(profile, cluster)
        shuffle1 = combined * kv_contribution
        table_entry = sizes.table_entry
        max_u = profile.max_cardinality
        sharding1 = self._job(
            "sharding1", cluster,
            map_records=records,
            map_bytes_in=records * sizes.input_tuple,
            map_bytes_out=records * kv_contribution,
            map_emitted=records,
            map_max_unit=sizes.input_tuple + kv_contribution + 2 * overhead,
            extra_map_work=(records * kv_contribution + shuffle1
                            + overhead * records),
            reduce_records=combined,
            reduce_groups=profile.num_multisets,
            reduce_bytes_in=shuffle1,
            reduce_bytes_out=len(sharded) * table_entry,
            reduce_max_unit=(min(max_u, machines) * kv_contribution
                             + table_entry
                             + overhead * min(max_u, machines)),
            shuffle_bytes=shuffle1,
            max_group_bytes=min(max_u, machines) * kv_contribution,
        )

        table_bytes = sizes.table(len(sharded))
        kv_sharded = sizes.sharded_kv
        kv_unsharded = sizes.unsharded_kv
        shuffle2 = (sharded_records * kv_sharded
                    + unsharded_records * kv_unsharded)
        # Sharded tuples scatter one record per fingerprint; the largest
        # group is the biggest *unsharded* multiset's full value list.
        max_unsharded = max(unsharded, default=0)
        max_group2 = max(max_unsharded * kv_unsharded, kv_sharded)
        sharding2 = self._job(
            "sharding2", cluster,
            map_records=records,
            map_bytes_in=records * sizes.input_tuple,
            map_bytes_out=shuffle2,
            map_emitted=records,
            map_max_unit=sizes.input_tuple + kv_sharded + 2 * overhead,
            reduce_records=records,
            reduce_groups=sharded_records + len(unsharded),
            reduce_bytes_in=shuffle2,
            reduce_bytes_out=records * sizes.joined_tuple,
            reduce_max_unit=(max_group2
                             + max_unsharded * sizes.joined_tuple
                             + overhead * max(1, max_unsharded)),
            shuffle_bytes=shuffle2,
            max_group_bytes=max_group2,
            side_data_bytes=table_bytes,
            materialises_groups=True,
        )
        return [sharding1, sharding2]

    def _estimate_vcl(self, spec: JoinSpec,
                      measure: NominalSimilarityMeasure,
                      multisets: Sequence[Multiset], profile: CorpusProfile,
                      cluster: Cluster) -> list[PlannedJob]:
        overhead = self.cost_parameters.record_overhead_bytes
        machines = max(1, cluster.num_machines)
        use_frequency = spec.vcl_element_order == "frequency"
        records = profile.num_records
        element_b = profile.avg_element_bytes
        kv_count = _CONTAINER + element_b + _WORD + 1
        combined_counts = float(sum(min(df, machines)
                                    for df in (profile.dictionary.frequency_of(e)
                                               for e in profile.dictionary)))
        frequency_entry = _CONTAINER + element_b + _WORD
        jobs = []
        if use_frequency:
            shuffle_f = combined_counts * kv_count
            max_df = profile.max_document_frequency
            jobs.append(self._job(
                "vcl_frequencies", cluster,
                map_records=profile.num_multisets,
                map_bytes_in=sum(profile.multiset_bytes),
                map_bytes_out=records * kv_count,
                map_emitted=records,
                map_max_unit=(max(profile.multiset_bytes, default=0)
                              + profile.max_cardinality * kv_count
                              + overhead * (1 + profile.max_cardinality)),
                extra_map_work=(records * kv_count + shuffle_f
                                + overhead * records),
                reduce_records=combined_counts,
                reduce_groups=profile.alphabet_size,
                reduce_bytes_in=shuffle_f,
                reduce_bytes_out=profile.alphabet_size * frequency_entry,
                reduce_max_unit=(min(max_df, machines) * kv_count
                                 + frequency_entry
                                 + overhead * min(max_df, machines)),
                shuffle_bytes=shuffle_f,
                max_group_bytes=min(max_df, machines) * kv_count,
            ))

        # The kernel: price replication and group skew from the *actual*
        # prefixes, accumulated per element in one pass.
        rank = frequency_rank_function(
            {element: profile.dictionary.frequency_of(element)
             for element in profile.dictionary}) if use_frequency else None
        if rank is None:
            from repro.vcl.prefix import hash_rank_function
            rank = hash_rank_function()
        replicated_bytes = 0.0
        map_total_extra = 0.0
        max_unit = 0.0
        group_bytes: dict = {}
        group_records: dict = {}
        total_prefix = 0
        for multiset, m_bytes in zip(multisets, profile.multiset_bytes):
            prefix = prefix_elements(multiset, rank, measure, spec.threshold)
            total_prefix += len(prefix)
            emitted = sum(_CONTAINER + estimate_record_bytes(element)
                          + m_bytes + 1 for element in prefix)
            replicated_bytes += emitted
            unit = m_bytes + emitted + overhead * (1 + len(prefix))
            max_unit = max(max_unit, unit)
            map_total_extra += unit
            for element in prefix:
                kv = _CONTAINER + estimate_record_bytes(element) + m_bytes + 1
                group_bytes[element] = group_bytes.get(element, 0.0) + kv
                group_records[element] = group_records.get(element, 0) + 1
        max_group = max(group_bytes.values(), default=0.0)
        hot_element = max(group_records, key=group_records.get, default=None)
        hot_records = group_records.get(hot_element, 0)
        frequency_map_bytes = (_CONTAINER + profile.alphabet_size
                               * (element_b + _WORD)
                               if use_frequency else 0)
        jobs.append(self._job(
            "vcl_kernel", cluster,
            map_records=profile.num_multisets,
            map_bytes_in=sum(profile.multiset_bytes),
            map_bytes_out=replicated_bytes,
            map_emitted=total_prefix,
            map_max_unit=max_unit,
            reduce_records=total_prefix,
            reduce_groups=len(group_bytes),
            reduce_bytes_in=replicated_bytes,
            reduce_bytes_out=0,
            reduce_max_unit=max_group + overhead * hot_records,
            shuffle_bytes=replicated_bytes,
            max_group_bytes=max_group,
            side_data_bytes=frequency_map_bytes,
            materialises_groups=True,
        ))
        # Deduplication: tiny relative to the kernel — candidate *results*
        # only; estimate it as overhead plus a nominal pass.
        jobs.append(self._job("vcl_dedup", cluster))
        return jobs

    def _estimate_sequential(self, algorithm: str, profile: CorpusProfile,
                             cluster: Cluster) -> list[PlannedJob]:
        """A single-machine quadratic (or candidate-driven) in-memory pass.

        Sequential baselines pay no MapReduce start/stop overhead and use
        one machine regardless of the cluster; the estimate reflects that by
        pricing a single pseudo-job with a zeroed overhead component.
        """
        pairs = profile.num_multisets * (profile.num_multisets - 1) / 2
        if algorithm != "exact":
            # Candidate-driven baselines verify roughly the inverted-index
            # candidate volume instead of all pairs.
            pairs = min(pairs, float(profile.candidate_records))
        avg_bytes = _avg_multiset_bytes(profile)
        return [self._in_memory_job(f"{algorithm} (in-memory)",
                                    pairs * 2 * avg_bytes,
                                    profile.num_multisets)]

    def _in_memory_job(self, name: str, work: float,
                       records: int) -> PlannedJob:
        """Price a single-machine in-memory pass: compute only, no overhead."""
        stats = JobStats(job_name=name, num_machines=1)
        stats.map.work_units = work
        stats.map.machine_work = {0: work}
        stats.map.records_in = records
        cost = CostBreakdown(
            overhead_seconds=0.0, side_data_seconds=0.0,
            map_seconds=work / self.cost_parameters.machine_throughput,
            shuffle_seconds=0.0, reduce_seconds=0.0)
        return PlannedJob(name=name, stats=stats, cost=cost)

    def _estimate_minhash(self, spec: JoinSpec,
                          profile: CorpusProfile) -> list[PlannedJob]:
        """Price the MinHash/LSH pipeline: signatures, banding, verification.

        The banding is the one the engine would actually run with
        (:meth:`JoinSpec.resolved_minhash_parameters` — recall-derived when
        the spec sets a target), so a tighter recall demand honestly prices
        as a longer signature.  Candidate volume is the unpruned
        element-sharing pair count thinned by the banding's collision
        probability at the threshold.
        """
        params = spec.resolved_minhash_parameters()
        avg_bytes = _avg_multiset_bytes(profile)
        signature_work = profile.num_records * params.num_hashes * _WORD
        banding_work = (profile.num_multisets * params.num_bands
                        * (_CONTAINER + params.rows_per_band * _WORD))
        collide = params.collision_probability(spec.threshold)
        candidates = profile.candidate_records * collide
        verify_work = candidates * 2 * avg_bytes
        work = signature_work + banding_work + verify_work
        return [self._in_memory_job("minhash (in-memory)", work,
                                    profile.num_multisets)]

    def _estimate_sampled(self, spec: JoinSpec,
                          profile: CorpusProfile) -> list[PlannedJob]:
        """Price the sampled join: a linear sampling pass, then the exact
        quadratic sweep shrunk by the squared keep rate."""
        rate = (sample_rate_for_recall(spec.recall)
                if spec.recall is not None else 1.0)
        avg_bytes = _avg_multiset_bytes(profile)
        pairs = profile.num_multisets * (profile.num_multisets - 1) / 2
        sweep_work = pairs * (rate ** 2) * 2 * avg_bytes
        scan_work = profile.num_multisets * (profile.avg_id_bytes + _WORD)
        return [self._in_memory_job("sampled (in-memory)",
                                    scan_work + sweep_work,
                                    profile.num_multisets)]


def _avg_multiset_bytes(profile: CorpusProfile) -> float:
    """Mean estimated whole-multiset size of the corpus, in bytes."""
    if not profile.num_multisets:
        return 0.0
    return sum(profile.multiset_bytes) / profile.num_multisets
