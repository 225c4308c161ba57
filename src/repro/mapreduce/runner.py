"""Local execution engine for simulated MapReduce jobs.

:class:`LocalJobRunner` executes a :class:`~repro.mapreduce.job.JobSpec`
against a :class:`~repro.mapreduce.dfs.Dataset` on a simulated
:class:`~repro.mapreduce.cluster.Cluster`.  Results are exact — every mapper
and reducer really runs — while the *performance* of the run is modelled:

* input records are spread round-robin over the cluster's machines to
  account per-machine map work;
* dedicated combiners run per mapper machine and shrink the shuffle volume;
* the shuffle groups records by key (hash partitioned to ``num_reducers``
  partitions, one per machine by default; each task asks the partitioner
  once per distinct key, when it ends) and optionally sorts each group by
  the secondary key;
* per-machine memory and disk budgets are enforced, raising
  :class:`~repro.core.exceptions.MemoryBudgetExceeded` /
  :class:`~repro.core.exceptions.DiskBudgetExceeded` in the situations the
  paper describes (lookup tables or frequency-sorted alphabets that do not
  fit, reduce value lists that must be materialised);
* the cost model converts the measured loads into a simulated run time, and
  the scheduler kills jobs whose simulated time exceeds the cluster limit
  (as happened to the VCL kernel mappers in the paper).

Where the work *actually* runs is pluggable: the runner splits every phase
into self-contained tasks (:mod:`repro.mapreduce.phases`) and hands them to
an :class:`~repro.mapreduce.backends.ExecutionBackend` — serially (the
default) or on a multiprocessing pool — and asks the same backend where the
shuffle is held: in the runner's in-memory spill dictionaries, or in an
:class:`~repro.mapreduce.shuffle.ExternalGrouper` that spills sorted runs
to disk (the ``"disk"`` backend).  Task partials are integer-valued and
merged deterministically, so results, counters and simulated times are
identical across backends; only wall-clock time and peak memory change.

A record is sized by shape when its job is built — the walker
(:func:`~repro.mapreduce.types.walk_record_bytes`) is the definition and,
for a job that declares nothing, the fallback — and never walked twice:
:meth:`LocalJobRunner.run` hands the sizes a job's output was emitted with
to the output :class:`~repro.mapreduce.dfs.Dataset`, and the next job's map
tasks read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.exceptions import (
    DiskBudgetExceeded,
    JobTimeoutError,
    UnsupportedFeatureError,
)
from repro.mapreduce.backends import ExecutionBackend, get_backend
from repro.mapreduce.cluster import Cluster
from repro.mapreduce.costmodel import (
    DEFAULT_COST_PARAMETERS,
    CostModel,
    CostParameters,
)
from repro.mapreduce.counters import Counters
from repro.mapreduce.dfs import Dataset
from repro.mapreduce.job import JobSpec
from repro.mapreduce.phases import (
    CombineTask,
    Group,
    MapTask,
    ReduceTask,
    Spill,
    SpillGroups,
    check_memory_budget,
    execute_combine_task,
    execute_map_task,
    execute_reduce_task,
    merge_spills,
    partition_by_key,
    split_slices,
)
from repro.mapreduce.types import JobStats, KeyValue, estimate_record_bytes

#: The one counter that is a high-water mark, not a tally: over a pipeline
#: it is the largest per-job value (the other ``shuffle/*`` counters sum).
PEAK_BUFFER_COUNTER = "shuffle/peak_buffer_bytes"


@dataclass
class JobResult:
    """The output dataset and statistics of one executed job."""

    output: Dataset
    stats: JobStats

    @property
    def simulated_seconds(self) -> float:
        """Simulated run time of the job."""
        return self.stats.simulated_seconds


@dataclass
class PipelineResult:
    """The output and per-job statistics of a multi-job pipeline."""

    name: str
    output: Dataset
    job_stats: list[JobStats] = field(default_factory=list)
    artifacts: dict[str, Any] = field(default_factory=dict)

    @property
    def simulated_seconds(self) -> float:
        """Total simulated run time across all jobs of the pipeline."""
        return sum(stats.simulated_seconds for stats in self.job_stats)

    def stats_for(self, job_name: str) -> JobStats:
        """Return the statistics of the job called ``job_name``."""
        for stats in self.job_stats:
            if stats.job_name == job_name:
                return stats
        available = ", ".join(repr(stats.job_name) for stats in self.job_stats)
        raise KeyError(f"no job named {job_name!r} in pipeline {self.name!r}; "
                       f"available jobs: {available or '(none)'}")

    def counters(self) -> dict[str, int]:
        """Return all counters summed across the pipeline's jobs.

        ``shuffle/peak_buffer_bytes`` is the exception: a peak over the
        pipeline is the maximum of the per-job peaks.
        """
        merged: dict[str, int] = {}
        for stats in self.job_stats:
            for key, value in stats.counters.items():
                if key == PEAK_BUFFER_COUNTER:
                    merged[key] = max(merged.get(key, 0), value)
                else:
                    merged[key] = merged.get(key, 0) + value
        return merged


class LocalJobRunner:
    """Execute simulated MapReduce jobs on a cluster description.

    A runner is the whole infrastructure of a join in one object — the
    cluster, the cost model, the budget switch and the execution backend —
    and the one place that decides who closes the backend.  ``backend``
    selects where mapper/combiner/reducer work physically runs
    (``"serial"``, ``"process"``, ``"disk"`` or an
    :class:`~repro.mapreduce.backends.ExecutionBackend` instance); see
    :mod:`repro.mapreduce.backends`.  The runner owns a backend it creates
    from a name and releases it, once, in :meth:`close`; a backend instance
    passed in is borrowed and left for its owner to close.
    """

    def __init__(self, cluster: Cluster,
                 cost_parameters: CostParameters = DEFAULT_COST_PARAMETERS,
                 enforce_budgets: bool = True,
                 backend: str | ExecutionBackend = "serial") -> None:
        self.cluster = cluster
        self.cost_parameters = cost_parameters
        self.cost_model = CostModel(cost_parameters)
        self.enforce_budgets = enforce_budgets
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self.backend = get_backend(backend)

    def close(self) -> None:
        """Release the runner's backend when the runner created it."""
        if self._owns_backend:
            self._owns_backend = False
            self.backend.close()

    def __enter__(self) -> "LocalJobRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- public API ----------------------------------------------------------

    def run(self, job: JobSpec, dataset: Dataset) -> JobResult:
        """Run one job over ``dataset`` and return its output and stats."""
        self._check_profile(job)
        stats = JobStats(job_name=job.name, num_machines=self.cluster.num_machines)
        counters = Counters()

        side_data_bytes = self._side_data_bytes(job)
        stats.side_data_bytes = side_data_bytes
        self._check_memory(job.name, "side data", side_data_bytes)

        num_reducers = job.num_reducers or self.cluster.num_machines

        output_records, output_bytes = self._run_phases(
            job, dataset, stats, counters, num_reducers)

        self._check_disk(job.name, stats)
        stats.merge_counters(counters.as_dict())
        self.cost_model.annotate(stats, self.cluster)
        self._check_scheduler(job.name, stats)
        output = Dataset(f"{job.name}:output", output_records, output_bytes)
        return JobResult(output=output, stats=stats)

    # -- phases ---------------------------------------------------------------

    def _run_phases(self, job: JobSpec, dataset: Dataset,
                    stats: JobStats, counters: Counters,
                    num_reducers: int) -> tuple[list[Any], list[int]]:
        """Map / combine / shuffle / reduce: the output records and their sizes."""
        # The one decision a backend makes beyond running tasks: the shuffle
        # is held in the tasks' spill dictionaries, or in its grouper (which
        # owns nothing until it is fed, so only the ``with`` below cleans up).
        grouper = self.backend.external_grouper()
        want_spill = job.reducer is not None and grouper is None
        map_output, spill = self._run_map_phase(
            job, dataset, stats, counters, num_reducers,
            build_spill=want_spill and job.combiner is None)
        if job.combiner is not None:
            map_output, spill = self._run_combine_phase(
                job, map_output, stats, counters, num_reducers,
                build_spill=want_spill)

        # The shuffle moves (and spills once on the map side) exactly the
        # bytes the last map-side phase emitted.
        stats.shuffle_bytes = (stats.combine.bytes_out if job.combiner is not None
                               else stats.map.bytes_out)
        stats.spilled_bytes = stats.shuffle_bytes

        if job.reducer is None:
            return map_output, [key_value.size_bytes for key_value in map_output]
        if grouper is None:
            assert spill is not None
            # One task per worker over the partitions in ascending order.
            partitions = sorted(spill.items())
            return self._run_reduce_phase(
                job, [SpillGroups(partitions[start:stop])
                      for start, stop in split_slices(len(partitions),
                                                      self.backend.num_workers)],
                stats, counters)
        with grouper:  # removes its run files on every exit path
            partitioner = job.partitioner
            for key_value in map_output:
                grouper.add(partitioner(key_value.key, num_reducers), key_value)
            # The merge is one lazy stream, so one task (never a list:
            # materialising it would give up the memory ceiling).
            output = self._run_reduce_phase(
                job, [grouper.iter_groups()], stats, counters)
            for name, value in grouper.telemetry.items():
                counters.increment(f"shuffle/{name}", value)
        return output

    def _run_map_phase(self, job: JobSpec, dataset: Dataset,
                       stats: JobStats, counters: Counters,
                       num_reducers: int,
                       build_spill: bool) -> tuple[list[KeyValue], Spill | None]:
        # Sized by whoever made them (a job, the driver) or, once, by this
        # first read.
        records, record_bytes = dataset.records, dataset.record_bytes
        overhead = self.cost_parameters.record_overhead_bytes
        machines = self.cluster.num_machines
        tasks = [MapTask(job=job, records=records[start:stop],
                         record_bytes=record_bytes[start:stop], start_index=start,
                         num_machines=machines, overhead=overhead,
                         num_reducers=num_reducers, build_spill=build_spill)
                 for start, stop in split_slices(len(records),
                                                 self.backend.num_workers)]
        results = self.backend.run_tasks(execute_map_task, tasks)

        map_output: list[KeyValue] = []
        cleanup_emissions: list[KeyValue] = []
        spill: Spill | None = {} if build_spill else None
        max_output_record = 0
        for result in results:
            map_output.extend(result.emissions)
            cleanup_emissions.extend(result.cleanup_emissions)
            if spill is not None and result.spill is not None:
                merge_spills(spill, result.spill)
            stats.map.merge(result.phase)
            max_output_record = max(max_output_record, result.max_output_record)
            counters.merge_dict(result.counters)
        map_output.extend(cleanup_emissions)
        if spill is not None:
            # Cleanup emissions enter the shuffle last, as in the serial
            # runner's single pass over the full map output.
            merge_spills(spill, partition_by_key(cleanup_emissions, job.partitioner,
                                                 num_reducers))

        task_memory = (stats.side_data_bytes + max(record_bytes, default=0)
                       + max_output_record)
        stats.peak_task_memory = max(stats.peak_task_memory, task_memory)
        self._check_memory(job.name, "map task working set", task_memory)
        return map_output, spill

    def _run_combine_phase(self, job: JobSpec, map_output: list[KeyValue],
                           stats: JobStats, counters: Counters,
                           num_reducers: int,
                           build_spill: bool) -> tuple[list[KeyValue], Spill | None]:
        machines = self.cluster.num_machines
        overhead = self.cost_parameters.record_overhead_bytes
        # Dedicated combiners run on the mapper machines: group this
        # machine's output by (key, secondary) and combine each group.
        # Emission ``index`` belongs to mapper machine ``index % machines``.
        machine_items: list[tuple[int, dict[tuple, list[KeyValue]]]] = []
        for machine in range(min(machines, len(map_output))):
            groups: dict[tuple, list[KeyValue]] = {}
            for key_value in map_output[machine::machines]:
                group_key = (key_value.key, key_value.secondary)
                records = groups.get(group_key)
                if records is None:
                    groups[group_key] = [key_value]
                else:
                    records.append(key_value)
            machine_items.append((machine, groups))
        tasks = [CombineTask(job=job, machines=machine_items[start:stop],
                             num_machines=machines, overhead=overhead,
                             num_reducers=num_reducers, build_spill=build_spill)
                 for start, stop in split_slices(len(machine_items),
                                                 self.backend.num_workers)
                 if stop > start]
        results = self.backend.run_tasks(execute_combine_task, tasks)

        combined: list[KeyValue] = []
        spill: Spill | None = {} if build_spill else None
        for result in results:
            combined.extend(result.combined)
            stats.combine.merge(result.phase)
            # Combining happens on the mapper machine; fold it into map
            # work so the cost model charges the same machine.
            for machine, work in result.phase.machine_work.items():
                stats.map.add_machine_work(machine, work)
            if spill is not None and result.spill is not None:
                merge_spills(spill, result.spill)
            counters.merge_dict(result.counters)
        return combined, spill

    def _run_reduce_phase(self, job: JobSpec,
                          group_streams: list[Iterable[Group]],
                          stats: JobStats, counters: Counters
                          ) -> tuple[list[Any], list[int]]:
        budget = self.cluster.memory_per_machine if self.enforce_budgets else None
        # ``run`` has refused a job that needs secondary keys on a profile
        # without them, so needing them is enough to sort by them here.
        tasks = [ReduceTask(job=job, groups=groups,
                            sort_by_secondary=job.requires_secondary_keys,
                            num_machines=self.cluster.num_machines,
                            overhead=self.cost_parameters.record_overhead_bytes,
                            memory_budget=budget)
                 for groups in group_streams]
        results = self.backend.run_tasks(execute_reduce_task, tasks)

        output_records: list[Any] = []
        output_bytes: list[int] = []
        for result in results:
            output_records.extend(result.output_records)
            output_bytes.extend(result.output_bytes)
            stats.reduce.merge(result.phase)
            stats.reduce_groups += result.reduce_groups
            stats.max_group_records = max(stats.max_group_records,
                                          result.max_group_records)
            stats.max_group_bytes = max(stats.max_group_bytes,
                                        result.max_group_bytes)
            stats.peak_task_memory = max(stats.peak_task_memory,
                                         result.peak_task_memory)
            counters.merge_dict(result.counters)
        return output_records, output_bytes

    # -- budget and profile checks --------------------------------------------

    def _check_profile(self, job: JobSpec) -> None:
        if job.requires_secondary_keys and not self.cluster.profile.supports_secondary_keys:
            raise UnsupportedFeatureError(
                f"job {job.name!r} requires secondary keys, which the "
                f"{self.cluster.profile.name!r} engine profile does not support")

    def _side_data_bytes(self, job: JobSpec) -> int:
        if job.side_data is None:
            return 0
        if job.side_data_bytes is not None:
            return int(job.side_data_bytes)
        return estimate_record_bytes(job.side_data)

    def _check_memory(self, job_name: str, what: str, required: int) -> None:
        budget = self.cluster.memory_per_machine if self.enforce_budgets else None
        check_memory_budget(job_name, what, required, budget)

    def _check_disk(self, job_name: str, stats: JobStats) -> None:
        if not self.enforce_budgets:
            return
        per_machine = (2 * stats.shuffle_bytes) // max(1, self.cluster.num_machines)
        budget = self.cluster.disk_per_machine
        if per_machine > budget:
            raise DiskBudgetExceeded(
                f"job {job_name!r}: intermediate data needs about {per_machine} "
                f"bytes of disk per machine but the budget is {budget} bytes",
                required_bytes=per_machine, budget_bytes=budget)

    def _check_scheduler(self, job_name: str, stats: JobStats) -> None:
        limit = self.cluster.scheduler_limit_seconds
        if stats.simulated_seconds > limit:
            raise JobTimeoutError(
                f"job {job_name!r} would run for {stats.simulated_seconds:.0f} "
                f"simulated seconds, exceeding the scheduler limit of "
                f"{limit:.0f} seconds; the scheduler killed it",
                simulated_seconds=stats.simulated_seconds, limit_seconds=limit)
