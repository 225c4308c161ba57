"""Self-contained phase tasks: the one map, combine and reduce loop.

The runner builds one *task* per phase: the whole input for the map phase,
every mapper machine's output for the combine phase and the stream of
reduce groups (the in-memory shuffle's partitions, or an external
shuffle's merge) for the reduce phase.  Each task carries everything it
needs (the job, its data and the accounting parameters), is executed by a
module-level function — the backend's ``run_tasks`` is handed that
function, so a backend can tell the phases apart — and returns both its
emissions and an exact :class:`~repro.mapreduce.types.PhaseStats`; its
user code counts into the job's counter map, which the task carries.

The task loops do per record only what is per record — three rules:

* **Sized by shape when the job is built; the walker is the definition and
  the fallback.**  A map task reads its input sizes from the dataset (the
  sizes the previous job's reducer gave its output, handed over by the
  driver, or computed once when its first job read it).  What a task emits
  weighs what its job declared: a mapper's ``KeyValue`` arrives carrying
  the number its emit site was built with, a combiner that keeps the
  value's shape keeps the record's carried size, a reducer's
  ``output_record_bytes`` is the size of each output record.  Only what a
  job leaves undeclared is sized here, by the generic sizer, as it is
  emitted.  Everything downstream — a group's ``bytes_in``, the
  memory-budget check on a materialised value list, the external shuffle's
  buffer, the next job's input — reads the size the record carries.
* **One construction site**: :func:`~repro.mapreduce.types.sized_key_value`
  is the only place a ``KeyValue`` is built, by a task or by a mapper.
* **Partitioned per key at task end.**  Map and combine tasks collect their
  output flat — a mapper's cleanup emissions last — and
  :func:`partition_by_key` asks the partitioner once per distinct key when
  the task ends, building the shuffle's *spill dictionary* (``partition ->
  key -> records``) in first-occurrence key order.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Hashable, Iterable, Iterator, Sequence

from repro.core.exceptions import MemoryBudgetExceeded
from repro.mapreduce.job import JobSpec, TaskContext, normalise_emit
from repro.mapreduce.partitioner import Partitioner
from repro.mapreduce.types import (
    KeyValue,
    PhaseStats,
    estimate_record_bytes,
    sized_key_value,
)
from repro.telemetry import Metrics

#: The shuffle's spill structure: reduce partition -> key -> records.
Spill = dict[int, dict[Any, list[KeyValue]]]

#: The size a record was given when it was emitted: the tasks read this
#: and never walk a ``KeyValue`` again.
_carried_bytes = attrgetter("size_bytes")

#: What a reducer declared about its output records' sizes: read once per task.
_declared_output_bytes = attrgetter("output_record_bytes")


def check_memory_budget(job_name: str, what: str, required: int,
                        budget: int | None) -> None:
    """Raise :class:`MemoryBudgetExceeded` when ``required`` exceeds ``budget``.

    ``budget`` is ``None`` when budget enforcement is disabled.
    """
    if budget is None or required <= budget:
        return
    raise MemoryBudgetExceeded(
        f"job {job_name!r}: {what} needs {required} bytes but each "
        f"machine only has {budget} bytes of memory",
        required_bytes=required, budget_bytes=budget)


def partition_by_key(key_values: Iterable[KeyValue], partitioner: Partitioner,
                     num_reducers: int) -> Spill:
    """Group a task's output by key, then ask the partitioner once per key.

    Within a partition the keys keep their first-occurrence order and
    within a group the records their emission order: exactly the spill that
    partitioning record by record built.
    """
    groups: dict[Any, list[KeyValue]] = {}
    for key_value in key_values:
        records = groups.get(key_value.key)
        if records is None:
            groups[key_value.key] = [key_value]
        else:
            records.append(key_value)
    spill: Spill = {}
    for key, records in groups.items():
        partition = partitioner(key, num_reducers)
        partition_groups = spill.get(partition)
        if partition_groups is None:
            spill[partition] = {key: records}
        else:
            partition_groups[key] = records
    return spill


# -- map tasks ----------------------------------------------------------------


@dataclass
class MapTask:
    """The input records of one job, mapped as a single task."""

    job: JobSpec
    records: Sequence[Any]
    #: The size of each of ``records``, as the dataset carries it.
    record_bytes: Sequence[int]
    num_machines: int
    overhead: int
    num_reducers: int
    #: Whether to pre-partition the map output for the shuffle (map-side
    #: spill); disabled when a combiner will rewrite the output anyway.
    build_spill: bool
    #: The job's counters, which the mapper's context counts into.
    counters: Metrics


@dataclass
class MapTaskResult:
    """Emissions and exact accounting for one executed :class:`MapTask`.

    ``emissions`` and ``spill`` are mutually exclusive: with
    ``build_spill`` the runner consumes only the pre-partitioned spill, so
    the flat emission list is not kept; without it the flat list is the
    product.  Either holds the mapper's cleanup emissions last.  Every
    record carries the size it was emitted with (``KeyValue.size_bytes``).
    """

    emissions: list[KeyValue]
    spill: Spill | None
    phase: PhaseStats
    max_output_record: int


def execute_map_task(task: MapTask) -> MapTaskResult:
    """Run the mapper over the job's input: the one map loop."""
    job = task.job
    context = TaskContext(task.counters, job.side_data, task.num_machines,
                          job.name)
    job.mapper.setup(context)
    if task.records:
        job.mapper.check_input(task.records[0], context)
    phase = PhaseStats()
    emissions: list[KeyValue] = []
    machine_work = phase.machine_work
    max_output_record = 0
    # The input sizes ride on the dataset: nothing is sized on the way in.
    for index, (record, bytes_in) in enumerate(
            zip(task.records, task.record_bytes, strict=True)):
        bytes_out = 0
        emitted_count = 0
        for emitted in job.mapper.map(record, context) or ():
            key_value = normalise_emit(emitted)
            size = _carried_bytes(key_value)
            bytes_out += size
            if size > max_output_record:
                max_output_record = size
            emissions.append(key_value)
            emitted_count += 1
        work = bytes_in + bytes_out + task.overhead * (1 + emitted_count)
        phase.records_out += emitted_count
        phase.bytes_out += bytes_out
        # ``phase.add_machine_work``, spelled out: this runs once per record.
        machine = index % task.num_machines
        machine_work[machine] = machine_work.get(machine, 0.0) + work
        phase.work_units += work
        if work > phase.max_unit_work:
            phase.max_unit_work = work
    phase.records_in = len(task.records)
    phase.bytes_in = sum(task.record_bytes)
    cleanup_emissions = [normalise_emit(emitted)
                         for emitted in job.mapper.cleanup(context) or ()]
    if cleanup_emissions:
        cleanup_bytes = sum(map(_carried_bytes, cleanup_emissions))
        max_output_record = max(max_output_record,
                                max(map(_carried_bytes, cleanup_emissions)))
        phase.records_out += len(cleanup_emissions)
        phase.bytes_out += cleanup_bytes
        phase.add_machine_work(0, cleanup_bytes + task.overhead * len(cleanup_emissions))
        emissions.extend(cleanup_emissions)
    spill: Spill | None = None
    if task.build_spill:
        spill = partition_by_key(emissions, job.partitioner, task.num_reducers)
        emissions = []
    return MapTaskResult(emissions=emissions, spill=spill, phase=phase,
                         max_output_record=max_output_record)


# -- combine tasks ------------------------------------------------------------


@dataclass
class CombineTask:
    """Every mapper machine's output, combined as one task.

    ``machines`` holds ``(machine, groups)`` entries in ascending machine
    order, where ``groups`` maps ``(key, secondary)`` to that machine's
    records for the group.
    """

    job: JobSpec
    machines: list[tuple[int, dict[tuple, list[KeyValue]]]]
    num_machines: int
    overhead: int
    num_reducers: int
    build_spill: bool
    counters: Metrics


@dataclass
class CombineTaskResult:
    """Output and exact accounting for one :class:`CombineTask`.

    As for map tasks, ``combined`` (flat, in machine order) and ``spill``
    are mutually exclusive.  ``phase.machine_work`` holds the combine work
    of each mapper machine.
    """

    combined: list[KeyValue]
    spill: Spill | None
    phase: PhaseStats


def execute_combine_task(task: CombineTask) -> CombineTaskResult:
    """Run the dedicated combiner over every mapper machine's output."""
    job = task.job
    combiner = job.combiner
    assert combiner is not None
    context = TaskContext(task.counters, job.side_data, task.num_machines,
                          job.name)
    phase = PhaseStats()
    combined: list[KeyValue] = []
    keeps_shape = combiner.keeps_value_shape
    for machine, groups in task.machines:
        bytes_in = 0
        bytes_out = 0
        records_in = 0
        for (key, secondary), key_values in groups.items():
            values = [kv.value for kv in key_values]
            bytes_in += sum(map(_carried_bytes, key_values))
            records_in += len(values)
            # A value of the group's shape, under the group's key: the
            # combined record weighs what each record of the group does.
            kept = _carried_bytes(key_values[0]) if keeps_shape else None
            for value in combiner.combine(key, values, context):
                new_kv = sized_key_value(key, value, secondary, kept)
                combined.append(new_kv)
                bytes_out += _carried_bytes(new_kv)
        phase.records_in += records_in
        phase.bytes_in += bytes_in
        phase.bytes_out += bytes_out
        phase.add_machine_work(machine,
                               bytes_in + bytes_out + task.overhead * records_in)
    phase.records_out = len(combined)
    spill: Spill | None = None
    if task.build_spill:
        spill = partition_by_key(combined, job.partitioner, task.num_reducers)
        combined = []
    return CombineTaskResult(combined=combined, spill=spill, phase=phase)


# -- reduce tasks -------------------------------------------------------------


#: One reduce group as the shuffle hands it over: ``(partition, key,
#: records)``, partitions ascending, keys in first-occurrence order.
Group = tuple[int, Hashable, list[KeyValue]]


def iter_spill_groups(spill: Spill) -> Iterator[Group]:
    """The in-memory shuffle as a group stream, partitions ascending."""
    for partition, groups in sorted(spill.items()):
        for key, key_values in groups.items():
            yield partition, key, key_values


@dataclass
class ReduceTask:
    """A stream of reduce groups executed as one task.

    ``groups`` is consumed lazily, one group at a time:
    :func:`iter_spill_groups` over the in-memory shuffle, or the
    :meth:`~repro.mapreduce.shuffle.ExternalGrouper.iter_groups` merge of
    an external one — which must never be materialised, or the external
    shuffle loses its memory ceiling.
    """

    job: JobSpec
    groups: Iterable[Group]
    #: Whether each reduce value list is sorted by the secondary key first.
    sort_by_secondary: bool
    num_machines: int
    overhead: int
    #: Per-machine memory budget, or ``None`` when enforcement is disabled.
    memory_budget: int | None
    counters: Metrics


@dataclass
class ReduceTaskResult:
    """Output records and exact accounting for one :class:`ReduceTask`."""

    output_records: list[Any]
    #: The size each output record was emitted with, for the next job.
    output_bytes: list[int]
    phase: PhaseStats
    reduce_groups: int
    max_group_records: int
    max_group_bytes: int
    peak_task_memory: int


def _secondary_order(key_value: KeyValue) -> tuple[bool, Any]:
    """Sort key of the within-group order: secondary keys first, ascending."""
    return (key_value.secondary is None, key_value.secondary)


def execute_reduce_task(task: ReduceTask) -> ReduceTaskResult:
    """Run the reducer over a stream of groups: the one reduce loop.

    Every backend's reduce phase ends here, so this is the only place that
    drives a reducer's ``setup`` / ``reduce`` / ``cleanup`` and accounts
    group maxima, the materialised-value-list memory check, per-machine
    work and counters.
    """
    job = task.job
    reducer = job.reducer
    assert reducer is not None
    context = TaskContext(task.counters, job.side_data, task.num_machines,
                          job.name)
    reducer.setup(context)
    # What the job declared: one size for every output record, a function
    # of the record, or nothing (the generic sizer, record by record).
    declared = _declared_output_bytes(reducer)
    constant = declared if isinstance(declared, int) else None
    sizer = declared if callable(declared) else estimate_record_bytes
    phase = PhaseStats()
    output_records: list[Any] = []
    output_bytes: list[int] = []
    reduce_groups = 0
    max_group_records = 0
    max_group_bytes = 0
    peak_task_memory = 0
    for partition, key, key_values in task.groups:
        if task.sort_by_secondary:
            key_values.sort(key=_secondary_order)
        values = [kv.value for kv in key_values]
        bytes_in = sum(map(_carried_bytes, key_values))
        reduce_groups += 1
        if len(values) > max_group_records:
            max_group_records = len(values)
        if bytes_in > max_group_bytes:
            max_group_bytes = bytes_in
        if reducer.materializes_input:
            # Side data is loaded by the mappers of the jobs in this
            # library, so the reducer budget covers only the
            # materialised value list.
            if bytes_in > peak_task_memory:
                peak_task_memory = bytes_in
            check_memory_budget(job.name, f"reduce value list of key {key!r}",
                                bytes_in, task.memory_budget)
        if constant is not None:
            emitted_before = len(output_records)
            output_records.extend(reducer.reduce(key, values, context))
            records_out = len(output_records) - emitted_before
            bytes_out = records_out * constant
        else:
            bytes_out = 0
            records_out = 0
            for record in reducer.reduce(key, values, context):
                size = sizer(record)
                output_records.append(record)
                output_bytes.append(size)
                bytes_out += size
                records_out += 1
        work = bytes_in + bytes_out + task.overhead * len(values)
        phase.records_in += len(values)
        phase.records_out += records_out
        phase.bytes_in += bytes_in
        phase.bytes_out += bytes_out
        phase.add_machine_work(partition % task.num_machines, work)
    if constant is not None:
        output_bytes = [constant] * len(output_records)
    cleanup_bytes = 0
    cleanup_count = 0
    for record in reducer.cleanup(context):
        size = sizer(record) if constant is None else constant
        output_records.append(record)
        output_bytes.append(size)
        cleanup_bytes += size
        cleanup_count += 1
    if cleanup_count:
        phase.records_out += cleanup_count
        phase.bytes_out += cleanup_bytes
        phase.add_machine_work(0, cleanup_bytes + task.overhead * cleanup_count)
    return ReduceTaskResult(output_records=output_records,
                            output_bytes=output_bytes, phase=phase,
                            reduce_groups=reduce_groups,
                            max_group_records=max_group_records,
                            max_group_bytes=max_group_bytes,
                            peak_task_memory=peak_task_memory)

